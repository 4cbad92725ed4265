import math
import random
from collections import Counter

import pytest

from netsig.combinatorics import (
    build_stratum_table,
    check_failure_order,
    enumerate_orders,
    iter_base_partitions,
    n_star,
    random_order,
    stirling2,
    unrank_order,
)

from conftest import all_set_partitions


class FixedDraw:
    """A stand-in generator whose one `randrange(x)` returns a chosen rank."""

    def __init__(self, rank):
        self.rank = rank
        self.bounds = []

    def randrange(self, x):
        self.bounds.append(x)
        assert 0 <= self.rank < x
        return self.rank

# Ordered Bell numbers from the reference table, n=2..12.
TABLE_N_STAR = {
    2: 3,
    3: 13,
    4: 75,
    5: 541,
    6: 4_683,
    7: 47_293,
    8: 545_835,
    9: 7_087_261,
    10: 102_247_563,
    11: 1_622_632_573,
    12: 28_091_567_595,
}


class TestStirling2:
    def test_enumeration_oracle(self):
        # count partitions by block count directly
        for n in range(1, 8):
            by_k = Counter(
                len(part) for part in all_set_partitions(list(range(1, n + 1)))
            )
            for k in range(1, n + 1):
                assert stirling2(n, k) == by_k[k], (n, k)

    def test_known_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(12, 12) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            stirling2(3, 5)


class TestNStar:
    def test_table_values(self):
        for n, expect in TABLE_N_STAR.items():
            assert n_star(n) == expect

    def test_trivial(self):
        assert n_star(1) == 1

    def test_n26(self):
        assert n_star(26) == 4_002_225_759_844_168_492_486_127_539_083

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            n_star(0)

    def test_stratum_identity_up_to_30(self):
        # sum_k k!*S(n,k) vs the inclusion-exclusion double sum
        # sum_j sum_i (-1)^i C(j,i) (j-i)^n, exact integers
        for n in range(1, 31):
            assert n_star(n) == sum(
                math.comb(j, i) * (-1) ** i * (j - i) ** n
                for j in range(1, n + 1)
                for i in range(j + 1)
            )


class TestStratumTable:
    # Entry k-1 counts the orders of at most k blocks: the cumulative sums
    # of k!*S(n,k).
    def test_n3(self):
        assert build_stratum_table(3) == (1, 7, 13)

    def test_n1(self):
        assert build_stratum_table(1) == (1,)

    def test_n2(self):
        assert build_stratum_table(2) == (1, 3)

    def test_last_entry_is_n_star(self):
        for n in range(1, 31):
            assert build_stratum_table(n)[-1] == n_star(n), n


def _labels(blocks, n):
    """The restricted growth string of a partition: element e's block index."""
    labels = [None] * n
    for index, block in enumerate(blocks):
        for e in block:
            labels[e - 1] = index
    return labels


class TestBasePartitions:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_labels_increase_and_cover_every_partition(self, n):
        stream = list(iter_base_partitions(n))
        for blocks in stream:
            assert all(list(block) == sorted(block) for block in blocks)
            assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
        labels = [_labels(blocks, n) for blocks in stream]
        assert all(a < b for a, b in zip(labels, labels[1:]))
        as_sets = {frozenset(map(frozenset, blocks)) for blocks in stream}
        assert as_sets == {
            frozenset(map(frozenset, part))
            for part in all_set_partitions(list(range(1, n + 1)))
        }

    def test_first_partitions_of_5000_links(self):
        # The walk is iterative: a recursion per link would overflow here.
        stream = iter_base_partitions(5000)
        links = tuple(range(1, 5001))
        assert next(stream) == (links,)
        assert next(stream) == (links[:-1], (5000,))
        assert next(stream) == (links[:-2] + (5000,), (4999,))


class TestEnumerateOrders:
    def test_n1(self):
        assert list(enumerate_orders(1)) == [((1,),)]

    def test_n2_canonical_order(self):
        assert list(enumerate_orders(2)) == [
            ((1, 2),),
            ((1,), (2,)),
            ((2,), (1,)),
        ]

    def test_n5_count(self):
        assert sum(1 for _ in enumerate_orders(5)) == 541

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_and_duplicate_free(self, n):
        seen = set()
        for order in enumerate_orders(n):
            check_failure_order(order, n)
            seen.add(order)
        assert len(seen) == n_star(n)


class TestRandomOrder:
    def test_n1(self, rng):
        table = build_stratum_table(1)
        assert random_order(table, rng) == ((1,),)

    def test_single_block_rate_n2(self):
        rng = random.Random(11)
        table = build_stratum_table(2)
        draws = 30_000
        single = sum(
            1 for _ in range(draws) if len(random_order(table, rng)) == 1
        )
        assert abs(single / draws - 1 / 3) < 0.01

    def test_draws_are_valid_orders(self, rng):
        table = build_stratum_table(6)
        for _ in range(500):
            check_failure_order(random_order(table, rng), 6)

    def test_uniform_n3(self):
        from scipy.stats import chisquare

        rng = random.Random(13)
        table = build_stratum_table(3)
        draws = 130_000
        freq = Counter(random_order(table, rng) for _ in range(draws))
        assert len(freq) == 13
        _, p = chisquare(list(freq.values()))
        assert p > 0.001

    # Recorded from the unranking sampler, as above.
    @pytest.mark.parametrize("n, seed, order, after", [
        (4, 3, ((4,), (2, 3), (1,)), 0.5926409106271656),
        (9, 11, ((1,), (9,), (6, 8), (2, 4), (5,), (7,), (3,)), 0.8657422852499215),
        (26, 7, ((14,), (3,), (16, 22, 23), (2, 7), (17,), (11,), (15,), (26,), (13, 18),
                 (4,), (9, 12), (21,), (8,), (1,), (10, 25), (19, 24), (20,), (6,), (5,)),
         0.6509344730398537),
    ])
    def test_pinned_draws(self, n, seed, order, after):
        rng = random.Random(seed)
        assert random_order(build_stratum_table(n), rng) == order
        assert rng.random() == after

    def test_unranking_is_a_bijection(self):
        # Every rank below n* gives a different valid order, so the ranks
        # cover each failure order of {1..n} exactly once.
        for n in range(1, 8):
            table = build_stratum_table(n)
            drawn = [unrank_order(table, u) for u in range(table[-1])]
            for order in drawn:
                check_failure_order(order, n)
            assert len(set(drawn)) == len(drawn) == n_star(n), n
            assert set(drawn) == set(enumerate_orders(n)), n

    def test_draw_is_one_rank_below_n_star(self):
        table = build_stratum_table(6)
        for u in (0, 1, 2_500, table[-1] - 1):
            rng = FixedDraw(u)
            assert random_order(table, rng) == unrank_order(table, u)
            assert rng.bounds == [table[-1]]

    @pytest.mark.parametrize("u", [-1, 75])
    def test_unrank_rejects_rank_out_of_range(self, u):
        with pytest.raises(ValueError):
            unrank_order(build_stratum_table(4), u)
