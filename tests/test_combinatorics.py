import math
import random
from collections import Counter

import pytest

from netsig.combinatorics import (
    binomial,
    build_stratum_table,
    check_failure_order,
    enumerate_orders,
    n_star,
    random_order,
    random_partition_with_k_blocks,
    stirling2,
)

from conftest import all_set_partitions

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


def pascal_binomial(n, k):
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


class TestBinomial:
    def test_small(self):
        assert binomial(4, 2) == 6

    def test_k_zero(self):
        assert binomial(17, 0) == 1

    def test_pascal_oracle(self):
        assert binomial(26, 13) == pascal_binomial(26, 13) == 10_400_600

    @pytest.mark.parametrize("n,k", [(-1, 0), (3, 4), (3, -1)])
    def test_out_of_range(self, n, k):
        with pytest.raises(ValueError):
            binomial(n, k)


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
        # inclusion-exclusion double sum vs sum_k k!*S(n,k), exact integers
        for n in range(1, 31):
            assert n_star(n) == sum(
                math.factorial(k) * stirling2(n, k) for k in range(1, n + 1)
            )


class TestStratumTable:
    def test_n3(self):
        table = build_stratum_table(3)
        assert table.m == (1, 6, 6)
        assert table.n_star == 13

    def test_n1(self):
        table = build_stratum_table(1)
        assert table.m == (1,)
        assert table.n_star == 1

    def test_n2(self):
        assert build_stratum_table(2).m == (1, 2)


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


class TestRandomPartition:
    def test_all_singletons(self, rng):
        assert random_partition_with_k_blocks(4, 4, rng) == ((1,), (2,), (3,), (4,))

    def test_single_block(self, rng):
        assert random_partition_with_k_blocks(5, 1, rng) == ((1, 2, 3, 4, 5),)

    def test_out_of_range(self, rng):
        with pytest.raises(ValueError):
            random_partition_with_k_blocks(3, 4, rng)

    def test_uniform_n4_k2(self):
        from scipy.stats import chisquare

        rng = random.Random(7)
        draws = 70_000
        freq = Counter(
            random_partition_with_k_blocks(4, 2, rng) for _ in range(draws)
        )
        assert len(freq) == 7  # S(4,2)
        _, p = chisquare(list(freq.values()))
        assert p > 0.001

    # Draws and the next rng.random() recorded from the recursive sampler
    # (commit 3447fcd): the stream must be consumed exactly as before.
    @pytest.mark.parametrize("n, k, seed, blocks, after", [
        (10, 4, 2, ((1, 7, 10), (2, 4, 5), (3, 6, 8), (9,)), 0.5812040171120031),
        (26, 13, 5, ((1, 7, 17, 21), (2, 5, 8), (3, 14, 15, 25, 26), (4, 22, 24), (6,),
                     (9,), (10,), (11, 12), (13,), (16,), (18,), (19,), (20, 23)),
         0.2893051677469265),
    ])
    def test_pinned_draws(self, n, k, seed, blocks, after):
        rng = random.Random(seed)
        assert random_partition_with_k_blocks(n, k, rng) == blocks
        assert rng.random() == after


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

    # Recorded from the recursive sampler (commit 3447fcd), as above.
    @pytest.mark.parametrize("n, seed, order, after", [
        (4, 3, ((3, 4), (2,), (1,)), 0.9159448117309811),
        (9, 11, ((3,), (7,), (1,), (2, 5, 9), (4,), (6,), (8,)), 0.3034012626245255),
        (26, 7, ((19,), (3, 9, 12), (16,), (22,), (6,), (21,), (11,), (23,), (1, 4),
                 (14, 24), (20,), (17,), (13, 15), (2, 18), (26,), (8,), (5, 10), (7,),
                 (25,)),
         0.5855618635076387),
    ])
    def test_pinned_draws(self, n, seed, order, after):
        rng = random.Random(seed)
        assert random_order(build_stratum_table(n), rng) == order
        assert rng.random() == after
