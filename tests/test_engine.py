import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from netsig import engine
from netsig.combinatorics import enumerate_orders, n_star, random_order, build_stratum_table
from netsig.engine import (
    M_MODES,
    TSignature,
    calculate_m,
    classic_signature,
    exact_tsignature,
)
from netsig.errors import EnumerationCapError, UnsupportedModeError
from netsig.fixtures import load_fixture

from conftest import OracleNet, oracle_histogram, random_connected_network


def _m_histogram(net, orders, m_mode):
    """Per-order scoring: the histogram of calculate_m over `orders`."""
    counts = [0] * net.n
    for order in orders:
        counts[calculate_m(net, order, m_mode).M - 1] += 1
    return tuple(counts)


# Random two-terminal networks with 3 to 6 links.
small_networks = st.builds(
    random_connected_network, st.randoms(use_true_random=False), st.integers(3, 6)
)


# Random networks with 3 to 8 links and two or three terminals.
terminal_networks = st.builds(
    random_connected_network,
    st.randoms(use_true_random=False),
    st.integers(3, 8),
    st.sampled_from([2, 3]),
)


def _cut_shuffle_order(rng, n):
    """A failure order from a shuffle of the links cut at random points
    (independent of the package's sampler)."""
    links = list(range(1, n + 1))
    rng.shuffle(links)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return tuple(tuple(sorted(links[a:b])) for a, b in zip([0] + cuts, cuts + [n]))


class TestTSignatureType:
    def test_values_sum_to_one(self):
        sig = TSignature(n=3, counts=(1, 5, 7), total=13, mode="exact", m_mode="exact-subset")
        assert abs(sum(sig.values) - 1.0) < 1e-12

    def test_count_total_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TSignature(n=2, counts=(1, 1), total=3, mode="exact", m_mode="exact-subset")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TSignature(n=3, counts=(1, 2), total=3, mode="exact", m_mode="exact-subset")

    @pytest.mark.parametrize("mode, m_mode", [("nonsense", "exact-subset"), ("exact", "x")])
    def test_unknown_mode_rejected(self, mode, m_mode):
        with pytest.raises(ValueError, match="unknown m?_?mode"):
            TSignature(n=2, counts=(1, 2), total=3, mode=mode, m_mode=m_mode)


class TestCalculateM:
    def test_series_first_failure_kills(self):
        net = load_fixture("series2")
        assert calculate_m(net, ((1,), (2,))).M == 1

    def test_parallel_single_block(self):
        net = load_fixture("parallel2")
        assert calculate_m(net, ((1, 2),)).M == 2

    def test_bridge_two_blocks(self):
        net = load_fixture("bridge")
        assert calculate_m(net, ((3,), (1, 2, 4, 5))).M == 3

    def test_rejects_mismatched_order(self):
        net = load_fixture("bridge")
        with pytest.raises(ValueError):
            calculate_m(net, ((1, 2),))

    def test_greedy_mode_needs_two_terminals(self):
        net = load_fixture("figure1")
        with pytest.raises(UnsupportedModeError):
            calculate_m(net, tuple((i,) for i in range(1, 10)), m_mode="paper-greedy")

    @settings(max_examples=80, deadline=None)
    @given(net=terminal_networks, rng=st.randoms(use_true_random=False))
    @example(net=load_fixture("figure1"), rng=random.Random(3))
    def test_matches_oracle_at_every_fatal_position(self, net, rng):
        # The fatal block is found by bisection; check it against the
        # union-find oracle on a random order and on two orders built from
        # it: the blocks up to the fatal one merged (the first block is
        # fatal) and the blocks from it on merged (only the last is fatal).
        oracle = OracleNet(net)
        order = _cut_shuffle_order(rng, net.n)
        fatal = next(
            k for k in range(len(order))
            if not oracle.connected(set().union(*order[: k + 1]))
        )
        first = (tuple(sorted(sum(order[: fatal + 1], ()))),) + order[fatal + 1 :]
        last = order[:fatal] + (tuple(sorted(sum(order[fatal:], ()))),)
        for scored in (order, first, last):
            assert calculate_m(net, scored, "exact-subset").M == oracle.order_m(scored)

    def test_bounds_and_mode_ordering(self, rng):
        # 1 <= M <= n and greedy M never exceeds exact M
        for _ in range(10):
            net = random_connected_network(rng, rng.randint(4, 5))
            table = build_stratum_table(net.n)
            for _ in range(50):
                order = random_order(table, rng)
                exact = calculate_m(net, order, "exact-subset").M
                greedy = calculate_m(net, order, "paper-greedy").M
                assert 1 <= greedy <= exact <= net.n


class TestExactTSignature:
    def test_series(self):
        assert exact_tsignature(load_fixture("series2")).values == (1.0, 0.0)

    def test_parallel(self):
        assert exact_tsignature(load_fixture("parallel2")).values == (0.0, 1.0)

    def test_totals_and_sum(self):
        net = load_fixture("bridge")
        sig = exact_tsignature(net)
        assert sig.total == n_star(5) == sum(sig.counts)
        assert abs(sum(sig.values) - 1.0) < 1e-12

    def test_zero_below_min_cut(self):
        from netsig.graph import min_failed_subset_size

        net = load_fixture("figure1")
        sig = exact_tsignature(net)
        cut = min_failed_subset_size(net, frozenset(), frozenset(range(1, net.n + 1)))
        assert all(sig.values[i] == 0 for i in range(cut - 1))

    def test_cap_refusal(self):
        net = load_fixture("bridge")
        with pytest.raises(EnumerationCapError):
            exact_tsignature(net, max_links=4)

    @pytest.mark.parametrize(
        "name", ["series2", "series3", "parallel2", "bridge", "triangle",
                 "counterexample", "zigzag", "single_edge"]
    )
    def test_matches_brute_force_oracle(self, name):
        net = load_fixture(name)
        expected_counts, expected_total = oracle_histogram(net)
        sig = exact_tsignature(net)
        assert sig.counts == expected_counts
        assert sig.total == expected_total

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(25):
            net = random_connected_network(rng, rng.randint(4, 5))
            expected_counts, expected_total = oracle_histogram(net)
            sig = exact_tsignature(net)
            assert sig.counts == expected_counts and sig.total == expected_total

    def test_order_limit_prefix(self):
        # scoring the first L stream orders one by one matches a manual walk
        net = load_fixture("bridge")
        limit = 100
        oracle = OracleNet(net)
        expected = [0] * net.n
        for i, order in enumerate(enumerate_orders(net.n)):
            if i >= limit:
                break
            expected[oracle.order_m(order) - 1] += 1
        sig = exact_tsignature(net, order_limit=limit)
        assert sig.counts == tuple(expected)
        assert sig.total == limit

    @pytest.mark.parametrize("m_mode", M_MODES)
    @settings(max_examples=20, deadline=None)
    @given(net=small_networks)
    # greedy and exact histograms differ on zigzag, on none of the random
    # networks with up to 6 links
    @example(net=load_fixture("zigzag"))
    def test_matches_per_order_scoring(self, m_mode, net):
        expected = _m_histogram(net, enumerate_orders(net.n), m_mode)
        assert exact_tsignature(net, m_mode=m_mode).counts == expected


class TestClassicSignature:
    def test_series(self):
        assert classic_signature(load_fixture("series2")).values == (1.0, 0.0)

    def test_single_link(self):
        assert classic_signature(load_fixture("single_edge")).values == (1.0,)

    def test_bridge_exact_counts(self):
        sig = classic_signature(load_fixture("bridge"))
        assert sig.total == 120
        assert sig.counts == (0, 24, 72, 24, 0)
        assert sig.values == (0.0, 0.2, 0.6, 0.2, 0.0)

    def test_permutation_oracle(self, rng):
        for _ in range(5):
            net = random_connected_network(rng, 4)
            oracle = OracleNet(net)
            counts = [0] * net.n
            for perm in itertools.permutations(range(1, net.n + 1)):
                order = tuple((x,) for x in perm)
                counts[oracle.order_m(order) - 1] += 1
            assert classic_signature(net).counts == tuple(counts)

    @pytest.mark.parametrize("m_mode", M_MODES)
    @settings(max_examples=20, deadline=None)
    @given(net=small_networks)
    def test_matches_per_order_scoring(self, m_mode, net):
        perms = itertools.permutations(range(1, net.n + 1))
        expected = _m_histogram(net, (tuple((x,) for x in p) for p in perms), m_mode)
        assert classic_signature(net, m_mode=m_mode).counts == expected

    def test_cap_refusal(self):
        with pytest.raises(EnumerationCapError):
            classic_signature(load_fixture("eon_par_cop"))


class TestParallelDeterminism:
    def test_workers_match_single(self):
        net = load_fixture("figure2")
        limit = 50_000
        one = exact_tsignature(net, order_limit=limit)
        four = exact_tsignature(net, order_limit=limit, workers=4)
        assert one.counts == four.counts

    def test_full_run_worker_counts_agree(self):
        net = load_fixture("bridge")
        base = exact_tsignature(net)
        for workers in (2, 3):
            assert exact_tsignature(net, workers=workers).counts == base.counts

    @pytest.mark.parametrize("cpus, pool_size", [(2, 2), (8, 5), (None, 1)])
    def test_pool_bounded_by_cpu_count(self, monkeypatch, cpus, pool_size):
        # The pool is recorded and run in this process, so no process starts.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
        net = load_fixture("bridge")
        sig = exact_tsignature(net, workers=5)
        assert sizes == [pool_size]
        assert sig.counts == exact_tsignature(net).counts
