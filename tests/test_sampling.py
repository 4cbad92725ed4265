import math
from collections import Counter

import pytest

from netsig import sampling
from netsig._bitgraph import BitGraph
from netsig.combinatorics import build_stratum_table, unrank_order
from netsig.engine import MAX_WORKERS, calculate_m, exact_tsignature
from netsig.fixtures import load_fixture
from netsig.sampling import _sample_rank, _seed_hash, approx_tsignature

BRIDGE = load_fixture("bridge")


class TestSamplingPlan:
    """`approx_tsignature`'s checks of the sample count, seed and workers,
    which run before any sample is drawn; the sampling is stubbed out."""

    @pytest.fixture(autouse=True)
    def runs(self, monkeypatch):
        runs = []

        def run(net, workers, fill, m_mode, seed, sample_count):
            runs.append((sample_count, seed, workers))
            return (sample_count,) + (0,) * (net.n - 1)

        monkeypatch.setattr(sampling, "_run_histogram", run)
        return runs

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            approx_tsignature(BRIDGE, 0)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            approx_tsignature(BRIDGE, 1, workers=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    def test_rejects_seed_outside_64_bits(self, seed):
        # Masking seeds to 64 bits would alias -1 with 2**64 - 1.
        with pytest.raises(ValueError, match="seed must lie"):
            approx_tsignature(BRIDGE, 1, seed=seed)

    def test_accepts_64_bit_seed_range(self, runs):
        for seed in (0, 2**64 - 1):
            approx_tsignature(BRIDGE, 1, seed=seed)
        assert runs == [(1, 0, 1), (1, 2**64 - 1, 1)]

    def test_sample_indices_below_64_bits(self, runs):
        # The stream packs sample index j into the low 64 bits of
        # counter * 2**64 + j, so indices stop at 2**64 - 1.
        assert approx_tsignature(BRIDGE, 2**64).total == 2**64
        with pytest.raises(ValueError, match="sample_count"):
            approx_tsignature(BRIDGE, 2**64 + 1)
        assert runs == [(2**64, 0, 1)]

    def test_rejects_workers_above_ceiling(self, runs):
        # One job per worker is built before any work starts.
        approx_tsignature(BRIDGE, 1, workers=MAX_WORKERS)
        assert runs == [(1, 0, MAX_WORKERS)]
        with pytest.raises(ValueError, match="workers"):
            approx_tsignature(BRIDGE, 1, workers=MAX_WORKERS + 1)

    def test_checks_run_in_order(self, runs):
        # sample count, seed, workers, then the m-mode: the first bad
        # argument names itself.
        for args, kwargs, message in (
            ((0,), {"seed": -1, "workers": 0, "m_mode": "x"}, "sample_count"),
            ((1,), {"seed": -1, "workers": 0, "m_mode": "x"}, "seed"),
            ((1,), {"workers": 0, "m_mode": "x"}, "workers"),
            ((1,), {"m_mode": "x"}, "m_mode"),
        ):
            with pytest.raises(ValueError, match=message):
                approx_tsignature(BRIDGE, *args, **kwargs)
        assert runs == []


class TestSampleStream:
    @pytest.mark.parametrize("x", [1, 2, 5, 2**512 - 1, 2**512, 2**512 + 1, 3**700])
    def test_draws_below_bound(self, x):
        # 2**512 and up take more than one digest per draw.
        keyed = _seed_hash(9)
        draws = [_sample_rank(keyed, j, x) for j in range(60)]
        assert all(0 <= u < x for u in draws)
        assert x == 1 or max(draws) >= x // 4

    def test_stream_depends_on_seed_and_index_alone(self):
        x = 10**30
        first = [_sample_rank(_seed_hash(3), j, x) for j in range(5)]
        assert first == [_sample_rank(_seed_hash(3), j, x) for j in range(5)]
        assert len(set(first)) == 5
        assert first != [_sample_rank(_seed_hash(4), j, x) for j in range(5)]

    def test_uniform_with_rejections(self):
        # x = 5 rejects 3 of every 8 candidates; a redraw must come from the
        # next digest, never a fixed value.
        from scipy.stats import chisquare

        keyed = _seed_hash(1)
        freq = Counter(_sample_rank(keyed, j, 5) for j in range(40_000))
        assert sorted(freq) == [0, 1, 2, 3, 4]
        _, p = chisquare(list(freq.values()))
        assert p > 0.001


class TestApproxTSignature:
    def test_series_is_exact(self):
        net = load_fixture("series2")
        sig = approx_tsignature(net, 500, seed=3)
        assert sig.values == (1.0, 0.0)

    def test_values_sum_to_one_exactly(self):
        net = load_fixture("bridge")
        sig = approx_tsignature(net, 999, seed=1)
        assert sum(sig.counts) == 999
        assert math.isclose(sum(sig.values), 1.0, abs_tol=1e-12)

    def test_triangle_within_four_stderr(self):
        net = load_fixture("triangle")
        exact = exact_tsignature(net).values
        sig = approx_tsignature(net, 100_000, seed=5)
        for value, expect, se in zip(sig.values, exact, sig.std_error):
            assert abs(value - expect) <= max(4 * se, 1e-9)

    def test_deterministic_across_worker_counts(self):
        net = load_fixture("bridge")
        # 3 samples over 5 workers leaves two workers without a sample
        for sample_count, worker_counts in ((4_000, (2, 3, 5)), (3, (5,))):
            base = approx_tsignature(net, sample_count, seed=42)
            for workers in worker_counts:
                sig = approx_tsignature(net, sample_count, seed=42, workers=workers)
                assert sig.counts == base.counts

    def test_pinned_eon_counts(self):
        # Recorded from the keyed-hash stream with unranked orders; a faster
        # sampler must not change a single count.
        net = load_fixture("eon_par_cop")
        sig = approx_tsignature(net, 2_000, seed=7)
        assert sig.counts == (0, 0, 0, 0, 1, 4, 1, 8, 11, 17, 17, 38, 68, 122, 161,
                              231, 306, 277, 236, 213, 136, 82, 43, 21, 7, 0)

    def test_exact_subset_scores_on_the_network_graph(self, monkeypatch):
        # The BitGraph that validated the network is the one the minimum
        # subset is scored on: a one-worker run builds no other.
        net = load_fixture("eon_par_cop")

        def build(*args, **kwargs):
            raise AssertionError("a BitGraph was built")
        monkeypatch.setattr(BitGraph, "__init__", build)
        sig = approx_tsignature(net, 2_000, seed=7, m_mode="exact-subset")
        assert sig.counts == (0, 0, 0, 0, 1, 4, 1, 8, 11, 17, 17, 38, 68, 122, 161,
                              231, 306, 277, 236, 213, 136, 82, 43, 21, 7, 0)

    def test_pinned_eon_greedy_counts_with_one_search_per_step(self, monkeypatch):
        # Recorded when the greedy loop still tested `connected` before each
        # shortest path.  With 26 links there is no table, and a search that
        # does not reach the first terminal alone must stop the loop.
        def fail(*args):
            raise AssertionError("greedy count queried connectivity")

        net = load_fixture("eon_par_cop")
        monkeypatch.setattr(BitGraph, "connected", fail)
        for workers in (1, 2):
            sig = approx_tsignature(net, 2_000, seed=3, workers=workers, m_mode="paper-greedy")
            assert sig.counts == (
                0, 0, 0, 0, 1, 1, 4, 5, 8, 16, 39, 40, 72, 110, 163, 227, 275, 270,
                247, 209, 155, 79, 41, 28, 10, 0)

    @pytest.mark.parametrize("name, counts", [
        ("eon_lon_ber_mil", (0, 0, 0, 0, 3, 4, 3, 14, 17, 33, 50, 87, 119, 201, 254,
                             317, 319, 273, 165, 85, 37, 12, 6, 1, 0, 0)),
        ("figure1", (0, 144, 455, 784, 403, 163, 51, 0, 0)),
    ])
    def test_pinned_three_terminal_counts(self, name, counts):
        # Recorded with the subset-scan scorer; the min-cut scorer must give
        # the same M for every sampled order.
        net = load_fixture(name)
        sig = approx_tsignature(net, 2_000, seed=7)
        assert sig.counts == counts

    def test_scoring_skips_fatal_block_rechecks(self, monkeypatch):
        # The union pass that finds the fatal block has already established
        # its preconditions; the sampler must not query them again.
        def fail(*args):
            raise AssertionError("fatal-block preconditions re-checked")

        monkeypatch.setattr(BitGraph, "_check_fatal_block", fail)
        net = load_fixture("eon_par_cop")
        for m_mode in ("exact-subset", "paper-greedy"):
            assert sum(approx_tsignature(net, 200, seed=7, m_mode=m_mode).counts) == 200

    def test_one_draw_and_one_score_per_sample(self, monkeypatch):
        # A per-layer trace counts samples by wrapping these two
        # module-level names; the sampler must look each up once per
        # sample, or the traced counts silently read 0.
        calls = Counter()

        def counted(name):
            inner = getattr(sampling, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(sampling, name, wrapper)

        counted("_unrank_partition")
        counted("_order_m")
        net = load_fixture("eon_par_cop")
        sig = approx_tsignature(net, 300, seed=1)
        assert calls == {"_unrank_partition": 300, "_order_m": 300} and sig.total == 300

    @pytest.mark.parametrize("name, m_mode, seed", [
        ("bridge", "exact-subset", 21),
        ("bridge", "paper-greedy", 22),
        ("figure1", "exact-subset", 23),
    ])
    def test_counts_are_the_stream_orders_scored(self, name, m_mode, seed):
        # Sample j is the order unranked from the j-th draw of the stream:
        # the draws that the acceptance criteria check are the product's.
        net = load_fixture(name)
        table = build_stratum_table(net.n)
        keyed = _seed_hash(seed)
        expected = [0] * net.n
        for j in range(2_000):
            order = unrank_order(table, _sample_rank(keyed, j, table[-1]))
            expected[calculate_m(net, order, m_mode) - 1] += 1
        assert approx_tsignature(net, 2_000, seed=seed, m_mode=m_mode).counts == tuple(expected)

    def test_seed_changes_draws(self):
        net = load_fixture("bridge")
        a = approx_tsignature(net, 2_000, seed=1)
        b = approx_tsignature(net, 2_000, seed=2)
        assert a.counts != b.counts

    def test_std_error_shape(self):
        net = load_fixture("bridge")
        sig = approx_tsignature(net, 100, seed=0)
        assert len(sig.std_error) == net.n
        assert all(0.0 <= se <= 0.5 / math.sqrt(100) + 1e-12 for se in sig.std_error)

    def test_small_scale_unbiasedness(self):
        # mean of 200 independent N=1000 runs vs exact values, 3 sigma of the mean
        net = load_fixture("triangle")
        exact = exact_tsignature(net).values
        runs = 200
        per_run = 1_000
        sums = [0.0] * net.n
        for seed in range(runs):
            sig = approx_tsignature(net, per_run, seed=seed)
            for i, v in enumerate(sig.values):
                sums[i] += v
        for i in range(net.n):
            mean = sums[i] / runs
            se_mean = math.sqrt(exact[i] * (1 - exact[i]) / (runs * per_run))
            assert abs(mean - exact[i]) < max(3 * se_mean, 1e-9), i
