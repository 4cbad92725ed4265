import math

import pytest

from netsig.engine import exact_tsignature
from netsig.fixtures import load_fixture
from netsig.sampling import SamplingPlan, approx_tsignature, convergence_report


class TestSamplingPlan:
    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            SamplingPlan(sample_count=0)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SamplingPlan(sample_count=1, workers=0)


class TestApproxTSignature:
    def test_series_is_exact(self):
        net = load_fixture("series2")
        sig = approx_tsignature(net, SamplingPlan(sample_count=500, seed=3))
        assert sig.values == (1.0, 0.0)

    def test_values_sum_to_one_exactly(self):
        net = load_fixture("bridge")
        sig = approx_tsignature(net, SamplingPlan(sample_count=999, seed=1))
        assert sum(sig.counts) == 999
        assert math.isclose(sum(sig.values), 1.0, abs_tol=1e-12)

    def test_triangle_within_four_stderr(self):
        net = load_fixture("triangle")
        exact = exact_tsignature(net).values
        sig = approx_tsignature(net, SamplingPlan(sample_count=100_000, seed=5))
        for value, expect, se in zip(sig.values, exact, sig.std_error):
            assert abs(value - expect) <= max(4 * se, 1e-9)

    def test_deterministic_across_worker_counts(self):
        net = load_fixture("bridge")
        # 3 samples over 5 workers leaves two workers without a sample
        for sample_count, worker_counts in ((4_000, (2, 3, 5)), (3, (5,))):
            base = approx_tsignature(net, SamplingPlan(sample_count=sample_count, seed=42))
            for workers in worker_counts:
                plan = SamplingPlan(sample_count=sample_count, seed=42, workers=workers)
                assert approx_tsignature(net, plan).counts == base.counts

    def test_pinned_eon_counts(self):
        # Recorded from commit 3447fcd, whose sampler scored every prefix and
        # drew partitions recursively; both now take shortcuts that must not
        # change a single count.
        net = load_fixture("eon_par_cop")
        sig = approx_tsignature(net, SamplingPlan(sample_count=2_000, seed=7))
        assert sig.counts == (0, 0, 0, 0, 0, 1, 3, 8, 12, 21, 26, 48, 81, 111, 160,
                              221, 264, 324, 241, 186, 143, 66, 48, 26, 10, 0)

    def test_seed_changes_draws(self):
        net = load_fixture("bridge")
        a = approx_tsignature(net, SamplingPlan(sample_count=2_000, seed=1))
        b = approx_tsignature(net, SamplingPlan(sample_count=2_000, seed=2))
        assert a.counts != b.counts

    def test_std_error_shape(self):
        net = load_fixture("bridge")
        sig = approx_tsignature(net, SamplingPlan(sample_count=100, seed=0))
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
            sig = approx_tsignature(net, SamplingPlan(sample_count=per_run, seed=seed))
            for i, v in enumerate(sig.values):
                sums[i] += v
        for i in range(net.n):
            mean = sums[i] / runs
            se_mean = math.sqrt(exact[i] * (1 - exact[i]) / (runs * per_run))
            assert abs(mean - exact[i]) < max(3 * se_mean, 1e-9), i


class TestConvergenceReport:
    def test_single_cell(self):
        net = load_fixture("bridge")
        report = convergence_report(net, seeds=[1], sample_counts=[500])
        assert len(report.rows) == 1
        assert report.rows[0].sample_count == 500
        assert report.spread_by_samples[500] == 0.0

    def test_requires_nonempty_lists(self):
        net = load_fixture("bridge")
        with pytest.raises(ValueError):
            convergence_report(net, seeds=[], sample_counts=[10])

    def test_deviation_shrinks_with_samples(self):
        # against the exact vector, allowing one inversion
        net = load_fixture("triangle")
        exact = exact_tsignature(net).values
        report = convergence_report(
            net, seeds=[9], sample_counts=[1_000, 10_000, 100_000]
        )
        devs = []
        for n_samples in (1_000, 10_000, 100_000):
            row = next(r for r in report.rows if r.sample_count == n_samples)
            devs.append(max(abs(a - b) for a, b in zip(row.values, exact)))
        inversions = sum(1 for a, b in zip(devs, devs[1:]) if b > a)
        assert inversions <= 1
