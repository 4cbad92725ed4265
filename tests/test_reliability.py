import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from netsig import reliability
from netsig.engine import TSignature, exact_tsignature
from netsig.fixtures import load_fixture
from netsig.reliability import PROCESSES, count_cdf, survival_mixture

from conftest import oracle_count_cdf, oracle_survival

GRID = [i / 25 for i in range(101)]  # 0 .. 4


class TestCountCdf:
    def test_poisson_j0(self):
        assert math.isclose(count_cdf("poisson", 1.0, None, 0, 1.0), math.exp(-1), rel_tol=1e-12)

    def test_t_zero_is_one(self):
        for process, rate, n in (("poisson", 2.0, None), ("binomial", 1.0, 5)):
            for j in (0, 1, 4):
                assert count_cdf(process, rate, n, j, 0.0) == 1.0

    def test_binomial_closed_form(self):
        # n=2, exponential(1): P(N(1) <= 1) = 1 - F(1)^2
        f1 = 1 - math.exp(-1)
        assert math.isclose(count_cdf("binomial", 1.0, 2, 1, 1.0), 1 - f1 * f1, rel_tol=1e-12)

    def test_bounds(self):
        rng = random.Random(0)
        for process, rate, n in (("poisson", 0.7, None), ("binomial", 1.3, 9)):
            for _ in range(200):
                j = rng.randrange(0, 12)
                t = rng.random() * 50
                p = count_cdf(process, rate, n, j, t)
                assert 0.0 <= p <= 1.0

    def test_rejects_negative_args(self):
        with pytest.raises(ValueError):
            count_cdf("poisson", 1.0, None, -1, 1.0)
        with pytest.raises(ValueError):
            count_cdf("poisson", 1.0, None, 0, -0.5)

    @pytest.mark.parametrize("process, n", [("poisson", None), ("binomial", 3)])
    def test_rejects_nan_time(self, process, n):
        # NaN passed `t < 0` and came back as the probability nan.
        with pytest.raises(ValueError, match="t must be >= 0"):
            count_cdf(process, 1.0, n, 2, math.nan)

    def test_binomial_count_of_all_links_builds_no_weights(self, monkeypatch):
        # From j = n on the answer is 1.0, whatever j: no weight per count.
        def fail(*args):
            raise AssertionError("the mixture kernel ran")

        monkeypatch.setattr(reliability, "_mixture", fail)
        assert count_cdf("binomial", 1.0, 3, 10**7, 1.0) == 1.0 == oracle_count_cdf(
            "binomial", 1.0, 3, 10**7, 1.0)

    def test_poisson_memory_does_not_grow_with_j(self):
        # The running sum stops once a term underflows to 0.0, where the
        # partial sum is final; no weight per count is built.
        tracemalloc.start()
        try:
            p = count_cdf("poisson", 1.0, None, 10**6, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
        assert p.hex() == oracle_count_cdf("poisson", 1.0, None, 10**6, 5.0).hex()

    def test_infinite_time_is_the_limit(self):
        assert [count_cdf("poisson", 1.0, None, j, math.inf) for j in (0, 1, 5)] == [0.0] * 3
        assert [count_cdf("binomial", 1.0, 3, j, math.inf) for j in range(5)] == [
            0.0, 0.0, 0.0, 1.0, 1.0,
        ]

    def test_invalid_model(self):
        sig = exact_tsignature(load_fixture("bridge"))
        with pytest.raises(ValueError, match="rate must be finite and strictly positive"):
            count_cdf("poisson", 0.0, None, 0, 1.0)
        with pytest.raises(ValueError, match="rate must be finite and strictly positive"):
            survival_mixture(sig, "poisson", 0.0, GRID)
        for n in (0, None):
            with pytest.raises(ValueError, match="binomial model requires the link count n"):
                count_cdf(process="binomial", rate=1.0, n=n, j=0, t=1.0)
        with pytest.raises(ValueError, match="unknown counting model 'weibull'"):
            count_cdf("weibull", 1.0, 3, 0, 1.0)
        with pytest.raises(ValueError, match="unknown counting model 'weibull'"):
            survival_mixture(sig, "weibull", 1.0, GRID)

    def test_checks_process_and_rate_before_the_grid(self):
        sig = exact_tsignature(load_fixture("bridge"))
        with pytest.raises(ValueError, match="unknown counting model"):
            survival_mixture(sig, "weibull", 0.0, [1.0, math.nan])
        with pytest.raises(ValueError, match="rate must be finite"):
            survival_mixture(sig, "binomial", math.inf, [1.0, 0.5])
        with pytest.raises(ValueError, match="rate must be finite"):
            count_cdf("poisson", -1.0, None, -1, math.nan)

    def test_infinite_poisson_mean_is_the_zero_limit(self):
        # rate * t overflows to inf; the terms used to be 0 * inf = nan.
        # The binomial count gives 0 there too.
        for j in (0, 1, 2, 5):
            assert count_cdf("poisson", 1e300, None, j, 1e10) == 0.0
        assert [count_cdf("binomial", 1e300, 3, j, 1e10) for j in range(5)] == [
            0.0, 0.0, 0.0, 1.0, 1.0,
        ]
        sig = exact_tsignature(load_fixture("bridge"))
        curve = survival_mixture(sig, "poisson", 1e300, [0.0, 1e-300, 1e10])
        assert curve[0] == 1.0 and curve[2] == 0.0
        assert all(map(math.isfinite, curve))

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_non_finite_rate(self, rate):
        sig = exact_tsignature(load_fixture("bridge"))
        for process, n in (("poisson", None), ("binomial", 3)):
            with pytest.raises(ValueError, match="finite"):
                count_cdf(process, rate, n, 0, 1.0)
            with pytest.raises(ValueError, match="finite"):
                survival_mixture(sig, process, rate, GRID)


class TestSurvivalMixture:
    def _sig(self, counts, total):
        return TSignature(
            n=len(counts), counts=counts, total=total, mode="exact", m_mode="exact-subset"
        )

    def test_series_poisson_closed_form(self):
        sig = exact_tsignature(load_fixture("series2"))
        curve = survival_mixture(sig, "poisson", 1.0, GRID)
        for t, s in zip(GRID, curve):
            assert abs(s - math.exp(-t)) < 1e-12

    def test_parallel_poisson_closed_form(self):
        sig = exact_tsignature(load_fixture("parallel2"))
        curve = survival_mixture(sig, "poisson", 1.0, GRID)
        for t, s in zip(GRID, curve):
            assert abs(s - math.exp(-t) * (1 + t)) < 1e-12

    def test_starts_at_one(self):
        for name in ("series2", "parallel2", "bridge", "triangle"):
            sig = exact_tsignature(load_fixture(name))
            curve = survival_mixture(sig, "poisson", 1.0, GRID)
            assert curve[0] == 1.0
        # ten counts of 1: the float sum of ten values 0.1 is 1 - 2**-53
        sig = self._sig((1,) * 10, 10)
        for process in PROCESSES:
            assert survival_mixture(sig, process, 1.0, GRID)[0] == 1.0

    def test_equals_per_count_sums_exactly(self):
        # Each P(N(t) <= j) re-summed from r = 0 in the same term order as
        # the running sum, so the curve must agree to the last bit.
        def cdf(process, rate, n, j, t):
            if t == 0:
                return 1.0
            if process == "poisson":
                term = total = math.exp(-rate * t)
                for r in range(1, j + 1):
                    term *= rate * t / r
                    total += term
                return min(total, 1.0)
            p = -math.expm1(-rate * t)
            q = 1.0 - p
            if j >= n or q == 0.0:
                return 1.0 if j >= n else 0.0
            return min(sum(math.comb(n, r) * p**r * q ** (n - r) for r in range(j + 1)), 1.0)

        grid = GRID + [9.5, 40.0, 800.0]  # exp(-800) underflows: q == 0
        for name in ("bridge", "figure1"):
            sig = exact_tsignature(load_fixture(name))
            for process, rate in (("poisson", 1.7), ("binomial", 0.9)):
                model = (process, rate, sig.n)
                curve = survival_mixture(sig, process, rate, grid)
                for t, s in zip(grid, curve):
                    expected = sum(
                        float(c) * cdf(*model, i, t) for i, c in enumerate(sig.counts) if c
                    ) / sig.total
                    assert s == expected, (name, process, t)
                    for j in range(sig.n + 1):
                        assert count_cdf(*model, j, t) == cdf(*model, j, t)

    @settings(max_examples=150, deadline=None)
    @given(
        counts=st.lists(
            st.one_of(st.just(0), st.integers(1, 10**6), st.integers(2**53, 2**70)),
            min_size=1, max_size=12,
        ).filter(any),
        binomial=st.booleans(),
        rate=st.floats(0.05, 5.0),
        times=st.lists(st.floats(0.0, 50.0), max_size=6),
    )
    @example(counts=[0, 0, 3, 0], binomial=False, rate=1.7, times=[1.0])
    @example(counts=[0, 0, 3, 0], binomial=True, rate=0.9, times=[1.0])
    @example(counts=[5], binomial=True, rate=1.0, times=[0.5])
    @example(counts=[2**60 + 1, 0, 2**53 + 1, 7, 0, 0], binomial=True, rate=2.0, times=[3.0])
    def test_kernel_matches_per_count_oracle(self, counts, binomial, rate, times):
        # Random count vectors, bit for bit against the per-count oracle; the
        # grid always holds t = 0 and t = 800, where q == 0.
        n, total = len(counts), sum(counts)
        sig = self._sig(tuple(counts), total)
        process = "binomial" if binomial else "poisson"
        model = (process, rate, n)
        grid = sorted({0.0, 800.0, *times})
        curve = survival_mixture(sig, process, rate, grid)
        for t, s in zip(grid, curve):
            assert s.hex() == oracle_survival(counts, total, *model, t).hex(), t
            for j in range(n + 3):
                assert count_cdf(*model, j, t).hex() == oracle_count_cdf(*model, j, t).hex(), (j, t)

    def test_non_increasing_both_models(self):
        sig = exact_tsignature(load_fixture("bridge"))
        for process, rate in (("poisson", 1.3), ("binomial", 0.8)):
            curve = survival_mixture(sig, process, rate, GRID)
            for a, b in zip(curve, curve[1:]):
                assert b <= a + 1e-15

    def test_matches_order_statistic_simulation(self):
        # classic signature + binomial model vs direct simulation of n i.i.d.
        # exponential lifetimes with failure at the signature-drawn order stat
        from netsig.engine import classic_signature

        net = load_fixture("bridge")
        sig = classic_signature(net)
        rng = random.Random(99)
        reps = 100_000
        checkpoints = [0.2, 0.5, 1.0, 2.0]
        curve = survival_mixture(sig, "binomial", 1.0, checkpoints)
        alive = [0] * len(checkpoints)
        values = sig.values
        for _ in range(reps):
            u = rng.random()
            acc = 0.0
            rank = net.n
            for i, v in enumerate(values):
                acc += v
                if u < acc:
                    rank = i + 1
                    break
            lifetimes = sorted(rng.expovariate(1.0) for _ in range(net.n))
            failure = lifetimes[rank - 1]
            for i, t in enumerate(checkpoints):
                if failure > t:
                    alive[i] += 1
        for i, t in enumerate(checkpoints):
            est = alive[i] / reps
            se = math.sqrt(max(est * (1 - est), 1e-12) / reps)
            assert abs(est - curve[i]) < 3 * se + 1e-9


class TestReliabilityCurve:
    """The time grid of a curve, checked by `survival_mixture` before the
    mixture pass."""

    @pytest.fixture(autouse=True)
    def no_mixture(self, monkeypatch):
        def fail(*args):
            raise AssertionError("mixture pass ran on a rejected grid")

        monkeypatch.setattr(reliability, "_mixture", fail)

    def _reject(self, grid, message):
        sig = exact_tsignature(load_fixture("bridge"))
        with pytest.raises(ValueError, match=message):
            survival_mixture(sig, "poisson", 1.0, grid)

    def test_rejects_descending_grid(self):
        self._reject([1.0, 0.5], "time grid must be ascending")

    def test_rejects_negative_times(self):
        self._reject([-1.0, 0.5], "time grid must be nonnegative")

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_times(self, t):
        self._reject([0.0, t], "time grid must be finite")
