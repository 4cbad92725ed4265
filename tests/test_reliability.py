import hashlib
import math
import random
import struct
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from netsig import exact_tsignature, reliability
from netsig.engine import TSignature
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
        from netsig import classic_signature

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


class TestPinnedCurves:
    # SHA-256 of the little-endian doubles of figure1's curves at 2,001
    # points, recorded before the kernel's constants became floats: the
    # bits of every curve below the subnormal Poisson start stay as they were.
    @pytest.mark.parametrize("process, tmax, digest", [
        ("poisson", 16.0, "93a31d5cfb6c0330b1ae4eb40c59bf6fc4f78848492dd61277d0864889592d18"),
        ("binomial", 3.0, "c57febb9d34fc8aefced525b5e79c9065d45d8a7e9ba4cfc9fc0bdd82402a031"),
    ])
    def test_figure1_curve_bits(self, process, tmax, digest):
        sig = exact_tsignature(load_fixture("figure1"))
        grid = [tmax * i / 2000 for i in range(2001)]
        curve = survival_mixture(sig, process, 1.0, grid)
        assert hashlib.sha256(struct.pack(f"<{len(curve)}d", *curve)).hexdigest() == digest


class TestLargeCounts:
    """Poisson means whose exp(-mean) is not a normal float, and binomial
    link counts whose C(n, r) passes the largest float, against scipy."""

    @pytest.mark.parametrize("mean", [744.0, 750.0, 1000.0])
    def test_poisson_cdf_past_the_normal_floats(self, mean):
        stats = pytest.importorskip("scipy.stats")
        m = int(mean)
        for j in (0, 1, 10, m - 100, m - 30, m, m + 30, m + 49, m + 100, 2 * m, 10**6):
            expect = stats.poisson.cdf(j, mean)
            got = count_cdf("poisson", 1.0, None, j, mean)
            assert math.isclose(got, expect, rel_tol=1e-9, abs_tol=1e-300), j
            assert got == count_cdf("poisson", 2.0, None, j, mean / 2)  # the mean alone
            assert got.hex() == oracle_count_cdf("poisson", 1.0, None, j, mean).hex()
        # 0.0 at the parent, which started the sum at exp(-750) == 0.0
        assert math.isclose(count_cdf("poisson", 1.0, None, 799, 750.0), 0.96360549088474,
                            rel_tol=1e-12)

    def test_poisson_start_moves_only_past_the_normal_floats(self):
        # Below a mean of about 708.4 the sum starts from exp(-mean), bit for
        # bit the running product; above, it starts from the logarithms.
        for mean in (700.0, 708.39, 708.4, 720.0, 745.2):
            for j in (0, 5, 600, 700, 710, 800):
                term = total = math.exp(-mean)
                for r in range(1, j + 1):
                    term *= mean / r
                    total += term
                got = count_cdf("poisson", 1.0, None, j, mean)
                if math.exp(-mean) >= sys.float_info.min:
                    assert got.hex() == min(total, 1.0).hex(), (mean, j)
                assert got.hex() == oracle_count_cdf("poisson", 1.0, None, j, mean).hex()

    def test_poisson_curve_of_800_links(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(800)
        counts = tuple(rng.randrange(10**6) if i > 300 else 0 for i in range(800))
        sig = TSignature(n=800, counts=counts, total=sum(counts), mode="exact",
                         m_mode="exact-subset")
        grid = [0.0, 100.0, 500.0, 700.0, 708.0, 709.0, 720.0, 744.0, 750.0, 780.0, 800.0, 900.0]
        curve = survival_mixture(sig, "poisson", 1.0, grid)
        cdf = [stats.poisson.cdf(range(800), t) for t in grid]
        for t, s, row in zip(grid, curve, cdf):
            expect = sum(c * p for c, p in zip(counts, row)) / sig.total
            assert math.isclose(s, expect, rel_tol=1e-9, abs_tol=1e-300), t
            assert s.hex() == oracle_survival(counts, sig.total, "poisson", 1.0, 800, t).hex()
        assert curve[0] == 1.0 and curve[-4] > 0.1  # 0.0 at the parent from t = 745.2 on

    def test_binomial_past_the_largest_float(self):
        stats = pytest.importorskip("scipy.stats")
        n = 1_100
        rng = random.Random(1_100)
        counts = tuple(rng.randrange(10**6) for _ in range(n))
        sig = TSignature(n=n, counts=counts, total=sum(counts), mode="exact",
                         m_mode="exact-subset")
        grid = [0.0, 1e-300, 0.001, 0.1, 0.5, 0.69, 1.0, 2.0, 5.0, 8.0, 800.0]
        curve = survival_mixture(sig, "binomial", 1.0, grid)
        for t, s in zip(grid, curve):
            p = -math.expm1(-t)
            row = stats.binom.cdf(range(n), n, p)
            expect = sum(c * x for c, x in zip(counts, row)) / sig.total
            assert math.isclose(s, expect, rel_tol=1e-9, abs_tol=1e-300), t
            for j in (0, 3, 400, 549, 760, n - 1):
                assert math.isclose(count_cdf("binomial", 1.0, n, j, t), row[j],
                                    rel_tol=1e-9, abs_tol=1e-300), (t, j)
        assert curve[0] == curve[1] == 1.0


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
