import math
import random

import pytest

from netsig.engine import TSignature, exact_tsignature
from netsig.fixtures import load_fixture
from netsig.reliability import (
    ReliabilityCurve,
    binomial_model,
    count_cdf,
    poisson_model,
    survival_mixture,
)

GRID = [i / 25 for i in range(101)]  # 0 .. 4


class TestCountCdf:
    def test_poisson_j0(self):
        model = poisson_model(1.0)
        assert math.isclose(count_cdf(model, 0, 1.0), math.exp(-1), rel_tol=1e-12)

    def test_t_zero_is_one(self):
        for model in (poisson_model(2.0), binomial_model(5, 1.0)):
            for j in (0, 1, 4):
                assert count_cdf(model, j, 0.0) == 1.0

    def test_binomial_closed_form(self):
        # n=2, exponential(1): P(N(1) <= 1) = 1 - F(1)^2
        model = binomial_model(2, 1.0)
        f1 = 1 - math.exp(-1)
        assert math.isclose(count_cdf(model, 1, 1.0), 1 - f1 * f1, rel_tol=1e-12)

    def test_bounds(self):
        rng = random.Random(0)
        for model in (poisson_model(0.7), binomial_model(9, 1.3)):
            for _ in range(200):
                j = rng.randrange(0, 12)
                t = rng.random() * 50
                p = count_cdf(model, j, t)
                assert 0.0 <= p <= 1.0

    def test_rejects_negative_args(self):
        model = poisson_model(1.0)
        with pytest.raises(ValueError):
            count_cdf(model, -1, 1.0)
        with pytest.raises(ValueError):
            count_cdf(model, 0, -0.5)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            poisson_model(0.0)
        with pytest.raises(ValueError):
            binomial_model(0, 1.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="finite"):
            poisson_model(rate)
        with pytest.raises(ValueError, match="finite"):
            binomial_model(3, rate)


class TestSurvivalMixture:
    def _sig(self, counts, total):
        return TSignature(
            n=len(counts), counts=counts, total=total, mode="exact", m_mode="exact-subset"
        )

    def test_series_poisson_closed_form(self):
        sig = exact_tsignature(load_fixture("series2"))
        curve = survival_mixture(sig, poisson_model(1.0), GRID)
        for t, s in zip(curve.times, curve.survival):
            assert abs(s - math.exp(-t)) < 1e-12

    def test_parallel_poisson_closed_form(self):
        sig = exact_tsignature(load_fixture("parallel2"))
        curve = survival_mixture(sig, poisson_model(1.0), GRID)
        for t, s in zip(curve.times, curve.survival):
            assert abs(s - math.exp(-t) * (1 + t)) < 1e-12

    def test_starts_at_one(self):
        for name in ("series2", "parallel2", "bridge", "triangle"):
            sig = exact_tsignature(load_fixture(name))
            curve = survival_mixture(sig, poisson_model(1.0), GRID)
            assert curve.survival[0] == 1.0
        # ten counts of 1: the float sum of ten values 0.1 is 1 - 2**-53
        sig = self._sig((1,) * 10, 10)
        for model in (poisson_model(1.0), binomial_model(10, 1.0)):
            assert survival_mixture(sig, model, GRID).survival[0] == 1.0

    def test_equals_per_count_sums_exactly(self):
        # Each P(N(t) <= j) re-summed from r = 0 in the same term order as
        # the running sum, so the curve must agree to the last bit.
        def cdf(model, j, t):
            if t == 0:
                return 1.0
            if model.variant == "poisson":
                term = total = math.exp(-model.rate * t)
                for r in range(1, j + 1):
                    term *= model.rate * t / r
                    total += term
                return min(total, 1.0)
            n, p = model.n, -math.expm1(-model.rate * t)
            q = 1.0 - p
            if j >= n or q == 0.0:
                return 1.0 if j >= n else 0.0
            return min(sum(math.comb(n, r) * p**r * q ** (n - r) for r in range(j + 1)), 1.0)

        grid = GRID + [9.5, 40.0, 800.0]  # exp(-800) underflows: q == 0
        for name in ("bridge", "figure1"):
            sig = exact_tsignature(load_fixture(name))
            for model in (poisson_model(1.7), binomial_model(sig.n, 0.9)):
                curve = survival_mixture(sig, model, grid)
                for t, s in zip(curve.times, curve.survival):
                    expected = sum(
                        float(c) * cdf(model, i, t) for i, c in enumerate(sig.counts) if c
                    ) / sig.total
                    assert s == expected, (name, model.variant, t)
                    for j in range(sig.n + 1):
                        assert count_cdf(model, j, t) == cdf(model, j, t)

    def test_non_increasing_both_models(self):
        sig = exact_tsignature(load_fixture("bridge"))
        for model in (poisson_model(1.3), binomial_model(5, 0.8)):
            curve = survival_mixture(sig, model, GRID)
            for a, b in zip(curve.survival, curve.survival[1:]):
                assert b <= a + 1e-15

    def test_length_mismatch_rejected(self):
        sig = exact_tsignature(load_fixture("bridge"))
        with pytest.raises(ValueError):
            survival_mixture(sig, binomial_model(4, 1.0), GRID)

    def test_matches_order_statistic_simulation(self):
        # classic signature + binomial model vs direct simulation of n i.i.d.
        # exponential lifetimes with failure at the signature-drawn order stat
        from netsig.engine import classic_signature

        net = load_fixture("bridge")
        sig = classic_signature(net)
        model = binomial_model(net.n, 1.0)
        rng = random.Random(99)
        reps = 100_000
        checkpoints = [0.2, 0.5, 1.0, 2.0]
        curve = survival_mixture(sig, model, checkpoints)
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
            assert abs(est - curve.survival[i]) < 3 * se + 1e-9


class TestReliabilityCurve:
    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError):
            ReliabilityCurve(times=(1.0, 0.5), survival=(1.0, 1.0))

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            ReliabilityCurve(times=(-1.0, 0.5), survival=(1.0, 1.0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ReliabilityCurve(times=(0.0, 0.5), survival=(1.0,))

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_times(self, t):
        with pytest.raises(ValueError, match="finite"):
            ReliabilityCurve(times=(0.0, t), survival=(1.0, 1.0))
