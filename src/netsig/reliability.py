"""Reliability curves from signature mixtures.

The network survival probability is a mixture over the signature: the i-th
component is weighted by the probability that fewer than i links have failed
by time t.  Two counting models for the number of failed links ship: a
Poisson process (batch-failure shocks) and the binomial count arising from
n i.i.d. exponential link lifetimes (which recovers the classic
order-statistic mixture).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import TSignature


@dataclass(frozen=True)
class CountingModel:
    """Distribution of N(t), the number of links failed by time t.

    variant 'poisson': N(t) ~ Poisson(rate * t).
    variant 'binomial': N(t) ~ Binomial(n, F(t)) with exponential link
    lifetime CDF F(t) = 1 - exp(-rate * t).  Other lifetime CDFs can be
    added by extending _failure_probability.
    """

    variant: str
    rate: float
    n: int | None = None

    def __post_init__(self):
        if self.variant not in ("poisson", "binomial"):
            raise ValueError(f"unknown counting model {self.variant!r}")
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be finite and strictly positive")
        if self.variant == "binomial" and (self.n is None or self.n < 1):
            raise ValueError("binomial model requires the link count n")


def poisson_model(rate: float) -> CountingModel:
    return CountingModel(variant="poisson", rate=rate)


def binomial_model(n: int, rate: float) -> CountingModel:
    return CountingModel(variant="binomial", rate=rate, n=n)


def _failure_probability(model: CountingModel, t: float) -> float:
    """Exponential link lifetime CDF F(t)."""
    return -math.expm1(-model.rate * t)


def count_cdf(model: CountingModel, j: int, t: float) -> float:
    """P(N(t) <= j), summed term by term with positive terms only and the
    result clamped into [0, 1]."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 1.0
    if model.variant == "poisson":
        mean = model.rate * t
        term = math.exp(-mean)
        total = term
        for r in range(1, j + 1):
            term *= mean / r
            total += term
        return min(total, 1.0)
    n = model.n
    if j >= n:
        return 1.0
    p = _failure_probability(model, t)
    q = 1.0 - p
    if q == 0.0:
        return 0.0  # all links failed almost surely and j < n
    total = 0.0
    for r in range(0, j + 1):
        total += math.comb(n, r) * p**r * q ** (n - r)
    return min(total, 1.0)


@dataclass(frozen=True)
class ReliabilityCurve:
    """Survival probabilities P(T > t) on an ascending time grid."""

    times: tuple[float, ...]
    survival: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.survival):
            raise ValueError("times and survival must have equal length")
        if not all(map(math.isfinite, self.times)):
            raise ValueError("time grid must be finite")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("time grid must be ascending")
        if any(t < 0 for t in self.times):
            raise ValueError("time grid must be nonnegative")


def survival_mixture(
    sig: TSignature, model: CountingModel, grid
) -> ReliabilityCurve:
    """Mixture curve: P(T > t) = sum_i values[i] * P(N(t) <= i-1).

    With a classic signature and the binomial model this is the i.i.d.
    order-statistic representation; with a batch-failure signature and a
    Poisson model it is the shock-process representation.
    """
    if model.variant == "binomial" and model.n != sig.n:
        raise ValueError(
            f"binomial model n={model.n} does not match signature length {sig.n}"
        )
    # Integer counts are weighted first and divided once, so that the curve
    # is exactly 1 where every count_cdf is 1 (summing counts[i]/total can
    # miss 1 by an ulp).
    terms = [(i, float(c)) for i, c in enumerate(sig.counts) if c]
    times = tuple(float(t) for t in grid)
    survival = tuple(
        sum(c * count_cdf(model, i, t) for i, c in terms) / sig.total
        for t in times
    )
    return ReliabilityCurve(times=times, survival=survival)
