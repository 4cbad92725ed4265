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
import operator
from itertools import islice

from ._record import Record
from .engine import TSignature


class CountingModel(Record):
    """Distribution of N(t), the number of links failed by time t.

    variant 'poisson': N(t) ~ Poisson(rate * t).
    variant 'binomial': N(t) ~ Binomial(n, F(t)) with exponential link
    lifetime CDF F(t) = 1 - exp(-rate * t).
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


def count_cdf(model: CountingModel, j: int, t: float) -> float:
    """P(N(t) <= j), summed term by term with positive terms only and the
    result clamped into [0, 1]."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    return _mixture(model, (0,) * j + (1,), 1, (t,))[0]


def _mixture(model: CountingModel, weights, divisor: int, times) -> list[float]:
    """[sum_j weights[j] * P(N(t) <= j) / divisor for t in times], one pass.

    For each time point the Poisson terms exp(-mean) * prod(mean / r) or the
    binomial terms comb(n, r) * p**r * q**(n - r) are added in one running
    sum; each partial sum, clamped to 1, is P(N(t) <= r), and the weighted
    sum over the nonzero weights is divided once.  An infinite Poisson mean
    gives the limit 0 for every P(N(t) <= j); from j = n on the binomial
    P(N(t) <= j) is 1.
    """
    last = max(j for j, c in enumerate(weights) if c)
    ws = [float(c) for c in weights[: last + 1]]
    survival = []
    append = survival.append
    rate = model.rate
    if model.variant == "poisson":
        head = ws[0]
        steps = list(enumerate(ws[1:], start=1))
        for t in times:
            mean = rate * t
            if mean == math.inf:
                append(0.0)
                continue
            # exp(-mean) <= 1 needs no clamp; head * s is 0.0 for a zero head
            term = s = math.exp(-mean)
            acc = head * s
            for r, c in steps:
                term *= mean / r
                s += term
                if c:
                    acc += c * (1.0 if s > 1.0 else s)
            append(acc / divisor)
    else:
        n = model.n
        steps = [(math.comb(n, r), r, n - r, c) for r, c in enumerate(ws[:n])]
        beyond_n = [c for c in ws[n:] if c]
        for t in times:
            p = -math.expm1(-rate * t)
            q = 1.0 - p
            s = acc = 0.0
            for k, r, rest, c in steps:
                s += k * p**r * q**rest
                if c:
                    acc += c * (1.0 if s > 1.0 else s)
            for c in beyond_n:
                acc += c  # times P(N(t) <= j) = 1
            append(acc / divisor)
    return survival


def survival_mixture(sig: TSignature, model: CountingModel, grid) -> list[float]:
    """Mixture curve: P(T > t) = sum_i values[i] * P(N(t) <= i-1) for each t
    of `grid`, a finite, ascending and nonnegative sequence of times.

    With a classic signature and the binomial model this is the i.i.d.
    order-statistic representation; with a batch-failure signature and a
    Poisson model it is the shock-process representation.  The whole grid
    is one pass of the mixture kernel over the integer counts, divided once
    by the total, so the curve is exactly 1 where every P(N(t) <= j) is 1
    (summing counts[i]/total can miss 1 by an ulp).
    """
    if model.variant == "binomial" and model.n != sig.n:
        raise ValueError(
            f"binomial model n={model.n} does not match signature length {sig.n}"
        )
    if not all(map(math.isfinite, grid)):
        raise ValueError("time grid must be finite")
    if any(map(operator.gt, grid, islice(grid, 1, None))):
        raise ValueError("time grid must be ascending")
    if grid and grid[0] < 0:
        raise ValueError("time grid must be nonnegative")
    return _mixture(model, sig.counts, sig.total, grid)
