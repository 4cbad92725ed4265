"""Reliability curves from signature mixtures.

The network survival probability is a mixture over the signature: the i-th
component is weighted by the probability that fewer than i links have failed
by time t.  Two counting processes for the number of failed links ship,
named in `PROCESSES`: a Poisson process (batch-failure shocks) and the
binomial count arising from n i.i.d. exponential link lifetimes (which
recovers the classic order-statistic mixture).  A process is its name and
a link failure rate; the binomial n is the signature's length.
"""

from __future__ import annotations

import math
import operator
from itertools import islice

from .engine import TSignature


# N(t) is Poisson(rate * t) for "poisson" and Binomial(n, 1 - exp(-rate * t))
# for "binomial".
PROCESSES = ("poisson", "binomial")


def _check_process(process: str, rate: float, n: int | None) -> None:
    if process not in PROCESSES:
        raise ValueError(f"unknown counting model {process!r}")
    if not 0 < rate < math.inf:
        raise ValueError("rate must be finite and strictly positive")
    if process == "binomial" and (n is None or n < 1):
        raise ValueError("binomial model requires the link count n")


def count_cdf(process: str, rate: float, n: int | None, j: int, t: float) -> float:
    """P(N(t) <= j) for the counting process `process` of link failure rate
    `rate` over n links (n is read by the binomial process only), summed
    term by term with positive terms only and the result clamped into
    [0, 1].  The Poisson sum is `_mixture`'s, stopped once a term
    underflows to 0.0, after which the partial sum no longer moves."""
    _check_process(process, rate, n)
    if j < 0:
        raise ValueError("j must be >= 0")
    if not t >= 0:
        raise ValueError("t must be >= 0")
    if process == "binomial":
        if j >= n:
            return 1.0  # at most n links fail
        return _mixture(process, rate, n, (0,) * j + (1,), 1, (t,))[0]
    mean = rate * t
    if mean == math.inf:
        return 0.0
    term = s = math.exp(-mean)
    r = 0
    while r < j and term:
        r += 1
        term *= mean / r
        s += term
    return 1.0 if s > 1.0 else s


def _mixture(process: str, rate: float, n: int, weights, divisor: int, times) -> list[float]:
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
    if process == "poisson":
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


def survival_mixture(sig: TSignature, process: str, rate: float, grid) -> list[float]:
    """Mixture curve: P(T > t) = sum_i values[i] * P(N(t) <= i-1) for each t
    of `grid`, a finite, ascending and nonnegative sequence of times, with
    N(t) counted by `process` at link failure rate `rate` over the sig.n
    links.

    With a classic signature and the binomial process this is the i.i.d.
    order-statistic representation; with a batch-failure signature and a
    Poisson process it is the shock-process representation.  The whole grid
    is one pass of the mixture kernel over the integer counts, divided once
    by the total, so the curve is exactly 1 where every P(N(t) <= j) is 1
    (summing counts[i]/total can miss 1 by an ulp).
    """
    _check_process(process, rate, sig.n)
    if not all(map(math.isfinite, grid)):
        raise ValueError("time grid must be finite")
    if any(map(operator.gt, grid, islice(grid, 1, None))):
        raise ValueError("time grid must be ascending")
    if grid and grid[0] < 0:
        raise ValueError("time grid must be nonnegative")
    return _mixture(process, rate, sig.n, sig.counts, sig.total, grid)
