"""Reliability curves from signature mixtures.

The network survival probability is a mixture over the signature: the i-th
component is weighted by the probability that fewer than i links have failed
by time t.  Two counting processes for the number of failed links ship,
named in `PROCESSES`: a Poisson process (batch-failure shocks) and the
binomial count arising from n i.i.d. exponential link lifetimes (which
recovers the classic order-statistic mixture).  A process is its name and
a link failure rate; the binomial n is the signature's length.  The CLI
runs the kernel of a large curve on contiguous slices of its time grid, one
per process, each point as in one pass.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import islice

from ._record import PROCESSES

# exp(-mean) is below the smallest normal float from a Poisson mean of about
# 708.4 on, and 0.0 from about 745.1.
_SMALLEST_NORMAL = sys.float_info.min


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
    [0, 1].  The Poisson sum is `_mixture`'s, from the same start, and
    stops once a term underflows to 0.0, after which the partial sum no
    longer moves."""
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
    s = 0.0
    for term in islice(_poisson_terms(mean), j + 1):
        s += term
    return 1.0 if s > 1.0 else s


def _poisson_terms(mean: float):
    """Yield the Poisson terms exp(-mean) * mean**r / r! of a finite mean
    for r = 0, 1, ... by the kernel's `term *= mean / r`, up to the first
    that underflows to 0.0.  Where exp(-mean) is subnormal or zero (a mean
    above about 708.4) the product would lose every bit it starts from, so
    the terms are taken from their logarithms until one is a normal float,
    and the product starts there."""
    term = math.exp(-mean)
    r = 0
    if term < _SMALLEST_NORMAL:
        log_mean = math.log(mean)
        while True:
            term = math.exp(r * log_mean - mean - math.lgamma(r + 1.0))
            if term >= _SMALLEST_NORMAL:
                break
            yield term
            r += 1
    while term:
        yield term
        r += 1
        term *= mean / r


def _mixture(process: str, rate: float, n: int, weights, divisor: int, times) -> list[float]:
    """[sum_j weights[j] * P(N(t) <= j) / divisor for t in times], one pass.

    For each time point the Poisson terms exp(-mean) * prod(mean / r) or the
    binomial terms comb(n, r) * p**r * q**(n - r) are added in one running
    sum; each partial sum, clamped to 1, is P(N(t) <= r), and the weighted
    sum over the nonzero weights is divided once.  The step constants are
    converted to floats once, which leaves the bits of the int arithmetic.  An
    infinite Poisson mean gives the limit 0 for every P(N(t) <= j), and a
    mean whose exp(-mean) is not a normal float starts its terms from their
    logarithms (`_poisson_terms`).  When some comb(n, r) is past the
    largest float (n above about 1,030), every binomial term is
    exp(log comb(n, r) + r log p + (n - r) log q) with log q = -rate * t.
    From j = n on the binomial P(N(t) <= j) is 1.  Each point reads only its
    own time, so the CLI runs this kernel on contiguous slices of a large
    grid, one per process (`netsig._parts`), and joins the same bits.
    """
    last = max(j for j, c in enumerate(weights) if c)
    ws = [float(c) for c in weights[: last + 1]]
    survival = []
    append = survival.append
    if process == "poisson":
        head = ws[0]
        steps = [(float(r), c) for r, c in enumerate(ws[1:], start=1)]
        for t in times:
            mean = rate * t
            if mean == math.inf:
                append(0.0)
                continue
            term = s = math.exp(-mean)
            if term < _SMALLEST_NORMAL:
                terms = _poisson_terms(mean)
                s = acc = 0.0
                for c in ws:
                    s += next(terms, 0.0)
                    if c:
                        acc += c * (1.0 if s > 1.0 else s)
                append(acc / divisor)
                continue
            # exp(-mean) <= 1 needs no clamp; head * s is 0.0 for a zero head
            acc = head * s
            for r, c in steps:
                term *= mean / r
                s += term
                if c:
                    acc += c * (1.0 if s > 1.0 else s)
            append(acc / divisor)
    else:
        beyond_n = [c for c in ws[n:] if c]
        try:
            steps = [(float(math.comb(n, r)), float(r), float(n - r), c)
                     for r, c in enumerate(ws[:n])]
            logs = False
        except OverflowError:
            steps = [(math.log(math.comb(n, r)), float(r), float(n - r), c)
                     for r, c in enumerate(ws[:n])]
            logs = True
        for t in times:
            log_q = -rate * t
            p = -math.expm1(log_q)
            s = acc = 0.0
            if logs:
                # log 0 is taken as the least finite float, so that 0 * log_p
                # is 0, not nan.
                log_p = math.log(p) if p else -sys.float_info.max
                for log_k, r, rest, c in steps:
                    s += math.exp(log_k + r * log_p + rest * log_q)
                    if c:
                        acc += c * (1.0 if s > 1.0 else s)
            else:
                q = 1.0 - p
                for k, r, rest, c in steps:
                    s += k * p**r * q**rest
                    if c:
                        acc += c * (1.0 if s > 1.0 else s)
            for c in beyond_n:
                acc += c  # times P(N(t) <= j) = 1
            append(acc / divisor)
    return survival


def _check_curve(sig: TSignature, process: str, rate: float, grid) -> None:
    """Raise ValueError unless `survival_mixture` takes these arguments."""
    _check_process(process, rate, sig.n)
    if not all(map(math.isfinite, grid)):
        raise ValueError("time grid must be finite")
    if any(map(operator.gt, grid, islice(grid, 1, None))):
        raise ValueError("time grid must be ascending")
    if grid and grid[0] < 0:
        raise ValueError("time grid must be nonnegative")


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
    _check_curve(sig, process, rate, grid)
    return _mixture(process, rate, sig.n, sig.counts, sig.total, grid)
