"""Failure-signature engine.

Scores failure orders by M, the minimum number of link failures at which the
network goes down when the order's blocks fail left to right, and aggregates
a histogram of M over the full order space (exact mode) or over the n!
single-link permutations (classic mode).  M depends on an order only through
its surviving set R and first fatal block B, so both histograms are sums over
(R, B) pairs, each weighted by the number of orders that share it.

Only the histogram is ever stored: counts are exact integers, merged by
addition, so parallel runs are bit-identical to single-worker runs.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice, permutations

from ._bitgraph import TABLE_MAX_LINKS, BitGraph
from .combinatorics import (
    FailureOrder,
    check_failure_order,
    iter_base_partitions,
    n_star,
)
from .errors import EnumerationCapError, UnsupportedModeError
from .graph import Network

# Enumeration guards.  The exact sum visits up to 3^n (surviving set, fatal
# block) pairs, 531,441 at 12 links (under a second); each added link triples
# that.  The classic sum visits the 2^n surviving sets, and above
# TABLE_MAX_LINKS every connectivity query becomes a breadth-first search.
DEFAULT_EXACT_CAP = 12
DEFAULT_CLASSIC_CAP = TABLE_MAX_LINKS

M_MODES = ("exact-subset", "paper-greedy")
SIGNATURE_MODES = ("exact", "classic", "sampled")


@dataclass(frozen=True)
class TSignature:
    """Histogram of M normalized to a probability vector.

    counts[i-1] is the exact number of scored orders with M=i; total is the
    order count (exact mode), n! (classic mode) or the sample size (sampled
    mode); values is the floating projection counts/total.
    """

    n: int
    counts: tuple[int, ...]
    total: int
    mode: str
    m_mode: str

    def __post_init__(self):
        if len(self.counts) != self.n:
            raise ValueError("counts length must equal the link count")
        if sum(self.counts) != self.total:
            raise ValueError("counts must sum to total")
        if self.mode not in SIGNATURE_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {SIGNATURE_MODES}"
            )
        if self.m_mode not in M_MODES:
            raise ValueError(f"unknown m_mode {self.m_mode!r}; expected one of {M_MODES}")

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.counts)


@dataclass(frozen=True)
class SampledTSignature(TSignature):
    """TSignature plus per-component binomial standard errors."""

    std_error: tuple[float, ...] = ()


@dataclass(frozen=True)
class MResult:
    order: FailureOrder
    M: int


def _check_m_mode(net: Network, m_mode: str) -> None:
    if m_mode not in M_MODES:
        raise ValueError(f"unknown m_mode {m_mode!r}; expected one of {M_MODES}")
    if m_mode == "paper-greedy" and len(net.terminals) != 2:
        raise UnsupportedModeError(
            "paper-greedy M is two-terminal only; use exact-subset"
        )


def _order_m(bg: BitGraph, order, m_mode: str, cache: dict | None) -> int:
    """M for one failure order: full sizes of the surviving prefix blocks
    plus the minimum (or greedy) count inside the first fatal block."""
    removed = 0
    m = 0
    for block in order:
        block_mask = 0
        for link in block:
            block_mask |= 1 << (link - 1)
        if bg.connected(removed | block_mask):
            removed |= block_mask
            m += len(block)
        else:
            if m_mode == "paper-greedy":
                return m + bg.greedy_count(removed, block_mask)
            return m + bg.min_subset_size(removed, tuple(sorted(block)), cache)
    raise AssertionError("removing every link must disconnect a valid network")


def calculate_m(net: Network, order: FailureOrder, m_mode: str = "exact-subset") -> MResult:
    """Score one failure order against the network."""
    check_failure_order(order, net.n)
    _check_m_mode(net, m_mode)
    bg = BitGraph(net, build_table=False)
    return MResult(order=order, M=_order_m(bg, order, m_mode, None))


def _bits(mask: int):
    """The single-bit masks of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _subsets(mask: int):
    """The nonempty subsets of `mask` in ascending order, so that every
    B - e comes before B."""
    block = 0
    while block != mask:
        block = (block - mask) & mask
        yield block


def _count_pairs(bg, n, worker_id, workers, counts, m_mode, classic) -> None:
    """Add every order to the M histogram through its (R, B) pair: R the
    links of the surviving prefix blocks, B the first fatal block.

    All w(|R|) * w(n - |R| - |B|) orders with that pair have M = |R| + f(R, B);
    w(k) counts the ways to arrange k links into a sequence of blocks: Fubini
    numbers, or factorials in classic mode, where every block is one link.
    """
    arrangements = math.factorial if classic else n_star
    weight = [1] + [arrangements(k) for k in range(1, n + 1)]
    full = (1 << n) - 1
    not_fatal = n + 1
    fatal = [not_fatal] * (1 << n)  # f(R, B) by B, for the current R
    for surviving in range(worker_id, full + 1, workers):
        if not bg.connected(surviving):
            continue
        r = surviving.bit_count()
        free = full ^ surviving
        for block in _bits(free) if classic else _subsets(free):
            if bg.connected(surviving | block):
                fatal[block] = not_fatal
                continue
            size = block.bit_count()
            if m_mode == "paper-greedy":
                f = bg.greedy_count(surviving, block)
            else:
                # f(B) = min(|B|, min_e f(B - e)), B - e already scored
                f = fatal[block] = min(size, *(fatal[block ^ low] for low in _bits(block)))
            counts[r + f - 1] += weight[r] * weight[n - r - size]


def _stream_orders(bg, n, worker_id, workers, counts, m_mode, order_limit) -> None:
    """Score the first `order_limit` orders of the canonical stream one by
    one; worker w takes the base partitions with index % workers == w."""
    cache: dict = {}
    offset = 0  # global stream position, tracked identically in every worker
    for index, blocks in enumerate(iter_base_partitions(n)):
        if offset >= order_limit:
            break
        if index % workers == worker_id:
            for order in islice(permutations(blocks), order_limit - offset):
                counts[_order_m(bg, order, m_mode, cache) - 1] += 1
        offset += math.factorial(len(blocks))


def _histogram_worker(args):
    net, fill, worker_id, workers, extra = args
    bg = BitGraph(net, build_table=True)
    counts = [0] * net.n
    fill(bg, net.n, worker_id, workers, counts, *extra)
    return counts


def _run_histogram(net, workers, fill, *extra) -> tuple[int, ...]:
    """Run `fill(bg, n, worker_id, workers, counts, *extra)` once per worker,
    in this process for one worker and in a process pool otherwise, and
    merge the per-worker histograms by integer addition."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    jobs = [(net, fill, worker_id, workers, extra) for worker_id in range(workers)]
    if workers == 1:
        results = [_histogram_worker(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_histogram_worker, jobs))
    return tuple(map(sum, zip(*results)))


def exact_tsignature(
    net: Network,
    m_mode: str = "exact-subset",
    max_links: int = DEFAULT_EXACT_CAP,
    workers: int = 1,
    order_limit: int | None = None,
) -> TSignature:
    """Exact batch-failure signature over all n* failure orders.

    Deterministic and independent of `workers` (per-worker histograms merge
    by exact integer addition).  The full run sums over (surviving set,
    fatal block) pairs instead of visiting orders; `order_limit` instead
    scores the first orders of the canonical enumeration stream one by one
    (partial histogram, used for consistency checks).
    """
    _check_m_mode(net, m_mode)
    if net.n > max_links:
        raise EnumerationCapError(
            f"{net.n} links means up to {3 ** net.n:,} (surviving set, fatal block) "
            f"pairs; raise max_links to opt in, or use sampling"
        )
    if order_limit is None:
        counts = _run_histogram(net, workers, _count_pairs, m_mode, False)
        total = n_star(net.n)
    else:
        counts = _run_histogram(net, workers, _stream_orders, m_mode, order_limit)
        total = min(order_limit, n_star(net.n))
    return TSignature(n=net.n, counts=counts, total=total, mode="exact", m_mode=m_mode)


def classic_signature(
    net: Network,
    m_mode: str = "exact-subset",
    max_links: int = DEFAULT_CLASSIC_CAP,
    workers: int = 1,
) -> TSignature:
    """Classic signature over the n! single-link permutations: counts[i-1]
    is the number of permutations whose i-th failure downs the network."""
    _check_m_mode(net, m_mode)
    if net.n > max_links:
        raise EnumerationCapError(
            f"{net.n} links means {2 ** net.n:,} surviving sets; raise max_links to opt in"
        )
    counts = _run_histogram(net, workers, _count_pairs, m_mode, True)
    return TSignature(
        n=net.n,
        counts=counts,
        total=math.factorial(net.n),
        mode="classic",
        m_mode=m_mode,
    )
