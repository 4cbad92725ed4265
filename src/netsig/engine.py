"""Failure-signature engine.

Scores failure orders by M, the minimum number of link failures at which the
network goes down when the order's blocks fail left to right, and aggregates
a histogram of M over the full order space (exact mode) or over the n!
single-link permutations (classic mode).  M depends on an order only through
its surviving set R and first fatal block B, so both histograms are sums over
(R, B) pairs, each weighted by the number of orders that share it.  With the
exact fatal-block minimum that sum is a frontier dynamic program over the
links (`_cut_dp`); the path-order dependent greedy count visits the pairs.

Only the histogram is ever stored: counts are exact integers, merged by
addition, so parallel runs are bit-identical to single-worker runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import islice, permutations
from operator import add, itemgetter

from ._bitgraph import BitGraph
from .combinatorics import (
    FailureOrder,
    check_failure_order,
    iter_base_partitions,
    n_star,
)
from .errors import EnumerationCapError, UnsupportedModeError
from .graph import Network

# Link-count guards.  The frontier DP's cost follows the width of the link
# order's frontier rather than the link count (figure2, 11 links: 0.01 s; the
# 26-link EON classic signatures: 0.1-0.2 s), so these caps are conservative.
DEFAULT_EXACT_CAP = 12
DEFAULT_CLASSIC_CAP = 16

# State guard of the frontier DP, whose memory follows its state count (the
# distinct φ of a step): the EON t-signature passes 100,000 states at link 17
# of 26 after 3 s and 210 MB; the EON classic signatures peak at 1,676.
MAX_DP_STATES = 100_000

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
        if self.total < 1 or min(self.counts) < 0:
            raise ValueError("counts must be nonnegative with a positive total")
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


def _order_m(bg: BitGraph, blocks, perm: int | None, m_mode: str, cache: dict | None) -> int:
    """M for one failure order: full sizes of the surviving prefix blocks
    plus the minimum (or greedy) count inside the first fatal block.

    `blocks` are the order's blocks, in order when `perm` is None.
    Otherwise they are a base partition in a list, and `perm` is a
    block-permutation rank: the order is the one `unrank_order` builds, and
    its Fisher-Yates swaps are done here, from the last position down, so
    each position is final when it is reached and the swaps stop at the
    fatal block.  (`perm` == 0 is not the identity: every swap then goes to
    position 0.)  The list is permuted in place.

    Removing links never reconnects the terminals, so the fatal block is the
    block whose links, added back from the last block to the first, join
    all terminals into one component: one union-find pass over the node
    indices, with no connectivity query.  The blocks before it are the
    removed links, which keep the terminals connected, while removing the
    fatal block too disconnects them.  These are the fatal-block
    preconditions, so the block is scored by the unchecked cores: a
    one-link block scores 1, a larger one the min cut `_block_cut` finds on
    the union-find forest as it stood before the block's own unions, or
    through `cache` (see `_min_subset_size`); the greedy count and the
    cache take the removal masks, built from the final positions.
    """
    parent = list(range(len(bg.adj)))
    has_terminal = bg.is_terminal.copy()
    parts = len(bg.terminal_indices)  # components holding a terminal
    if parts < 2:
        raise AssertionError("removing every link must disconnect a valid network")
    ends = bg.ends
    cut = m_mode == "exact-subset" and cache is None  # scored from `before`
    kept = 0  # links kept, counted on the `cut` path only
    for i in range(len(blocks) - 1, -1, -1):
        if perm is None:
            block = blocks[i]
        else:
            perm, j = divmod(perm, i + 1)
            block = blocks[j]
            blocks[j] = blocks[i]
            blocks[i] = block
        if cut:
            size = len(block)
            kept += size
            if size > 1:
                before = parent[:]
        for link in block:
            a, b = ends[link]
            while a != parent[a]:
                parent[a] = a = parent[parent[a]]
            while b != parent[b]:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                if has_terminal[a]:
                    if has_terminal[b]:
                        parts -= 1
                    else:
                        has_terminal[b] = True
        if parts == 1:
            break
    else:
        raise AssertionError("the links of every block must join the terminals")
    if cut:
        if size == 1:
            return bg.n - kept + 1
        return bg.n - kept + bg._block_cut(before, block)
    # Positions 0..i-1 hold the removed blocks, in some order.
    bits = bg.bits
    block_mask = removed_mask = 0
    for link in block:
        block_mask |= bits[link]
    for t in range(i):
        for link in blocks[t]:
            removed_mask |= bits[link]
    removed = removed_mask.bit_count()
    if m_mode == "paper-greedy":
        return removed + bg._greedy_count(removed_mask, block_mask)
    if len(block) == 1:
        return removed + 1
    return removed + bg._min_subset_size(removed_mask, block_mask, cache)


def calculate_m(net: Network, order: FailureOrder, m_mode: str = "exact-subset") -> MResult:
    """Score one failure order against the network."""
    check_failure_order(order, net.n)
    _check_m_mode(net, m_mode)
    bg = BitGraph(net, build_table=False)
    return MResult(order=order, M=_order_m(bg, order, None, m_mode, None))


def _cut_schedule(net: Network, inf: int):
    """The frontier DP's first state and its steps, one per link.

    Links are taken in a greedy order: each step takes the link that opens
    the fewest non-terminal nodes net of those it closes (a node is open
    from its first link to its last), then the one that opens the fewest,
    then the first.  The frontier lists the open nodes and every terminal
    but one, which is pinned to side 0; bit p of a side assignment σ is the
    side of the node at position p.  A step holds the factor by which the
    link's new nodes repeat φ (they take the top positions), its crossing
    row (1 where σ puts its ends on different sides), its ∞ row, and one
    (σ with the bit 0, σ with the bit 1) getter pair per node it closes.
    """
    index = {label: i for i, label in enumerate(net.nodes)}
    links = [(index[a], index[b]) for _, a, b in net.links]
    pinned, *frontier = sorted(index[t] for t in net.terminals)
    terminals = {pinned, *frontier}
    left = [0] * len(net.nodes)
    for a, b in links:
        left[a] += 1
        left[b] += 1

    def cost(i):
        ends = [x for x in links[i] if x not in terminals]
        opened = sum(x not in frontier for x in ends)
        return opened - sum(left[x] == 1 for x in ends), opened, i

    # σ = 0 keeps every terminal with the pinned one and never separates.
    start = (inf,) + (0,) * ((1 << len(frontier)) - 1)
    steps = []
    todo = set(range(len(links)))
    while todo:
        i = min(todo, key=cost)
        todo.remove(i)
        new = [x for x in links[i] if x != pinned and x not in frontier]
        frontier += new
        bits = [0 if x == pinned else 1 << frontier.index(x) for x in links[i]]
        cross = tuple(
            (s & bits[0] > 0) ^ (s & bits[1] > 0) for s in range(1 << len(frontier))
        )
        closes = []
        for x in links[i]:
            left[x] -= 1
            if not left[x] and x not in terminals:
                p = frontier.index(x)
                frontier.remove(x)
                low = (1 << p) - 1
                zero = [s & low | (s & ~low) << 1 for s in range(1 << len(frontier))]
                closes.append((itemgetter(*zero), itemgetter(*(s | 1 << p for s in zero))))
        steps.append((1 << len(new), cross, tuple(inf * c for c in cross), closes))
    return start, steps


def _cut_dp(net: Network, worker_id: int, workers: int, counts: list, classic: bool) -> None:
    """Add every order to the exact-subset M histogram through its (R, B)
    pair, by a dynamic program over the links in frontier order.

    Each link is labelled R (in the surviving set, cut cost 0), B (in the
    fatal block, cost 1) or S (fails later, cost ∞).  Let c* be the least
    cost of a cut separating the terminals.  (R, B) is a valid pair iff
    0 < c* < ∞, and then the fatal-block minimum is c*, so its
    w(r) * w(n - r - b) orders score M = r + c*; w counts the sequences of
    blocks on k links: Fubini numbers, or factorials in classic mode, where
    the fatal block is one link.

    A state is φ, the least cost of the labelled links over the sides of the
    closed nodes, for each side assignment σ of the frontier; it carries a
    polynomial in (r, b).  R keeps φ, B adds 1 and S sets ∞ where the link
    crosses, and closing a node takes the minimum over its side.  States
    with φ = ∞ everywhere never separate at finite cost and are dropped.
    Worker w takes the labellings of the first links whose base-3 index
    (R=0, B=1, S=2) is w modulo `workers`.
    """
    n = net.n
    inf = n + 1
    start, steps = _cut_schedule(net, inf)
    # A polynomial is one integer: the number of labellings with r R-links
    # and b B-links sits in bits [width * (r * (most_b + 1) + b), +width).
    # No coefficient reaches 3^n, the count of all labellings.
    most_b = 1 if classic else n
    width = (3**n).bit_length()
    slot = (1 << width) - 1
    r_shift = width * (most_b + 1)
    b_room = sum(slot << r * r_shift << b * width for r in range(n + 1) for b in range(most_b))

    def children(phi, poly, step):
        """The R, B and S successors of one state, in that order."""
        grow, cross, cut, closes = step
        phi *= grow
        kids = (
            (phi, poly << r_shift),
            (tuple(map(min, map(add, phi, cross), (inf,) * len(phi))), (poly & b_room) << width),
            (tuple(map(max, phi, cut)), poly),
        )
        for kid, kid_poly in kids:
            for zero, one in closes:
                kid = tuple(map(min, zero(kid), one(kid)))
            yield kid, kid_poly

    split = 0
    while 3**split < workers and split < n:
        split += 1
    paths = [(start, 1)]
    for step in steps[:split]:
        paths = [kid for phi, poly in paths for kid in children(phi, poly, step)]
    states: dict[tuple[int, ...], int] = {}
    for phi, poly in paths[worker_id::workers]:
        states[phi] = states.get(phi, 0) + poly
    for link, step in enumerate(steps[split:], start=split + 1):
        merged: dict[tuple[int, ...], int] = {}
        get = merged.get
        for phi, poly in states.items():
            for kid, kid_poly in children(phi, poly, step):
                if kid_poly and min(kid) < inf:
                    merged[kid] = get(kid, 0) + kid_poly
            if len(merged) > MAX_DP_STATES:
                raise EnumerationCapError(
                    f"the frontier program passed {MAX_DP_STATES:,} states at link "
                    f"{link} of {n}; use sampling"
                )
        states = merged

    by_cut: dict[int, int] = {}
    for phi, poly in states.items():
        c = min(phi)
        if 0 < c < inf:
            by_cut[c] = by_cut.get(c, 0) + poly
    arrangements = math.factorial if classic else n_star
    weight = [1] + [arrangements(k) for k in range(1, n + 1)]
    for c, poly in by_cut.items():
        for r in range(n + 1):
            for b in range(most_b + 1):
                coeff = poly >> r * r_shift >> b * width & slot
                if coeff:
                    counts[r + c - 1] += coeff * weight[r] * weight[n - r - b]


def _subsets(mask: int):
    """The nonempty subsets of `mask` in ascending order."""
    block = 0
    while block != mask:
        block = (block - mask) & mask
        yield block


def _count_pairs(net, worker_id, workers, counts) -> None:
    """Add every order to the paper-greedy M histogram through its (R, B)
    pair: R the links of the surviving prefix blocks, B the first fatal
    block.  All Fub(|R|) * Fub(n - |R| - |B|) orders with that pair have
    M = |R| + the greedy count at B.  Worker w takes the surviving sets
    whose mask is w modulo `workers`."""
    bg = BitGraph(net, build_table=True)
    n = net.n
    weight = [1] + [n_star(k) for k in range(1, n + 1)]
    full = (1 << n) - 1
    for surviving in range(worker_id, full + 1, workers):
        if not bg.connected(surviving):
            continue
        r = surviving.bit_count()
        for block in _subsets(full ^ surviving):
            if not bg.connected(surviving | block):
                f = bg._greedy_count(surviving, block)
                counts[r + f - 1] += weight[r] * weight[n - r - block.bit_count()]


def _stream_orders(net, worker_id, workers, counts, m_mode, order_limit) -> None:
    """Score the first `order_limit` orders of the canonical stream one by
    one; worker w takes the base partitions with index % workers == w.
    Only the greedy count queries the connectivity table."""
    bg = BitGraph(net, build_table=m_mode == "paper-greedy")
    cache: dict = {}
    offset = 0  # global stream position, tracked identically in every worker
    for index, blocks in enumerate(iter_base_partitions(net.n)):
        if offset >= order_limit:
            break
        if index % workers == worker_id:
            for order in islice(permutations(blocks), order_limit - offset):
                counts[_order_m(bg, order, None, m_mode, cache) - 1] += 1
        offset += math.factorial(len(blocks))


def _histogram_worker(args):
    net, fill, worker_id, workers, extra = args
    counts = [0] * net.n
    fill(net, worker_id, workers, counts, *extra)
    return counts


def _run_histogram(net, workers, fill, *extra) -> tuple[int, ...]:
    """Run `fill(net, worker_id, workers, counts, *extra)` once per worker,
    in this process for one worker and in a process pool otherwise, and
    merge the per-worker histograms by integer addition."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    jobs = [(net, fill, worker_id, workers, extra) for worker_id in range(workers)]
    if workers == 1:
        results = [_histogram_worker(jobs[0])]
    else:
        # Imported here: the pool pulls in multiprocessing, which a
        # one-worker run never needs.
        from concurrent.futures import ProcessPoolExecutor

        # Still `workers` jobs, so the counts do not depend on the pool size.
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
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
    fatal block) pairs instead of visiting orders: by the frontier DP for
    exact-subset M, pair by pair for paper-greedy M.  `order_limit` instead
    scores the first orders of the canonical enumeration stream one by one
    (partial histogram, used for consistency checks).
    """
    _check_m_mode(net, m_mode)
    if order_limit is not None and order_limit < 1:
        raise ValueError(f"order_limit must be >= 1, got {order_limit}")
    if net.n > max_links:
        raise EnumerationCapError(
            f"{net.n} links is above the exact-signature cap of {max_links}; "
            f"raise max_links to opt in, or use sampling"
        )
    total = n_star(net.n)
    if order_limit is not None:
        counts = _run_histogram(net, workers, _stream_orders, m_mode, order_limit)
        total = min(order_limit, total)
    elif m_mode == "paper-greedy":
        counts = _run_histogram(net, workers, _count_pairs)
    else:
        counts = _run_histogram(net, workers, _cut_dp, False)
    return TSignature(n=net.n, counts=counts, total=total, mode="exact", m_mode=m_mode)


def classic_signature(
    net: Network,
    m_mode: str = "exact-subset",
    max_links: int = DEFAULT_CLASSIC_CAP,
    workers: int = 1,
) -> TSignature:
    """Classic signature over the n! single-link permutations: counts[i-1]
    is the number of permutations whose i-th failure downs the network.

    Both m-modes give the same counts: a one-link fatal block lies on every
    remaining terminal path, so the greedy count is 1 as well.  Both run the
    frontier DP."""
    _check_m_mode(net, m_mode)
    if net.n > max_links:
        raise EnumerationCapError(
            f"{net.n} links is above the classic-signature cap of {max_links}; "
            f"raise max_links to opt in"
        )
    counts = _run_histogram(net, workers, _cut_dp, True)
    return TSignature(
        n=net.n,
        counts=counts,
        total=math.factorial(net.n),
        mode="classic",
        m_mode=m_mode,
    )
