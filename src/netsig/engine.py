"""Failure-signature engine.

Scores failure orders by M, the minimum number of link failures at which the
network goes down when the order's blocks fail left to right, and aggregates
a histogram of M over the full order space (exact mode) or over the n!
single-link permutations (classic mode).  M depends on an order only through
its surviving set R and first fatal block B, so both histograms are sums over
(R, B) pairs, each weighted by the number of orders that share it.  With the
exact fatal-block minimum that sum is a frontier dynamic program over the
links (`frontier._cut_dp`, imported only when an exact-subset or classic
signature runs, so that a sampled run never compiles it); the path-order
dependent greedy count visits the pairs.  The sampler's scorer,
`_order_m`, lives here too, with the union-find cores it shares with the
order stream.

Only the histogram is ever stored: counts are exact integers, merged by
addition, so parallel runs are bit-identical to single-worker runs.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from itertools import islice, permutations

from ._bitgraph import BitGraph
# SIGNATURE_MODES is not used here: it stays a name of netsig.engine.
from ._record import M_MODES, SIGNATURE_MODES, TSignature  # noqa: F401
from .combinatorics import (
    FailureOrder,
    _fubini,
    _take,
    check_failure_order,
    iter_base_partitions,
    n_star,
)
from .errors import EnumerationCapError, UnsupportedModeError

# The paper-greedy t-signature visits up to 3^n (R, B) pairs.
GREEDY_MAX_LINKS = 12
# A run builds one job per worker before any work starts.
MAX_WORKERS = 1024


def _check_m_mode(net: Network, m_mode: str) -> None:
    if m_mode not in M_MODES:
        raise ValueError(f"unknown m_mode {m_mode!r}; expected one of {M_MODES}")
    if m_mode == "paper-greedy" and len(net.terminals) != 2:
        raise UnsupportedModeError(
            "paper-greedy M is two-terminal only; use exact-subset"
        )


def _check_workers(workers: int) -> None:
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be >= 1 and <= {MAX_WORKERS}, got {workers}")


def _rank_constants(table: tuple) -> tuple:
    """What `_order_m` decodes ranks with, built once per run from the table
    `build_stratum_table(n)`: `ones[m]`, for m = 1..n links unplaced, holds
    m * F(m-1), the ranks whose last block is one link, and F(m-1); the
    table, read for a multi-link last block; `fubini`, [F(0), ..., F(n)];
    and `links`, the link ids 1..n, which each order copies."""
    fubini = [1, *(row[-1] for row in table)]
    ones = [None, *((row[0], fubini[m - 1]) for m, row in enumerate(table, start=1))]
    return ones, table, fubini, list(range(1, len(table) + 1))


def _order_m(bg: BitGraph, constants: tuple, u: int, m_mode: str) -> int:
    """M of the failure order of rank u, `unrank_order(table, u)` for the
    table `build_stratum_table(bg.n)` whose `_rank_constants` are given,
    decoded block by block from the last inside the union pass that finds
    the fatal block, so the blocks before it are never placed.

    With m links unplaced, u below m * F(m-1) makes the last block one
    link, in an inner loop that reads only `ones[m]`; u below row m-1's
    second entry makes it two links, decoded in place by the closed-form
    inverse of C(x, 2); otherwise bisecting the row gives its size s and
    `_take` decodes it.  `divmod` by F(m-s) splits u into the colex rank of
    the block's links among the unplaced ones and the rank of the rest.

    Removing links never reconnects the terminals, so the fatal block is the
    first whose links, added back from the last block, join all terminals
    into one component.  A one-link fatal block scores 1 in both m-modes: it
    lies on every remaining terminal path.  A two-link block is scored from
    the roots of its link ends, found before any union: with two terminal
    components left, a link that alone joins them makes it fatal, of minimum
    1 + (both links alone join), as removing one leaves the other; else its
    links are unioned, and if they join the terminals, neither alone does:
    it scores 1.  Both m-modes agree on a pair: the greedy count lies
    between 1 and the minimum, and if both links alone join the two terminal
    components, a simple terminal path crosses between them once, so each
    greedy pass deletes one.  A larger block copies the forest before its
    union; if fatal, it meets the preconditions of `_fatal_score`'s cores.
    """
    ones, table, fubini, links = constants
    m = bg.n  # links not yet placed
    if not 0 <= u < fubini[m]:
        raise ValueError(f"order rank must lie in [0, {fubini[m]}), got {u}")
    parent = bg.singletons.copy()
    has_terminal = bg.is_terminal.copy()
    parts = len(bg.terminal_indices)  # components holding a terminal, at least 2
    ends = bg.ends
    unplaced = links.copy()
    one, below = ones[m]
    while True:
        while u < one:
            # One link: `_join` inlined.  When m = 1 the rank is 0, and
            # F(0) = 1 gives (0, 0).
            c, u = divmod(u, below)
            m -= 1
            a, b = ends[unplaced.pop(c)]
            while a != parent[a]:
                parent[a] = a = parent[parent[a]]
            while b != parent[b]:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                if has_terminal[a]:
                    if has_terminal[b]:
                        parts -= 1
                        if parts == 1:
                            return m + 1
                    else:
                        has_terminal[b] = True
            one, below = ones[m]
        row = table[m - 1]
        if u < row[1]:
            # Two links: `_take` inlined, positions x > y, c = C(x, 2) + y.
            c, u = divmod(u - one, fubini[m - 2])
            m -= 2
            x = (1 + math.isqrt(8 * c + 1)) // 2
            high, low = unplaced.pop(x), unplaced.pop(c - x * (x - 1) // 2)
            (a, b), (c, d) = ends[high], ends[low]
            while a != parent[a]:
                parent[a] = a = parent[parent[a]]
            while b != parent[b]:
                parent[b] = b = parent[parent[b]]
            while c != parent[c]:
                parent[c] = c = parent[parent[c]]
            while d != parent[d]:
                parent[d] = d = parent[parent[d]]
            if parts == 2:
                joins_high = a != b and has_terminal[a] and has_terminal[b]
                joins_low = c != d and has_terminal[c] and has_terminal[d]
                if joins_high or joins_low:
                    return m + 1 + (joins_high and joins_low)
            if a != b:
                parent[a] = b
                if has_terminal[a]:
                    parts -= has_terminal[b]  # never to 1: no link alone joins
                    has_terminal[b] = True
                c, d = (b if c == a else c), (b if d == a else d)  # a's root is b
            if c != d:
                parent[c] = d
                if has_terminal[c]:
                    parts -= has_terminal[d]
                    if parts == 1:
                        return m + 1
                    has_terminal[d] = True
        else:
            s = bisect_right(row, u) + 1
            c, u = divmod(u - row[s - 2], fubini[m - s])
            m -= s
            block = _take(unplaced, s, c)
            before = parent[:]
            parts -= _join(parent, has_terminal, ends, block)
            if parts == 1:
                return m + _fatal_score(bg, before, block, unplaced, m_mode)
        one, below = ones[m]


def _join(parent: list, has_terminal: list, ends: list, block) -> int:
    """Union the ends of the block's links in the forest `parent`
    (compressed in place); the number of merges of two components that
    both hold a terminal."""
    merged = 0
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
                    merged += 1
                else:
                    has_terminal[b] = True
    return merged


def _fatal_score(bg: BitGraph, before: list, block, removed, m_mode: str) -> int:
    """The minimum (or greedy) count of a multi-link fatal block: the min
    cut `_block_cut` finds on `before`, the forest of the later blocks'
    links, or the greedy count with the links `removed` before the block.
    `_order_m` scores a two-link block itself, in both m-modes."""
    if m_mode == "exact-subset":
        return bg._block_cut(before, block)
    bits = bg.bits
    block_mask = sum(bits[link] for link in block)
    return bg._greedy_count(sum(bits[link] for link in removed), block_mask)


def _blocks_m(bg: BitGraph, blocks, m_mode: str) -> int:
    """M of the failure order `blocks`, listed: the union pass of
    `_order_m` over the given blocks, from the last to the first."""
    parent = bg.singletons.copy()
    has_terminal = bg.is_terminal.copy()
    parts = len(bg.terminal_indices)
    m = bg.n
    for i in range(len(blocks) - 1, -1, -1):
        block = blocks[i]
        m -= len(block)
        if len(block) > 1:
            before = parent[:]
        parts -= _join(parent, has_terminal, bg.ends, block)
        if parts == 1:
            if len(block) == 1:
                return m + 1
            return m + _fatal_score(bg, before, block, [x for b in blocks[:i] for x in b], m_mode)
    raise AssertionError("the links of every block must join the terminals")


def calculate_m(net: Network, order: FailureOrder, m_mode: str = "exact-subset") -> int:
    """M of one failure order on the network."""
    check_failure_order(order, net.n)
    _check_m_mode(net, m_mode)
    return _blocks_m(net.bitgraph, order, m_mode)


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
    weight = _fubini(n)
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
    """Score the first `order_limit` orders of the canonical stream; worker
    w takes the base partitions with index % workers == w.

    An order's M depends only on its fatal block B and the set L of blocks
    after it, so a base partition of k blocks whose k! orders all fall
    inside the limit is a sum over (L, B) pairs, each weighted by the
    |L|! (k - |L| - 1)! orders that put B just before L.  Each L has a
    union-find forest of its links, whose components holding a terminal
    tell whether L joins the terminals and, for L and B, whether B is
    fatal; B is scored on L's forest as in `_blocks_m`.  The partition the
    limit cuts is scored order by order.
    """
    bg = net.bitgraph
    offset = 0  # global stream position, tracked identically in every worker
    for index, blocks in enumerate(iter_base_partitions(net.n)):
        if offset >= order_limit:
            break
        start = offset
        k = len(blocks)
        offset += math.factorial(k)
        if index % workers != worker_id:
            continue
        if offset > order_limit:
            for order in islice(permutations(blocks), order_limit - start):
                counts[_blocks_m(bg, order, m_mode) - 1] += 1
            continue
        # forests[L], L a bit set of block indices: (parent, has_terminal,
        # parts, link count) of L's links, each the forest of L minus its
        # lowest block with that block joined into a copy.
        forests = [(bg.singletons, bg.is_terminal, len(bg.terminal_indices), 0)]
        for later in range(1, 1 << k):
            low = later & -later
            parent, has_terminal, parts, size = forests[later ^ low]
            parent, has_terminal = parent.copy(), has_terminal.copy()
            block = blocks[low.bit_length() - 1]
            parts -= _join(parent, has_terminal, bg.ends, block)
            forests.append((parent, has_terminal, parts, size + len(block)))
        for later, (parent, _, parts, size) in enumerate(forests):
            if parts == 1:
                continue
            placed = later.bit_count()
            weight = math.factorial(placed) * math.factorial(k - placed - 1)
            for b, block in enumerate(blocks):
                if later >> b & 1 or forests[later | 1 << b][2] > 1:
                    continue
                m = net.n - size - len(block)
                if len(block) == 1:
                    m += 1
                else:
                    removed = (x for i, other in enumerate(blocks)
                               if not (later | 1 << b) >> i & 1 for x in other)
                    m += _fatal_score(bg, parent, block, removed, m_mode)
                counts[m - 1] += weight


def _histogram_worker(args):
    net, fill, worker_id, workers, extra = args
    counts = [0] * net.n
    fill(net, worker_id, workers, counts, *extra)
    return counts


def _run_histogram(net, workers, fill, *extra) -> tuple[int, ...]:
    """Run `fill(net, worker_id, workers, counts, *extra)` once per worker,
    in this process for one worker and in a process pool otherwise, and
    merge the per-worker histograms by integer addition."""
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
    workers: int = 1,
    order_limit: int | None = None,
) -> TSignature:
    """Exact batch-failure signature over all n* failure orders.

    The full run sums over (surviving set, fatal block) pairs instead of
    visiting orders: by the frontier DP for exact-subset M, in this
    process, and pair by pair for paper-greedy M.  `order_limit` instead
    scores the first orders of the canonical enumeration stream (partial
    histogram, used for consistency checks), each base partition summed
    over its (later blocks, fatal block) pairs.  `workers` splits the
    paper-greedy pairs and the stream's partitions; the result does not
    depend on it (per-worker histograms merge by exact integer addition).
    """
    _check_m_mode(net, m_mode)
    _check_workers(workers)
    if order_limit is not None and order_limit < 1:
        raise ValueError(f"order_limit must be >= 1, got {order_limit}")
    total = n_star(net.n)
    if order_limit is not None:
        counts = _run_histogram(net, workers, _stream_orders, m_mode, order_limit)
        total = min(order_limit, total)
    elif m_mode == "paper-greedy":
        if net.n > GREEDY_MAX_LINKS:
            raise EnumerationCapError(f"{net.n} links is above the paper-greedy "
                                      f"limit of {GREEDY_MAX_LINKS} links; use sampling")
        counts = _run_histogram(net, workers, _count_pairs)
    else:
        from .frontier import _cut_dp

        counts = _cut_dp(net, False)
    return TSignature(n=net.n, counts=counts, total=total, mode="exact", m_mode=m_mode)


def classic_signature(net: Network) -> TSignature:
    """Classic signature over the n! single-link permutations: counts[i-1]
    is the number of permutations whose i-th failure downs the network.

    A one-link fatal block lies on every remaining terminal path, so both
    m-modes score it 1 and the signature is recorded as exact-subset.  It
    runs the frontier DP in this process, refused above
    `frontier.MEMORY_BUDGET`."""
    from .frontier import _cut_dp

    return TSignature(
        n=net.n,
        counts=_cut_dp(net, True),
        total=math.factorial(net.n),
        mode="classic",
        m_mode="exact-subset",
    )
