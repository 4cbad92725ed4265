"""Order-based signature engine.

Scores failure orders by M, the minimum number of link failures at which the
network goes down when the order's blocks fail left to right.  M depends on
an order only through its surviving set R and first fatal block B.  The
exact-subset signatures need no order: `frontier.exact_tsignature` and
`frontier.classic_signature` run a frontier dynamic program, and import
this module only for the order-based runs, the paper-greedy t-signature
over the (R, B) pairs (`_count_pairs`) and the first orders of the
canonical stream (`_stream_orders`), both split by `_run_histogram` into
forked parts (`netsig._parts`).  The sampler's scorer, `_order_m`, lives
here too, with the union-find cores it shares with the order stream.

Only the histogram is ever stored: counts are exact integers, merged by
addition, so parallel runs are bit-identical to single-worker runs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import islice, permutations

from ._bitgraph import BitGraph
# All but `_check_m_mode` are not used here: they stay names of netsig.engine.
from ._record import M_MODES, MAX_WORKERS, SIGNATURE_MODES, TSignature, _check_m_mode  # noqa: F401
from .combinatorics import FailureOrder, _fubini, _take, check_failure_order, iter_base_partitions

# The paper-greedy t-signature visits up to 3^n (R, B) pairs.
GREEDY_MAX_LINKS = 12


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
    whose mask is w modulo `workers`.  The greedy count lies between 1 and
    the minimum: a one-link block scores 1, and a two-link block 2 iff each
    link alone leaves the terminals connected, read from the table, as then
    every simple terminal path uses one of them.  Only larger blocks search."""
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
                size = block.bit_count()
                if size == 1:
                    f = 1
                elif size == 2:
                    low = block & -block
                    f = 1 + (bg.connected(surviving | low) and bg.connected(surviving | block ^ low))
                else:
                    f = bg._greedy_count(surviving, block)
                counts[r + f - 1] += weight[r] * weight[n - r - size]


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


def _run_histogram(net, workers, fill, *extra) -> tuple[int, ...]:
    """Run `fill(net, worker_id, workers, counts, *extra)` for every worker
    id, in this process for one worker and otherwise in parts
    (`netsig._parts`), part p filling ids p, p + parts, ... into one
    histogram, and merge the histograms by integer addition."""
    def part(p, parts):
        counts = [0] * net.n
        for worker_id in range(p, workers, parts):
            fill(net, worker_id, workers, counts, *extra)
        return counts

    if workers == 1:
        histograms = [part(0, 1)]
    else:
        from ._parts import run

        histograms = run(part, workers)
    return tuple(map(sum, zip(*histograms)))
