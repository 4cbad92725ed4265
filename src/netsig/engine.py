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
from bisect import bisect_right
from itertools import islice, permutations
from operator import add, itemgetter

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

# Bytes the frontier DP's tables for one step and two steps of states may
# hold, counted by upper bounds.  No measured run's RSS grows by more than
# 0.8 of its bound: the 20-terminal star, whose bound peaks at 188 MiB, grows
# by 144 MiB and fits with room (README).
MEMORY_BUDGET = 576 << 20
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


def _order_m(bg: BitGraph, table: tuple, u: int, m_mode: str) -> int:
    """M of the failure order of rank u, `unrank_order(table, u)` for the
    table `build_stratum_table(bg.n)`, decoded block by block from the last
    inside the union pass that finds the fatal block, so the blocks before
    it are never placed.

    With m links unplaced, u below m * F(m-1) (row m-1's first entry) makes
    the last block one link; otherwise bisecting the row gives its size s.
    `divmod` by F(m-s) splits u into the colex rank of the block's links
    among the unplaced ones and the rank of the order of the rest.  A block
    of two links, most of the multi-link blocks of a sample, is decoded in
    place by the closed-form inverse of C(x, 2); `_take` decodes the larger.

    Removing links never reconnects the terminals, so the fatal block is the
    block whose links, added back from the last block to the first, join
    all terminals into one component: one union-find pass over the node
    indices, with no connectivity query.  The still-unplaced links are the
    removed ones, which keep the terminals connected, while removing the
    fatal block too disconnects them.  These are the fatal-block
    preconditions, so the block is scored by the unchecked cores
    (`_fatal_score`).  A one-link fatal block scores 1 in both m-modes: it
    lies on every remaining terminal path.
    """
    m = bg.n  # links not yet placed
    row = table[m - 1]
    if not 0 <= u < row[-1]:
        raise ValueError(f"order rank must lie in [0, {row[-1]}), got {u}")
    parent = bg.singletons.copy()
    has_terminal = bg.is_terminal.copy()
    parts = len(bg.terminal_indices)  # components holding a terminal, at least 2
    ends = bg.ends
    unplaced = list(range(1, m + 1))
    while True:
        if u < row[0]:
            # One link: `_join` inlined.  When m = 1 the rank is 0, and any
            # divisor gives (0, 0).
            c, u = divmod(u, table[m - 2][-1])
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
        else:
            s = bisect_right(row, u) + 1
            c, u = divmod(u - row[s - 2], table[m - s - 1][-1] if s < m else 1)
            if s == 2:
                # `_take` inlined: the positions x > y with c = C(x, 2) + y.
                x = (1 + math.isqrt(8 * c + 1)) // 2
                block = (unplaced.pop(x), unplaced.pop(c - x * (x - 1) // 2))
            else:
                block = _take(unplaced, s, c)
            m -= s
            before = parent[:]
            parts -= _join(parent, has_terminal, ends, block)
            if parts == 1:
                return m + _fatal_score(bg, before, block, unplaced, m_mode)
        row = table[m - 1]


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
    links, or the greedy count with the links `removed` before the block."""
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


def _over_budget(link: int, n: int) -> EnumerationCapError:
    return EnumerationCapError(f"the frontier program needs more than "
                               f"{MEMORY_BUDGET:,} bytes at link {link} of {n}; use sampling")


def _link_order(bg: BitGraph) -> list[int]:
    """The frontier DP's default link order, greedy: each step takes the
    link that opens the fewest non-terminal nodes net of those it closes,
    then the one that opens the fewest, then the lowest id."""
    terminals = set(bg.terminal_indices)
    opened = set()  # non-terminal nodes with a link taken
    left = [len(adjacent) for adjacent in bg.adj]  # links not yet taken, per node

    def cost(link):
        ends = [x for x in bg.ends[link] if x not in terminals]
        opens = sum(x not in opened for x in ends)
        return opens - sum(left[x] == 1 for x in ends), opens, link

    todo = set(range(1, bg.n + 1))
    order = []
    while todo:
        link = min(todo, key=cost)
        todo.remove(link)
        order.append(link)
        opened.update(x for x in bg.ends[link] if x not in terminals)
        for x in bg.ends[link]:
            left[x] -= 1
    return order


def _cut_dp(net: Network, classic: bool) -> tuple[int, ...]:
    """The exact-subset M histogram, every order counted through its (R, B)
    pair by a dynamic program over the links in frontier order, in this
    process.

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
    Once every node but the pinned one has closed, φ is the one value c*.

    Links are taken in the greedy `_link_order`; the counts do not depend
    on the order, only the state counts do.  The first terminal in `BitGraph`'s node numbering is
    pinned to side 0.
    The frontier lists the open nodes: every other terminal from the start,
    so that σ = 0 (all terminals on the pinned one's side) is held at ∞,
    and any other node from its first link.  Every node but the pinned one
    closes after its last link.  Bit p of a side assignment σ is the side
    of the node at position p.  A step builds the factor by which the
    link's new nodes repeat φ (they take the top positions), its crossing
    row (1 where σ puts its ends on different sides), its ∞ row, and one
    (σ with the bit 0, σ with the bit 1) getter pair per node it closes.
    It drops them once its states are built.

    A step is refused once its tables (up to 128 bytes per σ: 8 per row
    entry, 32 per ∞ int, 40 per getter index for two closed nodes), its
    parents' states and its own, by `state_bytes`, would pass
    `MEMORY_BUDGET`: before it allocates anything, and as its states grow.
    The first step's parents are the start state, not yet built.
    """
    n = net.n
    inf = n + 1
    # A polynomial is one integer: the number of labellings with r R-links
    # and b B-links sits in bits [width * (r * (most_b + 1) + b), +width).
    # No coefficient reaches 3^n, the count of all labellings.
    most_b = 1 if classic else n
    width = (3**n).bit_length()
    slot = (1 << width) - 1
    r_shift = width * (most_b + 1)
    b_room = sum(slot << r * r_shift << b * width for r in range(n + 1) for b in range(most_b))

    def state_bytes(link, entries):
        # φ: 40 + 8 per entry (+32 per int above the small-int cache); the
        # polynomial, r <= link: 24 + 4 per 30-bit digit; allocator rounding
        # 2 * 23; a dict entry while its table grows: 90.
        digits = -(-(r_shift * link + width) // 30)
        return (8 if inf <= 256 else 40) * entries + 4 * digits + 200

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

    bg = net.bitgraph
    pinned, *frontier = bg.terminal_indices
    terminals = {pinned, *frontier}
    left = [len(adjacent) for adjacent in bg.adj]  # links not yet taken, per node
    held = state_bytes(0, 1 << len(frontier))  # the parents' states
    for link, taken in enumerate(_link_order(bg), start=1):
        ends = bg.ends[taken]
        new = [x for x in ends if x != pinned and x not in frontier]
        frontier += new
        closing = [x for x in ends if x != pinned and left[x] == 1]
        for x in ends:
            left[x] -= 1
        size = state_bytes(link, 1 << len(frontier) - len(closing))
        limit = (MEMORY_BUDGET - (128 << len(frontier)) - held) // size
        if limit < 0:
            raise _over_budget(link, n)
        if link == 1:
            # σ = 0 keeps every terminal with the pinned one and never separates.
            states = {(inf,) + (0,) * ((1 << len(terminals) - 1) - 1): 1}
        bits = [0 if x == pinned else 1 << frontier.index(x) for x in ends]
        cross = tuple(
            (s & bits[0] > 0) ^ (s & bits[1] > 0) for s in range(1 << len(frontier))
        )
        closes = []
        for x in closing:
            p = frontier.index(x)
            frontier.remove(x)
            if p == len(frontier):
                # The top position: two halves, which stay tuples when the
                # last node closes.
                closes.append((itemgetter(slice(1 << p)), itemgetter(slice(1 << p, None))))
            else:
                low = (1 << p) - 1
                closes.append(tuple(
                    itemgetter(*(s & low | (s & ~low) << 1 | bit for s in range(1 << len(frontier))))
                    for bit in (0, 1 << p)
                ))
        step = (1 << len(new), cross, tuple(inf * c for c in cross), closes)
        merged: dict[tuple[int, ...], int] = {}
        get = merged.get
        for phi, poly in states.items():
            for kid, kid_poly in children(phi, poly, step):
                if kid_poly and min(kid) < inf:
                    merged[kid] = get(kid, 0) + kid_poly
            if len(merged) > limit:
                raise _over_budget(link, n)
        del step, cross, closes  # the next link builds its own tables
        states = merged
        held = len(states) * size

    by_cut: dict[int, int] = {}
    for phi, poly in states.items():
        c = min(phi)
        if 0 < c < inf:
            by_cut[c] = by_cut.get(c, 0) + poly
    weight = [math.factorial(k) for k in range(n + 1)] if classic else _fubini(n)
    counts = [0] * n
    for c, poly in by_cut.items():
        for r in range(n + 1):
            for b in range(most_b + 1):
                coeff = poly >> r * r_shift >> b * width & slot
                if coeff:
                    counts[r + c - 1] += coeff * weight[r] * weight[n - r - b]
    return tuple(counts)


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
        counts = _cut_dp(net, False)
    return TSignature(n=net.n, counts=counts, total=total, mode="exact", m_mode=m_mode)


def classic_signature(net: Network) -> TSignature:
    """Classic signature over the n! single-link permutations: counts[i-1]
    is the number of permutations whose i-th failure downs the network.

    A one-link fatal block lies on every remaining terminal path, so both
    m-modes score it 1 and the signature is recorded as exact-subset.  It
    runs the frontier DP in this process, refused above `MEMORY_BUDGET`."""
    return TSignature(
        n=net.n,
        counts=_cut_dp(net, True),
        total=math.factorial(net.n),
        mode="classic",
        m_mode="exact-subset",
    )
