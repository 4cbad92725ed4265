"""Exact and classic signatures, by a frontier dynamic program.

`exact_tsignature` and `classic_signature` live here, with the program that
computes them, so that an exact-subset run compiles neither the engine nor
`combinatorics`.  `_cut_dp` counts both without visiting orders: it sums
over the (surviving set, fatal block) pairs of the links, labelled one link
at a time in the greedy `_link_order`, with the least cut cost per side
assignment of the frontier, less its minimum, as its state.  It runs in the
calling process and is refused before its tables and states would pass
`MEMORY_BUDGET`.  The paper-greedy and `order_limit` runs import their
order-based engine code when they run, and a sampled run never loads this
module.
"""

from __future__ import annotations

import math
from operator import add, itemgetter

from ._record import TSignature, _check_m_mode, _check_workers, _fubini
from .errors import EnumerationCapError

# Bytes the frontier DP's tables for one step and two steps of states may
# hold, counted by upper bounds.  Runs bounded at megabytes grow RSS by at
# most 0.8 of the bound: the 20-terminal star by 140 of 188 MiB and the 3x5
# grid by 4.8 of 12.6 MiB (README); below that, allocator arenas dominate.
MEMORY_BUDGET = 576 << 20


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
    the fatal block is one link: only there does a B successor drop terms.

    A state is φ, the least cost of the labelled links over the sides of the
    closed nodes for each side assignment σ of the frontier, less its
    minimum (∞ stays ∞); it maps each minimum taken off, an offset c, to a
    polynomial in (r, b).  R keeps φ, B adds 1 and S sets ∞ where the link
    crosses, and closing a node takes the minimum over its side.  A B or S
    successor then takes off its own minimum δ and adds δ to its offsets,
    or is dropped if δ = ∞: it never separates at finite cost.  Once every
    node but the pinned one has closed, φ is (0,) and each offset is c*.

    Links are taken in the greedy `_link_order`; the counts do not depend
    on the order, only the state counts do.  The first terminal in
    `BitGraph`'s node numbering is pinned to side 0.
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
    parents' states and its own, by `state_bytes` (a φ, and each offset
    with its polynomial), would pass `MEMORY_BUDGET`: before it allocates
    anything, and as its states merge.
    The first step's parents are the start state, not yet built.
    """
    n = net.n
    inf = n + 1  # ∞, above n, the largest finite cost
    # A polynomial is one integer: the number of labellings with r R-links
    # and b B-links sits in bits [width * (r * (most_b + 1) + b), +width).
    # No coefficient reaches 3^n, the count of all labellings.
    most_b = 1 if classic else n
    width = (3**n).bit_length()
    slot = (1 << width) - 1
    r_shift = width * (most_b + 1)
    # B keeps the terms with b < most_b: in t-signature mode every term, as b < link <= n.
    b_room = sum(slot << r * r_shift for r in range(n + 1)) if classic else -1

    def state_bytes(link, entries):
        # A φ: tuple 40 + 8 per shared int, dict entry 90, offset map at most
        # 168 + 56 per offset.  An offset: those 56, its key 32 and its
        # polynomial (r <= link) 24 + 4 per 30-bit digit.  Rounding 23 each.
        digits = -(-(r_shift * link + width) // 30)
        return 8 * entries + 321, 4 * digits + 135

    # shift[δ] takes δ off a cost <= n and caps the rest (to 2n + 2: ∞ + ∞) at ∞.
    shift = [(*range(-d, n + 1 - d), *(inf,) * (n + 2)).__getitem__ for d in range(n + 1)]

    bg = net.bitgraph
    pinned, *frontier = bg.terminal_indices
    terminals = {pinned, *frontier}
    left = [len(adjacent) for adjacent in bg.adj]  # links not yet taken, per node
    held = sum(state_bytes(0, 1 << len(frontier)))  # the parents' states
    for link, taken in enumerate(_link_order(bg), start=1):
        ends = bg.ends[taken]
        new = [x for x in ends if x != pinned and x not in frontier]
        frontier += new
        closing = [x for x in ends if x != pinned and left[x] == 1]
        for x in ends:
            left[x] -= 1
        phi_bytes, offset_bytes = state_bytes(link, 1 << len(frontier) - len(closing))
        if (room := MEMORY_BUDGET - (128 << len(frontier)) - held) < 0:
            raise _over_budget(link, n)
        if link == 1:
            # σ = 0 keeps every terminal with the pinned one and never separates.
            states = {(inf,) + (0,) * ((1 << len(terminals) - 1) - 1): {0: 1}}
        bits = [0 if x == pinned else 1 << frontier.index(x) for x in ends]
        cross = tuple((s & bits[0] > 0) ^ (s & bits[1] > 0) for s in range(1 << len(frontier)))
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
        grow, cut = 1 << len(new), tuple(inf * c for c in cross)
        merged, pairs = {}, 0  # φ -> {offset: polynomial}, and the offsets held
        for phi, offsets in states.items():
            phi *= grow
            for kid, kid_offsets in (
                (phi, {c: poly << r_shift for c, poly in offsets.items()}),
                (tuple(map(shift[0], map(add, phi, cross))),
                 {c: b_poly for c, poly in offsets.items() if (b_poly := (poly & b_room) << width)}),
                (tuple(map(shift[0], map(add, phi, cut))), offsets),
            ):
                for zero, one in closes:
                    kid = tuple(map(min, zero(kid), one(kid)))
                d = min(kid)
                if not kid_offsets or d == inf:
                    continue
                if d:
                    kid = tuple(map(shift[d], kid))
                    kid_offsets = {c + d: poly for c, poly in kid_offsets.items()}
                into = merged.setdefault(kid, kid_offsets)
                if into is not kid_offsets:
                    pairs -= len(into)
                    for c, poly in kid_offsets.items():
                        into[c] = into.get(c, 0) + poly
                pairs += len(into)
            if len(merged) * phi_bytes + pairs * offset_bytes > room:
                raise _over_budget(link, n)
        del cross, cut, closes  # the next link builds its own tables
        states, held = merged, len(merged) * phi_bytes + pairs * offset_bytes

    weight = [math.factorial(k) for k in range(n + 1)] if classic else _fubini(n)
    counts = [0] * n
    for c, poly in states[0,].items():  # φ = (0,) at the end
        for r in range(n + 1):
            for b in range(most_b + 1):
                coeff = poly >> r * r_shift >> b * width & slot
                if coeff and c:
                    counts[r + c - 1] += coeff * weight[r] * weight[n - r - b]
    return tuple(counts)


def exact_tsignature(net: Network, m_mode: str = "exact-subset", workers: int = 1,
                     order_limit: int | None = None) -> TSignature:
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
    if order_limit is None and m_mode == "exact-subset":
        counts = _cut_dp(net, False)
    else:
        from .engine import GREEDY_MAX_LINKS, _count_pairs, _run_histogram, _stream_orders

        if order_limit is not None:
            counts = _run_histogram(net, workers, _stream_orders, m_mode, order_limit)
        elif net.n > GREEDY_MAX_LINKS:
            raise EnumerationCapError(f"{net.n} links is above the paper-greedy "
                                      f"limit of {GREEDY_MAX_LINKS} links; use sampling")
        else:
            counts = _run_histogram(net, workers, _count_pairs)
    total = min(_fubini(net.n)[-1], order_limit or math.inf)  # n*: a refusal never needs it
    return TSignature(n=net.n, counts=counts, total=total, mode="exact", m_mode=m_mode)


def classic_signature(net: Network) -> TSignature:
    """Classic signature over the n! single-link permutations: counts[i-1]
    is the number of permutations whose i-th failure downs the network.

    A one-link fatal block lies on every remaining terminal path, so both
    m-modes score it 1 and the signature is recorded as exact-subset.  It
    runs the frontier DP in this process, refused above `MEMORY_BUDGET`."""
    return TSignature(n=net.n, counts=_cut_dp(net, True), total=math.factorial(net.n),
                      mode="classic", m_mode="exact-subset")
