"""Exact combinatorics of link-failure orders.

A failure order is an ordered set partition of the link ids {1..n}: links in
the same block fail together, blocks fail left to right.  One recurrence,
recomputed on each call, counts the orders: F(m), the Fubini number of m
links, sums C(m, s)*F(m-s) over the size s of the last block, and n* = F(n).
It is `_record._fubini`, so the exact programs count orders without this module.
A table of its terms, the orders by the size of their last block, unranks
them: every integer below n* names one order, decoded from its last block to
its first, so one uniform integer below n* is one uniform order.  The module
also enumerates the orders lazily in a fixed canonical order, walking the set
partitions block by block and permuting the blocks of each.

All counts are exact Python integers; the order count for n=26 has 31 digits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from itertools import accumulate, permutations

from ._record import _fubini

# A block is an ascending tuple of link ids; a failure order is a sequence of
# disjoint nonempty blocks covering {1..n}.
Block = tuple[int, ...]
FailureOrder = tuple[Block, ...]


def n_star(n: int) -> int:
    """The number of failure orders of n links, the ordered Bell (Fubini)
    number F(n) of `_fubini`."""
    if n < 1:
        raise ValueError(f"n_star requires n >= 1, got {n}")
    return _fubini(n)[n]


def build_stratum_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The rank table of n links.  Row m-1, for m = 1..n, holds the
    cumulative terms C(m, s) * F(m - s) of the `_fubini` recurrence for
    s = 1..m: the orders of m links whose last block has at most s links.
    So row m-1 ends with F(m), the last entry is n*, and `unrank_order`
    splits the ranks by the size of the last block.  n = 3 gives
    ((1,), (2, 3), (9, 12, 13))."""
    if n < 1:
        raise ValueError(f"build_stratum_table requires n >= 1, got {n}")
    fubini = _fubini(n)
    return tuple(tuple(accumulate(math.comb(m, s) * fubini[m - s] for s in range(1, m + 1)))
                 for m in range(1, n + 1))


def iter_base_partitions(n: int) -> Iterator[tuple[Block, ...]]:
    """Yield every set partition of {1..n} exactly once, blocks sorted by
    minimum element, in the lexicographic order of the partitions'
    restricted growth strings (each element labelled with its block's
    index).

    The walk starts from the one-block partition.  The next partition pops
    elements from n downwards until one can move to the next block or open
    a new one.  With every larger element popped, an element can unless it
    is alone in its block; then it is the least element of the last block,
    which is dropped.  The element that can move does, and every larger
    element joins block 0.  The walk ends after the partition into n
    singletons, where every element is alone.
    """
    if n < 1:
        raise ValueError(f"iter_base_partitions requires n >= 1, got {n}")
    blocks = [list(range(1, n + 1))]
    label = [0] * (n + 1)  # label[e]: the index of e's block
    while True:
        yield tuple(map(tuple, blocks))
        e = n
        while len(blocks[label[e]]) == 1:
            blocks.pop()
            if not blocks:
                return
            e -= 1
        j = label[e]
        blocks[j].pop()
        j += 1
        if j == len(blocks):
            blocks.append([])
        blocks[j].append(e)
        label[e] = j
        blocks[0].extend(range(e + 1, n + 1))
        label[e + 1:] = [0] * (n - e)


def enumerate_orders(n: int) -> Iterator[FailureOrder]:
    """Lazily yield every failure order of {1..n} exactly once.

    Canonical stream order: base partitions in the order of
    `iter_base_partitions`; within a base partition, block permutations in
    lexicographic index order.  The stream has n_star(n) elements and never
    materializes the whole collection.
    """
    for blocks in iter_base_partitions(n):
        yield from permutations(blocks)


def _take(unplaced: list[int], s: int, c: int) -> list[int]:
    """Remove from `unplaced` (m ascending links) and return, in descending
    order, the s links at the positions of colex rank c < C(m, s): positions
    x_1 < ... < x_s with c = C(x_1, 1) + ... + C(x_s, s) (the combinatorial
    number system), each the largest x with C(x, i) at most what is left of
    c, taken from the top, so the pops never shift a position still to be
    taken.  C(x, 2) and C(x, 1) are inverted in closed form."""
    block = []
    x = len(unplaced)
    for i in range(s, 2, -1):
        x -= 1
        while math.comb(x, i) > c:
            x -= 1
        c -= math.comb(x, i)
        block.append(unplaced.pop(x))
    if s > 1:
        x = (1 + math.isqrt(8 * c + 1)) // 2
        c -= x * (x - 1) // 2
        block.append(unplaced.pop(x))
    block.append(unplaced.pop(c))
    return block


def unrank_order(table: tuple[tuple[int, ...], ...], u: int) -> FailureOrder:
    """The failure order of rank u, for 0 <= u < n*: a bijection from
    [0, n*) onto the failure orders of {1..n}, for the table
    `build_stratum_table(n)`.

    The order is decoded from its last block: with m links unplaced, row
    m-1 of the table splits the ranks by the size s of the last block, and
    `divmod` by F(m-s) splits what is left into the colex rank of the
    block's links among the unplaced ones (`_take`) and the rank of the
    order of the rest.  `engine._order_m` decodes the same map lazily.
    """
    if not 0 <= u < table[-1][-1]:
        raise ValueError(f"order rank must lie in [0, {table[-1][-1]}), got {u}")
    m = len(table)  # links not yet placed
    unplaced = list(range(1, m + 1))
    blocks = []
    while m:
        row = table[m - 1]
        if u < row[0]:
            # One link.  When m = 1 the rank is 0, and any divisor gives (0, 0).
            c, u = divmod(u, table[m - 2][-1])
            blocks.append((unplaced.pop(c),))
            m -= 1
            continue
        s = bisect_right(row, u) + 1
        c, u = divmod(u - row[s - 2], table[m - s - 1][-1] if s < m else 1)
        blocks.append(tuple(reversed(_take(unplaced, s, c))))
        m -= s
    return tuple(reversed(blocks))


def random_order(table: tuple[tuple[int, ...], ...], rng: "random.Random") -> FailureOrder:
    """Draw a failure order uniformly over all n* orders: the order whose
    rank is `rng.randrange(n*)`.  `rng` needs only `randrange`."""
    return unrank_order(table, rng.randrange(table[-1][-1]))


def check_failure_order(order: FailureOrder, n: int) -> None:
    """Raise ValueError unless `order` is a valid failure order of {1..n}."""
    seen: set[int] = set()
    if not order:
        raise ValueError("failure order has no blocks")
    for block in order:
        if not block:
            raise ValueError("failure order contains an empty block")
        for link in block:
            if not 1 <= link <= n:
                raise ValueError(f"link id {link} outside 1..{n}")
            if link in seen:
                raise ValueError(f"link id {link} appears twice")
            seen.add(link)
    if len(seen) != n:
        raise ValueError(f"failure order covers {len(seen)} of {n} links")
