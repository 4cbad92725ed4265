"""Exact combinatorics of link-failure orders.

A failure order is an ordered set partition of the link ids {1..n}: links in
the same block fail together, blocks fail left to right.  One cached table
of Stirling numbers of the second kind S(n, k) drives the module: it counts
the orders (n*, the Fubini number, is the sum of k!*S(n, k) over the block
count k), and it unranks them: every integer below n* names one order,
stratified by the block count, so one uniform integer below n* is one
uniform order.  The module also enumerates the orders lazily in a fixed
canonical order, walking the set partitions block by block and permuting
the blocks of each.

All counts are exact Python integers; the order count for n=26 has 31 digits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from itertools import accumulate, permutations

from ._record import Record

# A block is an ascending tuple of link ids; a failure order is a sequence of
# disjoint nonempty blocks covering {1..n}.
Block = tuple[int, ...]
FailureOrder = tuple[Block, ...]


# _stirling_rows[m-1][k-1] = S(m, k); rows are appended on demand.
_stirling_rows: list[list[int]] = [[1]]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k): the number of partitions
    of an n-set into exactly k nonempty blocks."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"stirling2 requires 0 <= k <= n, got n={n}, k={k}")
    if k == 0:
        return 1 if n == 0 else 0
    while len(_stirling_rows) < n:
        prev = _stirling_rows[-1]
        m = len(prev) + 1
        # S(m,k) = k*S(m-1,k) + S(m-1,k-1), with S(m,1) = S(m,m) = 1.
        row = [1]
        for j in range(2, m):
            row.append(j * prev[j - 1] + prev[j - 2])
        row.append(1)
        _stirling_rows.append(row)
    return _stirling_rows[n - 1][k - 1]


def n_star(n: int) -> int:
    """The number of failure orders of n links (the ordered Bell / Fubini
    number): the sum over the block count k of k!*S(n,k), the k!
    orderings of each k-block partition."""
    if n < 1:
        raise ValueError(f"n_star requires n >= 1, got {n}")
    return sum(math.factorial(k) * stirling2(n, k) for k in range(1, n + 1))


class StratumTable(Record):
    """Per-block-count order counts: m[k-1] = k!*S(n,k), summing to n*.

    The stratum weights split the ranks of `unrank_order`: ranks below m_1
    have one block, the next m_2 two blocks, and so on, so a uniform rank
    picks the block count k with probability m_k/n*, then a uniform k-block
    partition and a uniform block permutation.
    """

    n: int
    m: tuple[int, ...]
    n_star: int
    # Set by __post_init__, not a field: cumulative[k-1] = m_1 + ... + m_k,
    # for finding k by bisection.

    def __post_init__(self):
        if len(self.m) != self.n or any(mk <= 0 for mk in self.m):
            raise ValueError("stratum table must have n positive entries")
        if sum(self.m) != self.n_star:
            raise ValueError("stratum weights do not sum to n_star")
        object.__setattr__(self, "cumulative", tuple(accumulate(self.m)))


def build_stratum_table(n: int) -> StratumTable:
    if n < 1:
        raise ValueError(f"build_stratum_table requires n >= 1, got {n}")
    m = tuple(math.factorial(k) * stirling2(n, k) for k in range(1, n + 1))
    return StratumTable(n=n, m=m, n_star=sum(m))


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


def _unrank_partition(table: StratumTable, u: int) -> tuple[list[list[int]], int]:
    """The base partition and the block-permutation rank of the failure
    order of rank u, for 0 <= u < n*: `(blocks, perm)`, the blocks ordered
    by least element, each a list of its links in descending order.

    Bisecting the cumulative stratum weights gives the block count k and a
    rank below k!*S(n,k); `divmod` by k! splits it into a partition rank r
    and `perm`, whose mixed-radix digits are the swaps of a Fisher-Yates
    shuffle of the blocks (see `unrank_order`).

    The partition of rank r is placed by the recurrence
    S(m,k) = S(m-1,k-1) + k*S(m-1,k): the first S(m-1,k-1) ranks make
    element m the least element of block k, and each later rank
    r' = r - S(m-1,k-1) puts m into block r' % k of a partition of {1..m-1}
    with rank r' // k.  Adding larger elements never changes which element
    is a block's least, so the blocks are numbered as in the whole
    partition, and the elements are placed from m = n down to a base case
    (k = m or k = 1, where the rank is 0).  Every rank gives a different
    partition (Nijenhuis & Wilf, *Combinatorial Algorithms*, 1978).
    """
    cumulative = table.cumulative
    if not 0 <= u < table.n_star:
        raise ValueError(f"order rank must lie in [0, {table.n_star}), got {u}")
    k = bisect_right(cumulative, u) + 1
    if k > 1:
        u -= cumulative[k - 2]
    r, perm = divmod(u, math.factorial(k))
    rows = _stirling_rows
    blocks: list[list[int]] = [[] for _ in range(k)]
    m = table.n
    while 1 < k < m:
        singletons = rows[m - 2][k - 2]
        if r < singletons:
            k -= 1
            blocks[k].append(m)
        else:
            r, block = divmod(r - singletons, k)
            blocks[block].append(m)
        m -= 1
    if k == m:
        for i in range(m):
            blocks[i].append(i + 1)
    else:
        blocks[0].extend(range(m, 0, -1))
    return blocks, perm


def unrank_order(table: StratumTable, u: int) -> FailureOrder:
    """The failure order of rank u, for 0 <= u < n*: a bijection from
    [0, n*) onto the failure orders of {1..table.n}.

    `_unrank_partition` gives the base partition and the permutation rank
    `perm`; from the last position i = k-1 down to 1, `divmod(perm, i + 1)`
    takes the next digit j and swaps the blocks at positions i and j, after
    which position i is final.  The order's blocks are ascending tuples.
    """
    blocks, perm = _unrank_partition(table, u)
    for i in range(len(blocks) - 1, 0, -1):
        perm, j = divmod(perm, i + 1)
        blocks[i], blocks[j] = blocks[j], blocks[i]
    return tuple(tuple(reversed(block)) for block in blocks)


def random_order(table: StratumTable, rng: "random.Random") -> FailureOrder:
    """Draw a failure order uniformly over all n* orders: the order whose
    rank is `rng.randrange(table.n_star)`.  `rng` needs only `randrange`."""
    return unrank_order(table, rng.randrange(table.n_star))


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
