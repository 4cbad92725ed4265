"""Exact combinatorics of link-failure orders.

A failure order is an ordered set partition of the link ids {1..n}: links in
the same block fail together, blocks fail left to right.  This module counts
those orders (binomials, Stirling numbers of the second kind, Fubini numbers),
enumerates them lazily in a fixed canonical order, and unranks them: every
integer below n* names one order, stratified by the block count, so one
uniform integer below n* is one uniform order.

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


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial requires 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


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
    number), computed from the inclusion-exclusion double sum and cross-checked
    against the stratum identity sum_k k!*S(n,k)."""
    if n < 1:
        raise ValueError(f"n_star requires n >= 1, got {n}")
    total = sum(
        math.comb(j, k) * (-1) ** k * (j - k) ** n
        for j in range(1, n + 1)
        for k in range(0, j + 1)
    )
    by_strata = sum(math.factorial(k) * stirling2(n, k) for k in range(1, n + 1))
    assert total == by_strata, f"Fubini identity failed at n={n}"
    return total


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
    return StratumTable(n=n, m=m, n_star=n_star(n))


def _rgs_iter(n: int) -> Iterator[list[int]]:
    """Yield every restricted growth string of length n in lexicographic
    order.  The yielded list is reused; callers must not keep references."""
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[0..i-1]); a[i] may range over 0..b[i]
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] >= b[i]:
            a[i] = 0
            i -= 1
        if i == 0:
            return
        a[i] += 1
        nb = max(b[i], a[i] + 1)
        for j in range(i + 1, n):
            b[j] = nb


def _blocks_from_rgs(rgs: list[int]) -> list[list[int]]:
    """Group element indices by RGS label into blocks ordered by minimum
    element (labels appear in order of first occurrence)."""
    blocks: list[list[int]] = []
    for idx, label in enumerate(rgs):
        if label == len(blocks):
            blocks.append([idx + 1])
        else:
            blocks[label].append(idx + 1)
    return blocks


def iter_base_partitions(n: int) -> Iterator[tuple[Block, ...]]:
    """Yield every set partition of {1..n} exactly once, blocks sorted by
    minimum element, in restricted-growth-string lexicographic order."""
    if n < 1:
        raise ValueError(f"iter_base_partitions requires n >= 1, got {n}")
    for rgs in _rgs_iter(n):
        yield tuple(tuple(block) for block in _blocks_from_rgs(rgs))


def enumerate_orders(n: int) -> Iterator[FailureOrder]:
    """Lazily yield every failure order of {1..n} exactly once.

    Canonical stream order: base partitions in restricted-growth-string
    lexicographic order; within a base partition, block permutations in
    lexicographic index order.  The stream has n_star(n) elements and never
    materializes the whole collection.
    """
    for blocks in iter_base_partitions(n):
        if len(blocks) == 1:
            yield blocks
        else:
            yield from permutations(blocks)


def random_partition_with_k_blocks(
    n: int, k: int, rng: "random.Random"
) -> tuple[Block, ...]:
    """Draw a uniform random partition of {1..n} into exactly k blocks: the
    partition whose rank is `rng.randrange(S(n, k))`, placed by the walk of
    `_unrank_partition`, so each of the S(n,k) partitions is equally likely."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    table = build_stratum_table(n)
    stratum = table.cumulative[k - 2] if k > 1 else 0
    r = rng.randrange(stirling2(n, k))
    blocks, _ = _unrank_partition(table, stratum + r * math.factorial(k))
    return tuple(tuple(reversed(block)) for block in blocks)


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
