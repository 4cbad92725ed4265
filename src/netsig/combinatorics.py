"""Exact combinatorics of link-failure orders.

A failure order is an ordered set partition of the link ids {1..n}: links in
the same block fail together, blocks fail left to right.  This module counts
those orders (binomials, Stirling numbers of the second kind, Fubini numbers),
enumerates them lazily in a fixed canonical order, and draws them uniformly at
random via stratification over the block count.

All counts are exact Python integers; the order count for n=26 has 31 digits.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, permutations
from typing import Iterator

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


@dataclass(frozen=True)
class StratumTable:
    """Per-block-count order counts: m[k-1] = k!*S(n,k), summing to n*.

    The stratum weights drive probability-proportional-to-size sampling of
    failure orders: pick the block count k with probability m_k/n*, then a
    uniform k-block partition and a uniform block permutation.
    """

    n: int
    m: tuple[int, ...]
    n_star: int
    # cumulative[k-1] = m_1 + ... + m_k, for drawing k by bisection.
    cumulative: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
    n: int, k: int, rng: random.Random
) -> tuple[Block, ...]:
    """Draw a uniform random partition of {1..n} into exactly k blocks.

    Elements are assigned sequentially; element i opens a new block or joins
    an existing one with probabilities proportional to the completion counts
    given by the Stirling recurrence, so each of the S(n,k) partitions is
    equally likely.  All threshold comparisons use exact integers.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return tuple(tuple(block) for block in _random_blocks(n, k, rng))


def _random_blocks(n: int, k: int, rng: random.Random) -> list[list[int]]:
    """The blocks of a uniform k-block partition of {1..n}, ordered by
    minimum element.  S(m,k) = S(m-1,k-1) + k*S(m-1,k): element m is a
    singleton in the first summand's share of partitions, otherwise it joins
    one of k blocks.  These choices are drawn from m = n down to a base case
    (k = m or k = 1), then the joining elements pick a block bottom-up.

    Each draw below x repeats `rng.randrange(x)` inline (CPython's
    `_randbelow_with_getrandbits`: redraw `getrandbits(x.bit_length())`
    while it is >= x), so the stream is consumed exactly as by `randrange`
    without its per-call overhead."""
    stirling2(n, k)  # extends the rows up to n
    rows = _stirling_rows
    getrandbits = rng.getrandbits
    joins = []  # per element above the base case: 0, or its k if it joins
    m = n
    while 1 < k < m:
        x = rows[m - 1][k - 1]
        bits = x.bit_length()
        r = getrandbits(bits)
        while r >= x:
            r = getrandbits(bits)
        if r < rows[m - 2][k - 2]:
            joins.append(0)
            k -= 1
        else:
            joins.append(k)
        m -= 1
    blocks = [[i] for i in range(1, m + 1)] if k == m else [list(range(1, m + 1))]
    # A new block's element exceeds all earlier ones: the order is kept.
    for m, join in enumerate(reversed(joins), start=m + 1):
        if join:
            bits = join.bit_length()
            r = getrandbits(bits)
            while r >= join:
                r = getrandbits(bits)
            blocks[r].append(m)
        else:
            blocks.append([m])
    return blocks


def random_order(table: StratumTable, rng: random.Random) -> FailureOrder:
    """Draw a failure order uniformly over all n* orders.

    Stratified: the block count k is chosen with probability m_k/n* by
    bisecting the cumulative stratum weights with a uniform integer below
    n*, then a uniform k-block partition is drawn and its block sequence
    shuffled.  The draws repeat `rng.randrange` and `rng.shuffle` (Fisher-
    Yates) inline, as in `_random_blocks`.
    """
    getrandbits = rng.getrandbits
    x = table.n_star
    bits = x.bit_length()
    u = getrandbits(bits)
    while u >= x:
        u = getrandbits(bits)
    k = bisect_right(table.cumulative, u) + 1
    blocks = [tuple(block) for block in _random_blocks(table.n, k, rng)]
    for i in range(k - 1, 0, -1):
        x = i + 1
        bits = x.bit_length()
        j = getrandbits(bits)
        while j >= x:
            j = getrandbits(bits)
        blocks[i], blocks[j] = blocks[j], blocks[i]
    return tuple(blocks)


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
