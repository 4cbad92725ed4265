"""Shared test helpers: independent brute-force oracles and random graphs.

The oracles deliberately avoid the package's connectivity and enumeration
code paths: connectivity is union-find, partitions come from a recursive
element-assignment generator, and M is recomputed by exhaustive subset
search.  They exist so the fast pipeline can be checked against a slow
straight-line reimplementation.
"""

import itertools
import math
import random
import sys

import pytest

from netsig._bitgraph import BitGraph
from netsig.graph import Network


def uf_connected(n_nodes, edges, removed_ids, terminal_idx):
    """Union-find terminal connectivity; edges are (link_id, a_idx, b_idx)."""
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for link_id, a, b in edges:
        if link_id in removed_ids:
            continue
        parent[find(a)] = find(b)
    return len({find(t) for t in terminal_idx}) == 1


class OracleNet:
    """Indexed view of a Network for the brute-force oracle."""

    def __init__(self, net: Network):
        idx = {label: i for i, label in enumerate(net.nodes)}
        self.n = net.n
        self.n_nodes = len(net.nodes)
        self.edges = [(lid, idx[a], idx[b]) for lid, a, b in net.links]
        self.terminals = [idx[t] for t in net.terminals]

    def connected(self, removed_ids):
        return uf_connected(self.n_nodes, self.edges, removed_ids, self.terminals)

    def min_subset_size(self, removed, block):
        """The fatal-block minimum by the ascending-size subset scan: the
        fewest links of `block` whose removal on top of `removed`
        disconnects the terminals, subsets tried in lexicographic order."""
        for r in range(1, len(block) + 1):
            for sub in itertools.combinations(sorted(block), r):
                if not self.connected(set(removed) | set(sub)):
                    return r
        raise AssertionError("removing the whole block must disconnect")

    def greedy_count(self, removed, block):
        """The paper-greedy count, path by path: while the terminals are
        connected, delete the `block` links of the lexicographically
        smallest shortest path (by link ids) from the first-declared
        terminal to the last, and count the paths.  Each path is the first
        one an iterative-deepening DFS finds over the live links in
        ascending id order."""
        src, dst = min(self.terminals), max(self.terminals)
        dead = set(removed)

        def first_path(v, depth, on_path):
            if v == dst:
                return []
            if depth == 0:
                return None
            for lid, a, b in self.edges:
                if lid in dead or v not in (a, b):
                    continue
                w = a + b - v
                if w not in on_path:
                    rest = first_path(w, depth - 1, on_path | {w})
                    if rest is not None:
                        return [lid] + rest
            return None

        count = 0
        while self.connected(dead):
            depth = 1
            while (path := first_path(src, depth, {src})) is None:
                depth += 1
            dead |= set(path) & set(block)
            count += 1
        return count

    def order_m(self, order):
        """M by exhaustive subset search at the fatal block."""
        removed = set()
        for block in order:
            if not self.connected(removed | set(block)):
                return len(removed) + self.min_subset_size(removed, block)
            removed |= set(block)
        raise AssertionError("removing all links must disconnect")


def all_set_partitions(elements):
    """Every partition of `elements`, generated by recursive assignment
    (independent of the package's block-walk stream)."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for partial in all_set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
        yield partial + [[first]]


def all_orders(n):
    """Every failure order of {1..n}, in no particular order."""
    for part in all_set_partitions(list(range(1, n + 1))):
        for perm in itertools.permutations(part):
            yield tuple(tuple(sorted(block)) for block in perm)


def rank_order(table, order):
    """The rank u of a failure order, the inverse of
    `unrank_order(table, u)`, ranked forward from the map's definition:
    with m links unplaced and a last block of s of them at colex rank c, an
    order's rank is the count of orders of m links with a shorter last
    block, plus c * F(m - s), plus the rank of the order of the rest.  Only
    the Fubini numbers F(m), the last entries of the rows, are read from
    `table`."""
    fubini = [1, *(row[-1] for row in table)]
    unplaced = sorted(link for block in order for link in block)
    u = 0
    for block in reversed(order):
        m, s = len(unplaced), len(block)
        c = sum(math.comb(unplaced.index(link), i) for i, link in enumerate(sorted(block), 1))
        u += sum(math.comb(m, k) * fubini[m - k] for k in range(1, s)) + c * fubini[m - s]
        unplaced = [link for link in unplaced if link not in block]
    return u


def oracle_histogram(net: Network):
    """Straight-line t-signature counts: materialize all orders, exhaustive M."""
    oracle = OracleNet(net)
    counts = [0] * net.n
    total = 0
    for order in all_orders(net.n):
        counts[oracle.order_m(order) - 1] += 1
        total += 1
    return tuple(counts), total


def _oracle_pair_sum(net: Network, score):
    """t-signature counts summed over the (R, B) pairs: R a surviving set
    that keeps the terminals connected, B a block of the other links that
    then disconnects them, weighted by the F(|R|) * F(n - |R| - |B|) orders
    that share the pair, with M = |R| + score(oracle, R, B).  F is
    recomputed here by its recurrence.  Connectivity is memoized by the
    removed set, which the scores query again and again."""
    oracle = OracleNet(net)
    memo = {}

    def connected(removed):
        key = frozenset(removed)
        if key not in memo:
            memo[key] = OracleNet.connected(oracle, key)
        return memo[key]

    oracle.connected = connected
    n = net.n
    fubini = [1]
    for k in range(1, n + 1):
        fubini.append(sum(math.comb(k, s) * fubini[k - s] for s in range(1, k + 1)))
    counts = [0] * n
    links = range(1, n + 1)
    for r in range(n + 1):
        for surviving in itertools.combinations(links, r):
            if not connected(surviving):
                continue
            rest = [link for link in links if link not in surviving]
            for b in range(1, len(rest) + 1):
                for block in itertools.combinations(rest, b):
                    if not connected({*surviving, *block}):
                        m = r + score(oracle, surviving, block)
                        counts[m - 1] += fubini[r] * fubini[n - r - b]
    return tuple(counts)


def oracle_greedy_histogram(net: Network):
    """Paper-greedy t-signature counts by the (R, B) pair sum, with the
    oracle's greedy path count at B."""
    return _oracle_pair_sum(net, OracleNet.greedy_count)


def oracle_pair_histogram(net: Network):
    """Exact-subset t-signature counts by the (R, B) pair sum, with the
    oracle's fatal-block minimum (its subset scan) at B."""
    return _oracle_pair_sum(net, OracleNet.min_subset_size)


@pytest.fixture
def greedy_search_on_large_blocks_only(monkeypatch):
    """Make `BitGraph._greedy_count` fail on a block of one or two links,
    which the paper-greedy pairs score without a search."""
    greedy_count = BitGraph._greedy_count

    def searched(self, removed_mask, block_mask):
        if block_mask.bit_count() <= 2:
            raise AssertionError(f"greedy search on the block {block_mask:#b}")
        return greedy_count(self, removed_mask, block_mask)

    monkeypatch.setattr(BitGraph, "_greedy_count", searched)


def boland_classic_counts(net: Network):
    """Classic signature counts by Boland's formula (J. Appl. Prob. 38,
    2001): with c_r the number of r-link removal sets that keep the
    terminals connected, counted here by brute force, r! (n-r)! c_r
    permutations survive their first r failures, so the (r+1)-th failure
    is fatal in ((n-r) c_r - (r+1) c_{r+1}) r! (n-r-1)! of them."""
    oracle = OracleNet(net)
    n = net.n
    c = [
        sum(oracle.connected(set(removed))
            for removed in itertools.combinations(range(1, n + 1), r))
        for r in range(n + 1)
    ]
    return tuple(
        ((n - r) * c[r] - (r + 1) * c[r + 1]) * math.factorial(r) * math.factorial(n - r - 1)
        for r in range(n)
    )


def oracle_count_cdf(process, rate, n, j, t):
    """P(N(t) <= j) re-summed from r = 0 for this one j, in the term order
    of the reliability kernel's running sum, so it must agree to the last
    bit (the per-count oracle of test_equals_per_count_sums_exactly)."""
    if t == 0:
        return 1.0
    if process == "poisson":
        mean = rate * t
        term = total = math.exp(-mean)
        r = 0
        if term < sys.float_info.min and mean < math.inf:
            # exp(-mean) is not a normal float: the terms from their
            # logarithms up to the first normal one, as the kernel takes them
            total = 0.0
            while r <= j:
                term = math.exp(r * math.log(mean) - mean - math.lgamma(r + 1.0))
                if term >= sys.float_info.min:
                    break
                total += term
                r += 1
            if r <= j:
                total += term
        for r in range(r + 1, j + 1):
            term *= mean / r
            total += term
        return min(total, 1.0)
    p = -math.expm1(-rate * t)
    q = 1.0 - p
    if j >= n or q == 0.0:
        return 1.0 if j >= n else 0.0
    return min(sum(math.comb(n, r) * p**r * q ** (n - r) for r in range(j + 1)), 1.0)


def oracle_survival(counts, total, process, rate, n, t):
    """The mixture sum_i counts[i] * P(N(t) <= i) / total from per-count
    CDFs, summed over the nonzero counts and divided once."""
    return sum(
        float(c) * oracle_count_cdf(process, rate, n, i, t) for i, c in enumerate(counts) if c
    ) / total


def random_connected_network(rng: random.Random, n_links: int, n_terminals: int = 2,
                             max_nodes: int | None = None) -> Network:
    """Random multigraph with n_links links, n_terminals (2 to 5)
    terminals and at most `max_nodes` nodes, terminal-connected."""
    while True:
        n_nodes = rng.randint(max(3, n_terminals), min(n_links + 1, max_nodes or n_links + 1))
        nodes = tuple(f"v{i}" for i in range(n_nodes))
        links = []
        for link_id in range(1, n_links + 1):
            a, b = rng.sample(range(n_nodes), 2)
            links.append((link_id, nodes[a], nodes[b]))
        terminals = frozenset(rng.sample(nodes, n_terminals))
        try:
            return Network(nodes=nodes, links=tuple(links), terminals=terminals)
        except Exception:
            continue


@pytest.fixture
def rng():
    return random.Random(20240817)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, after capture ends."""
    try:
        from test_acceptance import SCOREBOARD
    except ImportError:
        return
    if not SCOREBOARD:
        return
    terminalreporter.section("acceptance criteria")
    for number, verdict, headline in sorted(SCOREBOARD):
        terminalreporter.write_line(f"[criterion {number:2d}] {verdict}  {headline}")
