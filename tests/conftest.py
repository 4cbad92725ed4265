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

import pytest

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


def oracle_histogram(net: Network):
    """Straight-line t-signature counts: materialize all orders, exhaustive M."""
    oracle = OracleNet(net)
    counts = [0] * net.n
    total = 0
    for order in all_orders(net.n):
        counts[oracle.order_m(order) - 1] += 1
        total += 1
    return tuple(counts), total


def oracle_count_cdf(process, rate, n, j, t):
    """P(N(t) <= j) re-summed from r = 0 for this one j, in the term order
    of the reliability kernel's running sum, so it must agree to the last
    bit (the per-count oracle of test_equals_per_count_sums_exactly)."""
    if t == 0:
        return 1.0
    if process == "poisson":
        term = total = math.exp(-rate * t)
        for r in range(1, j + 1):
            term *= rate * t / r
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


def random_connected_network(rng: random.Random, n_links: int, n_terminals: int = 2) -> Network:
    """Random multigraph with n_links links and n_terminals (2 to 5)
    terminals, terminal-connected."""
    while True:
        n_nodes = rng.randint(max(3, n_terminals), n_links + 1)
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
