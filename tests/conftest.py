"""Shared test helpers: independent brute-force oracles and random graphs.

The oracles deliberately avoid the package's connectivity and enumeration
code paths: connectivity is union-find, partitions come from a recursive
element-assignment generator, and M is recomputed by exhaustive subset
search.  They exist so the fast pipeline can be checked against a slow
straight-line reimplementation.
"""

import itertools
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

    def order_m(self, order):
        """M by exhaustive subset search at the fatal block."""
        removed = set()
        m = 0
        for block in order:
            if self.connected(removed | set(block)):
                removed |= set(block)
                m += len(block)
            else:
                for r in range(1, len(block) + 1):
                    for sub in itertools.combinations(sorted(block), r):
                        if not self.connected(removed | set(sub)):
                            return m + r
        raise AssertionError("removing all links must disconnect")


def all_set_partitions(elements):
    """Every partition of `elements`, generated by recursive assignment
    (independent of the package's restricted-growth-string stream)."""
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


def random_connected_network(rng: random.Random, n_links: int, n_terminals: int = 2) -> Network:
    """Random multigraph with n_links links and n_terminals (2 or 3)
    terminals, terminal-connected."""
    while True:
        n_nodes = rng.randint(3, n_links + 1)
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
