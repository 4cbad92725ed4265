import random
from collections import Counter

import pytest

from netsig._bitgraph import BitGraph
from netsig.errors import (
    ContractError,
    GraphParseError,
    UnsupportedModeError,
)
from netsig.engine import calculate_m
from netsig.fixtures import load_fixture
from netsig.graph import parse_network

from conftest import OracleNet, random_connected_network, uf_connected


# Fatal blocks on either side of the terminal-degree bound of the cut:
# (case, graph, removed links, block, fewest block links that disconnect).
_CUT_CASES = [
    # t's only block link is a-t; link 5 (a-b) fails later
    ("least degree 1", "terminals s t\nedge s a\nedge s a\nedge s a\nedge a t\nedge a b",
     (), (1, 2, 3, 4), 1),
    # link 6 fails later and joins a and c, so block link 3 lies inside
    # one component; s and t each have two block links, and so has the cut
    ("flow equals least degree",
     "terminals s t\nedge s a\nedge s b\nedge a c\nedge c t\nedge b t\nedge a c",
     (), (1, 2, 3, 4, 5), 2),
    # s and t each have two block links, but c-d is a bottleneck;
    # link 10 (s-t) fails first
    ("flow below least degree",
     "terminals s t\nedge s a\nedge s b\nedge a c\nedge b c\nedge c d\nedge d e\n"
     "edge d f\nedge e t\nedge f t\nedge s t",
     (10,), tuple(range(1, 10)), 1),
    # w has two block links; a-b cuts it off with one
    ("flow below least degree, three terminals",
     "terminals s t w\nedge s t\nedge s t\nedge s t\nedge s a\nedge s a\nedge t a\n"
     "edge t a\nedge a b\nedge b w\nedge b w",
     (), tuple(range(1, 11)), 1),
    # a ring of doubled links: every terminal has four
    ("flow equals least degree, three terminals",
     "terminals s t w\nedge s t\nedge s t\nedge t w\nedge t w\nedge w s\nedge w s",
     (), tuple(range(1, 7)), 4),
    # link 1 fails later and joins s and t; w is joined to them by three
    # disjoint paths
    ("flow equals least degree, joined terminals",
     "terminals s t w\nedge s t\nedge s w\nedge t w\nedge s a\nedge a w",
     (), (2, 3, 4, 5), 3),
    ("least degree 1, four terminals",
     "terminals s t w x\nedge s t\nedge s t\nedge t w\nedge t w\nedge w s\nedge w s\n"
     "edge w x",
     (), tuple(range(1, 8)), 1),
]

# BitGraph._block_cut on hand-built forests: (case, graph, later links,
# (node, parent) pointers joining their ends, block, block-link degree of
# each terminal's component, the pinned terminal first, cut).
_FOREST_CASES = [
    # link 5 (a-b) fails later; t's only block link is a-t
    ("least degree 1", "terminals s t\nedge s a\nedge s a\nedge s a\nedge a t\nedge a b",
     (5,), (("b", "a"),), (1, 2, 3, 4), (3, 1), 1),
    # S=X twice, X-U-V later (a chain of two pointers), V-Y once, Y=T twice:
    # the middle link cuts below the least degree
    ("middle link below least degree 2",
     "terminals s t\nedge s x\nedge s x\nedge x u\nedge u v\nedge v y\nedge y t\nedge y t",
     (3, 4), (("u", "x"), ("v", "u")), (1, 2, 5, 6, 7), (2, 2), 1),
    # t=s twice, t-v once and v-w later: only the sink w has degree 1
    ("three terminals, one sink of degree 1",
     "terminals s t w\nedge s t\nedge s t\nedge t v\nedge v w",
     (4,), (("w", "v"),), (1, 2, 3), (2, 3, 1), 1),
]


class TestParseNetwork:
    def test_figure1(self):
        net = load_fixture("figure1")
        assert net.n == 9
        assert len(net.nodes) == 7
        assert net.terminals == frozenset({"b", "c", "d"})

    def test_smallest_valid(self):
        net = parse_network("terminals s t\nedge s t\n")
        assert net.n == 1
        assert net.nodes == ("s", "t")

    def test_eon(self):
        net = load_fixture("eon_par_cop")
        assert len(net.nodes) == 11
        assert net.n == 26

    def test_link_ids_follow_file_order(self):
        net = parse_network("terminals a c\nedge a b\nedge b c\n")
        assert net.links == ((1, "a", "b"), (2, "b", "c"))

    def test_comments_and_blank_lines(self):
        net = parse_network("# header\n\nterminals s t  # inline\nedge s t\n")
        assert net.n == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("terminals s t\nedge s\n", "line 2"),
            ("node a\nnode a\nterminals a b\nedge a b\n", "duplicate node"),
            ("terminals s t\nedge s s\n", "self-loop"),
            ("terminals s\nedge s t\n", "two terminals"),
            ("node a\nnode b\nterminals a b\nedge a q\n", "unknown node"),
            ("terminals s q\nedge s t\n", "unknown terminal"),
            ("edge s t\n", "terminals"),
            ("wat s t\n", "unknown directive"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphParseError) as err:
            parse_network(text)
        assert fragment in str(err.value)

    def test_disconnected_terminals_rejected(self):
        text = "terminals s t\nedge s a\nedge t b\n"
        with pytest.raises(GraphParseError):
            parse_network(text)

    def test_parallel_links_allowed(self):
        assert load_fixture("parallel2").n == 2

    def test_line_number_reported(self):
        with pytest.raises(GraphParseError) as err:
            parse_network("terminals s t\nedge s t\nedge s s\n")
        assert err.value.line == 3


def _bits(links):
    """The removal mask of some link ids: bit i-1 for link i."""
    return sum(1 << (x - 1) for x in links)


class TestIsTerminalConnected:
    """`BitGraph.connected` on removal masks."""

    def test_intact_bridge(self):
        assert BitGraph(load_fixture("bridge")).connected(0)

    def test_source_isolated(self):
        assert not BitGraph(load_fixture("bridge")).connected(_bits({1, 2}))

    def test_figure1_residual(self):
        # removing the three links at node a still joins b, c, d via e, g, f
        net = load_fixture("figure1")
        removed = {1, 3, 4}  # a-b, a-d, a-c
        assert BitGraph(net).connected(_bits(removed))
        assert OracleNet(net).connected(removed)

    def test_monotone_under_supersets(self, rng):
        net = load_fixture("figure1")
        bg = BitGraph(net)
        for _ in range(200):
            removed = frozenset(
                link for link in range(1, net.n + 1) if rng.random() < 0.5
            )
            if bg.connected(_bits(removed)):
                continue
            rest = [x for x in range(1, net.n + 1) if x not in removed]
            extra = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
            assert not bg.connected(_bits(removed | extra))

    def test_matches_union_find_on_random_graphs(self, rng):
        # by breadth-first search, and by the table of all 2^n masks
        for _ in range(25):
            net = random_connected_network(rng, rng.randint(4, 7))
            oracle = OracleNet(net)
            searched, tabled = BitGraph(net), BitGraph(net, build_table=True)
            for _ in range(30):
                removed = frozenset(
                    link for link in range(1, net.n + 1) if rng.random() < 0.4
                )
                mask = _bits(removed)
                assert searched.connected(mask) == tabled.connected(mask) == oracle.connected(
                    set(removed)
                )


class TestFindPath:
    """`BitGraph.shortest_path`, the paper-greedy path rule."""

    def test_bridge_shortest(self):
        bg = BitGraph(load_fixture("bridge"))
        assert bg.shortest_path(0, *bg.terminal_indices) == (1, 4)

    def test_bridge_disconnected(self):
        bg = BitGraph(load_fixture("bridge"))
        assert bg.shortest_path(_bits({1, 2}), *bg.terminal_indices) is None

    def test_single_edge(self):
        bg = BitGraph(load_fixture("single_edge"))
        assert bg.shortest_path(0, *bg.terminal_indices) == (1,)

    def test_none_iff_disconnected(self, rng):
        net = load_fixture("figure2")  # terminals a and d
        bg = BitGraph(net)
        src, dst = bg.terminal_indices
        for _ in range(100):
            removed = frozenset(
                link for link in range(1, net.n + 1) if rng.random() < 0.5
            )
            path = bg.shortest_path(_bits(removed), src, dst)
            assert (path is None) == (not bg.connected(_bits(removed)))
            if path is not None:
                # path uses live links and joins the endpoints
                assert not set(path) & removed
                node = src
                for link in path:
                    a, b = bg.ends[link]
                    assert node in (a, b)
                    node = a + b - node
                assert node == dst


class TestMinFailedSubsetSize:
    """`BitGraph.min_subset_size`: the fatal-block minimum, checked."""

    def test_bridge(self):
        bg = BitGraph(load_fixture("bridge"))
        assert bg.min_subset_size(_bits({3}), (1, 2, 4, 5)) == 2

    def test_parallel(self):
        assert BitGraph(load_fixture("parallel2")).min_subset_size(0, (1, 2)) == 2

    def test_counterexample_needs_three(self):
        assert BitGraph(load_fixture("counterexample")).min_subset_size(0, (1, 2, 3)) == 3

    def test_contract_violations(self):
        bg = BitGraph(load_fixture("bridge"))
        with pytest.raises(ContractError):
            # removing the block does not disconnect
            bg.min_subset_size(0, (3,))
        with pytest.raises(ContractError):
            # already disconnected before the block
            bg.min_subset_size(_bits({1, 2}), (4, 5))
        with pytest.raises(ContractError):
            bg.min_subset_size(_bits({1}), (1, 2))

    def test_result_is_minimal_by_reenumeration(self, rng):
        import itertools

        for _ in range(10):
            net = random_connected_network(rng, 5)
            bg = BitGraph(net)
            block = tuple(range(1, net.n + 1))
            m = bg.min_subset_size(0, block)
            assert 1 <= m <= net.n
            hit = any(
                not bg.connected(_bits(sub))
                for sub in itertools.combinations(block, m)
            )
            assert hit
            for r in range(1, m):
                for sub in itertools.combinations(block, r):
                    assert bg.connected(_bits(sub))

    def test_cut_equals_subset_scan_oracle(self):
        # Random (removed, block) pairs that meet the fatal-block
        # preconditions, on multigraphs with 2-5 terminals and parallel
        # links, against the oracle's ascending-size subset scan.
        rng = random.Random(20261018)
        seen = Counter()
        for _ in range(150):
            n = rng.randint(4, 9)
            net = random_connected_network(rng, n, rng.randint(2, 5))
            oracle = OracleNet(net)
            links = range(1, n + 1)
            pairs = [(frozenset(), frozenset(links))]  # the one-block order
            for _ in range(12):
                removed = frozenset(x for x in links if rng.random() < 0.3)
                rest = [x for x in links if x not in removed]
                size = rng.choice((1, rng.randint(1, len(rest)))) if rest else 0
                pairs.append((removed, frozenset(rng.sample(rest, size))))
            for removed, block in pairs:
                if not block or not oracle.connected(removed):
                    continue
                if oracle.connected(removed | block):
                    continue
                m = BitGraph(net).min_subset_size(_bits(removed), tuple(sorted(block)))
                assert m == oracle.min_subset_size(removed, block), (net, removed, block)
                later = [x for x in links if x not in removed | block]
                inside = any(
                    uf_connected(oracle.n_nodes, [e for e in oracle.edges if e[0] in later],
                                 (), [oracle.edges[x - 1][1], oracle.edges[x - 1][2]])
                    for x in block
                )
                seen["one link" if len(block) == 1 else "several links"] += 1
                seen["link inside a component"] += inside
                seen["one block"] += not removed and len(block) == n
                seen[f"{len(net.terminals)} terminals"] += 1
        assert len(seen) == 8 and min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("case, text, removed, block, m", _CUT_CASES, ids=[c[0] for c in _CUT_CASES])
    def test_cut_bounded_by_terminal_degrees(self, case, text, removed, block, m):
        # The cut starts from the least block-link degree of a terminal's
        # component (the components of the links that fail later); each
        # case sits on one side of that bound, against the subset scan.
        net = parse_network(text)
        oracle = OracleNet(net)
        later = [e for e in oracle.edges if e[0] not in set(removed) | set(block)]
        comps = [
            frozenset(v for v in range(oracle.n_nodes) if uf_connected(oracle.n_nodes, later, (), [t, v]))
            for t in oracle.terminals
        ]
        degree = min(
            sum((a in comp) != (b in comp) for x, a, b in oracle.edges if x in block)
            for comp in comps
        )
        cut = oracle.min_subset_size(removed, block)
        assert cut == m
        if case.startswith("least degree 1"):
            assert degree == 1
        elif case.startswith("flow equals"):
            assert cut == degree > 1
        else:
            assert cut < degree
        assert BitGraph(net).min_subset_size(_bits(removed), block) == m
        rest = tuple(x for x in range(1, net.n + 1) if x not in set(removed) | set(block))
        order = tuple(b for b in (tuple(removed), tuple(block), rest) if b)
        assert calculate_m(net, order).M == len(removed) + m == oracle.order_m(order)

    @pytest.mark.parametrize("case, text, later, forest, block, degrees, m", _FOREST_CASES,
                             ids=[c[0] for c in _FOREST_CASES])
    def test_block_cut_on_forest(self, case, text, later, forest, block, degrees, m):
        # The cut core on a forest built by hand: `forest` sets node ->
        # parent pointers that join the ends of the `later` links.
        net = parse_network(text)
        bg = BitGraph(net)
        parent = bg.singletons.copy()
        for child, root in forest:
            parent[bg._node_index[child]] = bg._node_index[root]

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        ends = [(root(a), root(b)) for a, b in (bg.ends[x] for x in block)]
        assert degrees == tuple(
            sum((a == r) != (b == r) for a, b in ends)
            for r in map(root, bg.terminal_indices)
        )
        removed = set(range(1, net.n + 1)) - set(block) - set(later)
        assert bg._block_cut(parent, block) == m == OracleNet(net).min_subset_size(removed, block)

    def test_thirty_parallel_links(self):
        # 2**30 subsets for a scan by size; 30 augmenting paths for the cut.
        net = parse_network("terminals s t\n" + "edge s t\n" * 30)
        assert BitGraph(net).min_subset_size(0, tuple(range(1, 31))) == 30
        assert calculate_m(net, (tuple(range(1, 31)),)).M == 30


class TestGreedyFailedCount:
    """`BitGraph._greedy_count`, the paper-greedy fatal-block score."""

    def test_parallel(self):
        assert BitGraph(load_fixture("parallel2"))._greedy_count(0, _bits({1, 2})) == 2

    def test_bridge(self):
        bg = BitGraph(load_fixture("bridge"))
        assert bg._greedy_count(_bits({3}), _bits({1, 2, 4, 5})) == 2

    def test_counterexample_order_dependence(self):
        # shortest-path search needs all three links; a longest-path-first
        # strategy would take the s-a-b-t walk and count a single iteration
        bg = BitGraph(load_fixture("counterexample"))
        assert bg._greedy_count(0, _bits({1, 2, 3})) == 3

    def test_zigzag_undercounts(self):
        # the shortest path carries the whole three-link cut
        bg = BitGraph(load_fixture("zigzag"))
        assert bg._greedy_count(0, _bits({1, 2, 3})) == 1
        assert bg.min_subset_size(0, (1, 2, 3)) == 3

    def test_k_terminal_rejected(self):
        net = load_fixture("figure1")
        with pytest.raises(UnsupportedModeError):
            calculate_m(net, (tuple(range(1, 10)),), "paper-greedy")

    def test_never_exceeds_exact(self, rng):
        for _ in range(20):
            net = random_connected_network(rng, rng.randint(4, 6))
            bg = BitGraph(net)
            for _ in range(20):
                removed = frozenset(
                    link for link in range(1, net.n + 1) if rng.random() < 0.3
                )
                if not bg.connected(_bits(removed)):
                    continue
                block = frozenset(range(1, net.n + 1)) - removed
                if not block or bg.connected(_bits(removed | block)):
                    continue
                greedy = bg._greedy_count(_bits(removed), _bits(block))
                exact = bg.min_subset_size(_bits(removed), tuple(sorted(block)))
                assert greedy <= exact
