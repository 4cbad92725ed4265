import random
from collections import Counter

import pytest

from netsig.errors import (
    ContractError,
    GraphParseError,
    NetworkValidationError,
    UnsupportedModeError,
)
from netsig.engine import calculate_m
from netsig.fixtures import load_fixture
from netsig.graph import (
    Network,
    find_path,
    greedy_failed_count,
    is_terminal_connected,
    min_failed_subset_size,
    parse_network,
)

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


class TestIsTerminalConnected:
    def test_intact_bridge(self):
        assert is_terminal_connected(load_fixture("bridge"), frozenset())

    def test_source_isolated(self):
        assert not is_terminal_connected(load_fixture("bridge"), frozenset({1, 2}))

    def test_figure1_residual(self):
        # removing the three links at node a still joins b, c, d via e, g, f
        net = load_fixture("figure1")
        removed = frozenset({1, 3, 4})  # a-b, a-d, a-c
        assert is_terminal_connected(net, removed)
        oracle = OracleNet(net)
        assert oracle.connected(set(removed))

    def test_monotone_under_supersets(self, rng):
        net = load_fixture("figure1")
        for _ in range(200):
            removed = frozenset(
                link for link in range(1, net.n + 1) if rng.random() < 0.5
            )
            if is_terminal_connected(net, removed):
                continue
            rest = [x for x in range(1, net.n + 1) if x not in removed]
            extra = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
            assert not is_terminal_connected(net, removed | extra)

    def test_matches_union_find_on_random_graphs(self, rng):
        for _ in range(25):
            net = random_connected_network(rng, rng.randint(4, 7))
            oracle = OracleNet(net)
            for _ in range(30):
                removed = frozenset(
                    link for link in range(1, net.n + 1) if rng.random() < 0.4
                )
                assert is_terminal_connected(net, removed) == oracle.connected(
                    set(removed)
                )


class TestFindPath:
    def test_bridge_shortest(self):
        assert find_path(load_fixture("bridge"), ("s", "t")) == (1, 4)

    def test_bridge_disconnected(self):
        assert find_path(load_fixture("bridge"), ("s", "t"), frozenset({1, 2})) is None

    def test_single_edge(self):
        assert find_path(load_fixture("single_edge"), ("s", "t")) == (1,)

    def test_none_iff_disconnected(self, rng):
        net = load_fixture("figure2")
        pair = ("a", "d")
        for _ in range(100):
            removed = frozenset(
                link for link in range(1, net.n + 1) if rng.random() < 0.5
            )
            path = find_path(net, pair, removed)
            connected = is_terminal_connected(
                Network(nodes=net.nodes, links=net.links, terminals=frozenset(pair)),
                removed,
            )
            assert (path is None) == (not connected)
            if path is not None:
                # path uses live links and joins the endpoints
                assert not set(path) & removed

    def test_unknown_endpoint(self):
        with pytest.raises(NetworkValidationError):
            find_path(load_fixture("bridge"), ("s", "zz"))


class TestMinFailedSubsetSize:
    def test_bridge(self):
        net = load_fixture("bridge")
        assert min_failed_subset_size(net, frozenset({3}), frozenset({1, 2, 4, 5})) == 2

    def test_parallel(self):
        net = load_fixture("parallel2")
        assert min_failed_subset_size(net, frozenset(), frozenset({1, 2})) == 2

    def test_counterexample_needs_three(self):
        net = load_fixture("counterexample")
        assert min_failed_subset_size(net, frozenset(), frozenset({1, 2, 3})) == 3

    def test_contract_violations(self):
        net = load_fixture("bridge")
        with pytest.raises(ContractError):
            # removing the block does not disconnect
            min_failed_subset_size(net, frozenset(), frozenset({3}))
        with pytest.raises(ContractError):
            # already disconnected before the block
            min_failed_subset_size(net, frozenset({1, 2}), frozenset({4, 5}))
        with pytest.raises(ContractError):
            min_failed_subset_size(net, frozenset({1}), frozenset({1, 2}))

    def test_result_is_minimal_by_reenumeration(self, rng):
        import itertools

        for _ in range(10):
            net = random_connected_network(rng, 5)
            block = frozenset(range(1, net.n + 1))
            m = min_failed_subset_size(net, frozenset(), block)
            assert 1 <= m <= net.n
            hit = any(
                not is_terminal_connected(net, frozenset(sub))
                for sub in itertools.combinations(sorted(block), m)
            )
            assert hit
            for r in range(1, m):
                for sub in itertools.combinations(sorted(block), r):
                    assert is_terminal_connected(net, frozenset(sub))

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
                m = min_failed_subset_size(net, removed, block)
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
        assert min_failed_subset_size(net, frozenset(removed), frozenset(block)) == m
        rest = tuple(x for x in range(1, net.n + 1) if x not in set(removed) | set(block))
        order = tuple(b for b in (tuple(removed), tuple(block), rest) if b)
        assert calculate_m(net, order).M == len(removed) + m == oracle.order_m(order)

    def test_thirty_parallel_links(self):
        # 2**30 subsets for a scan by size; 30 augmenting paths for the cut.
        net = parse_network("terminals s t\n" + "edge s t\n" * 30)
        assert min_failed_subset_size(net, frozenset(), frozenset(range(1, 31))) == 30
        assert calculate_m(net, (tuple(range(1, 31)),)).M == 30


class TestGreedyFailedCount:
    def test_parallel(self):
        net = load_fixture("parallel2")
        assert greedy_failed_count(net, frozenset(), frozenset({1, 2})) == 2

    def test_bridge(self):
        net = load_fixture("bridge")
        assert greedy_failed_count(net, frozenset({3}), frozenset({1, 2, 4, 5})) == 2

    def test_counterexample_order_dependence(self):
        # shortest-path search needs all three links; a longest-path-first
        # strategy would take the s-a-b-t walk and count a single iteration
        net = load_fixture("counterexample")
        assert greedy_failed_count(net, frozenset(), frozenset({1, 2, 3})) == 3

    def test_zigzag_undercounts(self):
        # the shortest path carries the whole three-link cut
        net = load_fixture("zigzag")
        block = frozenset({1, 2, 3})
        assert greedy_failed_count(net, frozenset(), block) == 1
        assert min_failed_subset_size(net, frozenset(), block) == 3

    def test_k_terminal_rejected(self):
        net = load_fixture("figure1")
        with pytest.raises(UnsupportedModeError):
            greedy_failed_count(net, frozenset(), frozenset(range(1, 10)))

    def test_never_exceeds_exact(self, rng):
        for _ in range(20):
            net = random_connected_network(rng, rng.randint(4, 6))
            for _ in range(20):
                removed = frozenset(
                    link for link in range(1, net.n + 1) if rng.random() < 0.3
                )
                if not is_terminal_connected(net, removed):
                    continue
                block = frozenset(range(1, net.n + 1)) - removed
                if not block or is_terminal_connected(net, removed | block):
                    continue
                greedy = greedy_failed_count(net, removed, block)
                exact = min_failed_subset_size(net, removed, block)
                assert greedy <= exact
