import itertools
import math
import os
import random
import time
import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from netsig import classic_signature, engine, exact_tsignature, frontier
from netsig._bitgraph import BitGraph
from netsig.combinatorics import (
    build_stratum_table,
    enumerate_orders,
    iter_base_partitions,
    n_star,
    random_order,
    unrank_order,
)
from netsig.engine import M_MODES, TSignature, calculate_m
from netsig.errors import EnumerationCapError, UnsupportedModeError
from netsig.fixtures import FIXTURE_NAMES, load_fixture
from netsig.graph import Network, parse_network

from conftest import (
    OracleNet,
    boland_classic_counts,
    oracle_greedy_histogram,
    oracle_histogram,
    oracle_pair_histogram,
    random_connected_network,
)


def _m_histogram(net, orders, m_mode):
    """Per-order scoring: the histogram of calculate_m over `orders`."""
    counts = [0] * net.n
    for order in orders:
        counts[calculate_m(net, order, m_mode) - 1] += 1
    return tuple(counts)


# Random two-terminal networks with 3 to 6 links.
small_networks = st.builds(
    random_connected_network, st.randoms(use_true_random=False), st.integers(3, 6)
)


# Random networks with 3 to 8 links and two to four terminals.
terminal_networks = st.builds(
    random_connected_network,
    st.randoms(use_true_random=False),
    st.integers(3, 8),
    st.sampled_from([2, 3, 4]),
)


def _with_parallel_links(net, rng):
    """`net` plus a parallel copy of some of its links (at least one)."""
    copies = [(a, b) for _, a, b in net.links if rng.random() < 0.5] or [net.links[0][1:]]
    links = net.links + tuple((i, a, b) for i, (a, b) in enumerate(copies, start=net.n + 1))
    return Network(nodes=net.nodes, links=links, terminals=net.terminals)


# Random networks with 3 to 16 links, two to four terminals and at most 7
# nodes: a shuffled link order can hold every node in the frontier, and 2^6
# side assignments keep one t-signature run under about 2 s.
order_networks = st.builds(
    random_connected_network,
    st.randoms(use_true_random=False),
    st.integers(3, 16),
    st.sampled_from([2, 3, 4]),
    st.just(7),
)


def _cuthill_mckee_order(net):
    """The link ids in a Cuthill-McKee order (Cuthill & McKee 1969): the
    nodes numbered breadth first from the node farthest from the
    terminals, neighbours by ascending degree, and each link placed by its
    later end, then its earlier end."""
    adjacent = {v: [] for v in net.nodes}
    for _, a, b in net.links:
        adjacent[a].append(b)
        adjacent[b].append(a)
    distance = dict.fromkeys(sorted(net.terminals), 0)
    queue = deque(distance)
    while queue:
        v = queue.popleft()
        for w in adjacent[v]:
            if w not in distance:
                distance[w] = distance[v] + 1
                queue.append(w)
    position = {}
    # The later starts number the nodes that the terminals do not reach.
    for start in (max(distance, key=distance.get), *net.nodes):
        if start in position:
            continue
        position[start] = len(position)
        queue = deque([start])
        while queue:
            for w in sorted(set(adjacent[queue.popleft()]), key=lambda x: len(adjacent[x])):
                if w not in position:
                    position[w] = len(position)
                    queue.append(w)
    ends = {i: sorted((position[a], position[b]), reverse=True) for i, a, b in net.links}
    return sorted(ends, key=lambda i: (ends[i], i))


def _cut_dp_in_order(net, classic, order):
    """The frontier DP's counts with its links taken in `order`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frontier, "_link_order", lambda bg: order)
        return frontier._cut_dp(net, classic)


def _orders_to_compare(net, rng, shuffled=True):
    """Link orders that must give the greedy order's counts: the reversed
    greedy order, a Cuthill-McKee order and, if `shuffled`, a random one."""
    greedy = frontier._link_order(net.bitgraph)
    orders = [greedy[::-1], _cuthill_mckee_order(net)]
    if shuffled:
        orders.append(rng.sample(greedy, len(greedy)))
    return orders


# Random networks with 3 to 6 links and two to four terminals, plus a
# parallel copy of some links.
parallel_networks = st.builds(
    _with_parallel_links,
    st.builds(
        random_connected_network,
        st.randoms(use_true_random=False),
        st.integers(3, 6),
        st.sampled_from([2, 3, 4]),
    ),
    st.randoms(use_true_random=False),
)


# Random networks with 3 to 7 links and two to four terminals, small enough
# for the brute-force oracle.
oracle_networks = st.builds(
    random_connected_network,
    st.randoms(use_true_random=False),
    st.integers(3, 7),
    st.sampled_from([2, 3, 4]),
)


def _classic_oracle(net):
    """Classic counts by scoring every permutation with the oracle."""
    oracle = OracleNet(net)
    counts = [0] * net.n
    for perm in itertools.permutations(range(1, net.n + 1)):
        counts[oracle.order_m(tuple((x,) for x in perm)) - 1] += 1
    return tuple(counts)


def _cut_shuffle_order(rng, n):
    """A failure order from a shuffle of the links cut at random points
    (independent of the package's sampler)."""
    links = list(range(1, n + 1))
    rng.shuffle(links)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return tuple(tuple(sorted(links[a:b])) for a, b in zip([0] + cuts, cuts + [n]))


def _star(leaves):
    """A star whose `leaves` leaves are all terminals."""
    nodes = ("hub",) + tuple(f"t{i}" for i in range(leaves))
    links = tuple((i, "hub", leaf) for i, leaf in enumerate(nodes[1:], start=1))
    return Network(nodes=nodes, links=links, terminals=frozenset(nodes[1:]))


def _relabelled(net, rng):
    """`net` written as a graph file with its links, their ends, the node
    declarations and the terminals shuffled, and parsed back: the same
    network, but other schedule tie-breaks and another pinned terminal."""
    links = [rng.sample(link[1:], 2) for link in net.links]
    nodes, terminals = list(net.nodes), sorted(net.terminals)
    for items in (links, nodes, terminals):
        rng.shuffle(items)
    text = "".join(f"node {x}\n" for x in nodes) + f"terminals {' '.join(terminals)}\n"
    return parse_network(text + "".join(f"edge {a} {b}\n" for a, b in links))


def _grid(rows, cols):
    """A rows x cols grid network with terminals at opposite corners."""
    label = [[f"v{r}_{c}" for c in range(cols)] for r in range(rows)]
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((label[r][c], label[r][c + 1]))
            if r + 1 < rows:
                pairs.append((label[r][c], label[r + 1][c]))
    return Network(
        nodes=tuple(x for row in label for x in row),
        links=tuple((i, a, b) for i, (a, b) in enumerate(pairs, start=1)),
        terminals=frozenset({label[0][0], label[-1][-1]}),
    )


# Ring a-b-c-d-a of terminals: links 1, 2 parallel a-b; 3 b-c; 4, 5
# parallel c-d; 6 d-a; 7, 8 the detour b-e-c.
_RING = Network(
    nodes=("a", "b", "c", "d", "e"),
    links=((1, "a", "b"), (2, "a", "b"), (3, "b", "c"), (4, "c", "d"),
           (5, "c", "d"), (6, "d", "a"), (7, "b", "e"), (8, "e", "c")),
    terminals=frozenset("abcd"),
)


class TestTSignatureType:
    def test_values_sum_to_one(self):
        sig = TSignature(n=3, counts=(1, 5, 7), total=13, mode="exact", m_mode="exact-subset")
        assert abs(sum(sig.values) - 1.0) < 1e-12

    def test_count_total_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TSignature(n=2, counts=(1, 1), total=3, mode="exact", m_mode="exact-subset")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TSignature(n=3, counts=(1, 2), total=3, mode="exact", m_mode="exact-subset")

    @pytest.mark.parametrize("mode, m_mode", [("nonsense", "exact-subset"), ("exact", "x")])
    def test_unknown_mode_rejected(self, mode, m_mode):
        with pytest.raises(ValueError, match="unknown m?_?mode"):
            TSignature(n=2, counts=(1, 2), total=3, mode=mode, m_mode=m_mode)


class TestCalculateM:
    def test_series_first_failure_kills(self):
        net = load_fixture("series2")
        assert calculate_m(net, ((1,), (2,))) == 1

    def test_parallel_single_block(self):
        net = load_fixture("parallel2")
        assert calculate_m(net, ((1, 2),)) == 2

    def test_bridge_two_blocks(self):
        net = load_fixture("bridge")
        assert calculate_m(net, ((3,), (1, 2, 4, 5))) == 3

    def test_rejects_mismatched_order(self):
        net = load_fixture("bridge")
        with pytest.raises(ValueError):
            calculate_m(net, ((1, 2),))

    def test_greedy_mode_needs_two_terminals(self):
        net = load_fixture("figure1")
        with pytest.raises(UnsupportedModeError):
            calculate_m(net, tuple((i,) for i in range(1, 10)), m_mode="paper-greedy")

    def test_scores_on_the_network_graph(self, monkeypatch):
        # The BitGraph that validated the network is the one M is scored on:
        # neither calculate_m, the frontier DP nor the order stream builds
        # another.  A limit of 300 cuts a 3-block partition, so the stream
        # both sums whole partitions and scores orders one by one.
        net = load_fixture("bridge")

        def build(*args, **kwargs):
            raise AssertionError("a BitGraph was built")
        monkeypatch.setattr(BitGraph, "__init__", build)
        assert calculate_m(net, ((3,), (1, 2, 4, 5))) == 3
        assert calculate_m(net, ((3,), (1, 2, 4, 5)), "paper-greedy") == 3
        assert classic_signature(net).counts == (0, 24, 72, 24, 0)
        for m_mode in M_MODES:
            expected = _m_histogram(net, itertools.islice(enumerate_orders(net.n), 300), m_mode)
            assert exact_tsignature(net, m_mode=m_mode, order_limit=300).counts == expected

    @settings(max_examples=120, deadline=None)
    @given(
        net=st.one_of(terminal_networks, parallel_networks),
        rng=st.randoms(use_true_random=False),
    )
    @example(net=load_fixture("figure1"), rng=random.Random(3))
    def test_matches_oracle_at_every_fatal_position(self, net, rng):
        # The fatal block is found by one union pass from the last block;
        # check it against the oracle's forward scan on a random order and
        # on two orders built from it: the blocks up to the fatal one merged
        # (the first block is fatal) and the blocks from it on merged (only
        # the last is fatal).
        oracle = OracleNet(net)
        order = _cut_shuffle_order(rng, net.n)
        fatal = next(
            k for k in range(len(order))
            if not oracle.connected(set().union(*order[: k + 1]))
        )
        first = (tuple(sorted(sum(order[: fatal + 1], ()))),) + order[fatal + 1 :]
        last = order[:fatal] + (tuple(sorted(sum(order[fatal:], ()))),)
        for scored in (order, first, last):
            assert calculate_m(net, scored, "exact-subset") == oracle.order_m(scored)

    @pytest.mark.parametrize("net, order, m", [
        # bridge (s-u, s-v, u-v, u-t, v-t): the first block cuts s off
        (load_fixture("bridge"), ((1, 2, 3), (4,), (5,)), 2),
        (load_fixture("bridge"), ((3,), (1,), (2, 4, 5)), 3),
        (load_fixture("bridge"), ((1,), (5,), (2, 3, 4)), 3),
        # 4 terminals a-d on a ring with parallel a-b and c-d links and a
        # detour b-e-c: the first block isolates a, and after the first
        # three blocks the rest of the ring is a cycle that needs two cuts
        (_RING, ((1, 2, 6), (3, 4), (5,), (7, 8)), 3),
        (_RING, ((4,), (1,), (3,), (2, 5, 6, 7, 8)), 5),
    ])
    def test_first_or_only_last_block_fatal(self, net, order, m):
        assert calculate_m(net, order) == m == OracleNet(net).order_m(order)

    def test_bounds_and_mode_ordering(self, rng):
        # 1 <= M <= n and greedy M never exceeds exact M
        for _ in range(10):
            net = random_connected_network(rng, rng.randint(4, 5))
            table = build_stratum_table(net.n)
            for _ in range(50):
                order = random_order(table, rng)
                exact = calculate_m(net, order, "exact-subset")
                greedy = calculate_m(net, order, "paper-greedy")
                assert 1 <= greedy <= exact <= net.n


def _oracle_m(net, order, m_mode):
    """M of `order` with the fatal block found by the oracle's forward
    scan and scored by the oracle's subset scan or greedy path count."""
    oracle = OracleNet(net)
    if m_mode == "exact-subset":
        return oracle.order_m(order)
    removed = ()
    for block in order:
        if not oracle.connected(set(removed + block)):
            return len(removed) + oracle.greedy_count(removed, block)
        removed += block
    raise AssertionError("removing all links must disconnect")


def _check_fused_scorer(net, ranks):
    """The fused scorer on each rank equals the listed block loop and the
    oracle on the order that `unrank_order` decodes, in each m-mode the
    network supports.  It runs with `BitGraph._block_cut` raising on a
    two-link block, which it scores without a flow."""
    bg = BitGraph(net)
    table = build_stratum_table(net.n)
    constants = engine._rank_constants(table)
    modes = M_MODES if len(net.terminals) == 2 else ("exact-subset",)
    expected = {}
    for u in ranks:
        order = unrank_order(table, u)
        for m_mode in modes:
            expected[u, m_mode] = engine._blocks_m(bg, order, m_mode)
            assert expected[u, m_mode] == _oracle_m(net, order, m_mode), (net, u, order, m_mode)
    block_cut = BitGraph._block_cut

    def no_pair(self, parent, block):
        if len(block) == 2:
            raise AssertionError(f"a flow ran on the two-link block {block}")
        return block_cut(self, parent, block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BitGraph, "_block_cut", no_pair)
        for (u, m_mode), m in expected.items():
            assert engine._order_m(bg, constants, u, m_mode) == m, (net, u, m_mode)


def _network(links, terminals):
    """A network of the links "a-b c-d ...", with ids 1, 2, ... in turn,
    and the terminals "s t ..."."""
    pairs = [link.split("-") for link in links.split()]
    nodes = tuple(dict.fromkeys(label for pair in pairs for label in pair))
    return Network(nodes=nodes, links=tuple((i, a, b) for i, (a, b) in enumerate(pairs, start=1)),
                   terminals=frozenset(terminals.split()))


class TestLazyScorer:
    @pytest.mark.parametrize("net", [
        load_fixture("bridge"),
        load_fixture("counterexample"),
        _with_parallel_links(random_connected_network(random.Random(4), 3), random.Random(4)),
        random_connected_network(random.Random(4), 6, 4),
        load_fixture("triangle"),
    ])
    def test_every_rank_of_a_small_network(self, net):
        assert net.n <= 6
        _check_fused_scorer(net, range(n_star(net.n)))

    @pytest.mark.parametrize("links, terminals, order, m", [
        # Both links alone join the two terminal components: parallel or
        # not, with or without a link removed before them.
        ("s-v s-v v-t", "s t", ((1, 2), (3,)), 2),
        ("s-t s-v v-t", "s t", ((1, 2), (3,)), 2),
        ("s-t s-v s-v v-t", "s t", ((1,), (2, 3), (4,)), 3),
        # One alone joins them, the lower link or the higher: removing it
        # leaves the other, which ends at the pendant node w.
        ("s-t s-v v-t t-w", "s t", ((2,), (1, 4), (3,)), 2),
        ("s-w s-v v-t s-t", "s t", ((2,), (1, 4), (3,)), 2),
        # Neither alone, jointly through the non-terminal node v; in the
        # second, the union of the higher link moves the root of the lower
        # link's end v.
        ("s-v v-t s-t", "s t", ((3,), (1, 2)), 2),
        ("t-v v-s s-t", "s t", ((3,), (1, 2)), 2),
        # Three terminals in three components, each link joining two.
        ("s-t t-w s-w", "s t w", ((3,), (1, 2)), 2),
        # Three terminals in two components: a parallel pair, and a pair
        # that joins them through v.
        ("s-t t-w s-w s-w", "s t w", ((1,), (3, 4), (2,)), 3),
        ("s-t t-w s-v v-w", "s t w", ((1,), (3, 4), (2,)), 2),
    ])
    def test_two_link_fatal_blocks(self, links, terminals, order, m):
        # Each order's fatal block is its two-link block.
        net = _network(links, terminals)
        table = build_stratum_table(net.n)
        u = next(u for u in range(n_star(net.n)) if unrank_order(table, u) == order)
        assert calculate_m(net, order) == m
        _check_fused_scorer(net, [u])

    @pytest.mark.parametrize("seed, links, terminals", [
        (1, 4, 2), (5, 3, 2), (5, 4, 2), (1, 4, 3), (5, 3, 3), (6, 4, 3),
    ])
    def test_every_rank_with_parallel_links(self, seed, links, terminals):
        rng = random.Random(seed)
        net = _with_parallel_links(random_connected_network(rng, links, terminals), rng)
        assert net.n <= 6
        _check_fused_scorer(net, range(n_star(net.n)))

    @pytest.mark.parametrize("name", ["figure1", "figure2", "eon_par_cop", "eon_lon_ber_mil"])
    def test_end_ranks_and_random_ranks(self, name):
        net = load_fixture(name)
        rng = random.Random(24)
        last = n_star(net.n) - 1
        _check_fused_scorer(net, [0, last] + [rng.randint(0, last) for _ in range(2_000)])

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.builds(
            random_connected_network,
            st.randoms(use_true_random=False),
            st.integers(4, 6),
            st.integers(2, 5),
        ),
        rng=st.randoms(use_true_random=False),
    )
    def test_random_ranks_with_parallel_links(self, base, rng):
        net = _with_parallel_links(base, rng)
        last = n_star(net.n) - 1
        _check_fused_scorer(net, [0, last] + [rng.randint(0, last) for _ in range(10)])

    @pytest.mark.parametrize("name", ["figure2", "eon_par_cop"])
    def test_stratum_boundaries(self, name):
        # Every entry of every row and its neighbours.  A rank below F(m)
        # places the lowest links one by one, each a one-link last block,
        # until m links are unplaced, so row m-1 splits the rank itself.
        net = load_fixture(name)
        table = build_stratum_table(net.n)
        ranks = {entry + d for row in table for entry in row for d in (-1, 0, 1)}
        _check_fused_scorer(net, sorted(u for u in ranks if 0 <= u < n_star(net.n)))

    @pytest.mark.parametrize("name", ["figure2", "eon_par_cop"])
    def test_two_link_boundaries(self, name):
        # With m links unplaced, the rank row[0] + c * F(m-2) ends in the two
        # links of colex rank c, decoded in closed form from c = C(x, 2) + y:
        # every c next to a C(x, 2), at every m (reached as in the test
        # above).
        net = load_fixture(name)
        table = build_stratum_table(net.n)
        ranks = set()
        for m in range(2, net.n + 1):
            first, rest = table[m - 1][0], table[m - 3][-1] if m > 2 else 1
            for x in range(2, m + 1):
                pair = math.comb(x, 2)
                ranks.update(first + c * rest for c in range(pair - 1, min(pair + 2, math.comb(m, 2))))
        _check_fused_scorer(net, sorted(ranks))

    @pytest.mark.parametrize("u", [-1, 541, 2**200])
    def test_rank_out_of_range(self, u):
        net = load_fixture("bridge")
        with pytest.raises(ValueError, match="order rank"):
            engine._order_m(net.bitgraph, engine._rank_constants(build_stratum_table(net.n)), u,
                            "exact-subset")

    def test_blocks_that_never_join_the_terminals(self):
        # A partial order whose links never join the terminals raises
        # rather than wrapping around to the last block.
        bg = BitGraph(load_fixture("bridge"))
        for blocks in ([[1], [2]], [[2], [1]]):
            with pytest.raises(AssertionError):
                engine._blocks_m(bg, blocks, "exact-subset")


class TestExactTSignature:
    def test_series(self):
        assert exact_tsignature(load_fixture("series2")).values == (1.0, 0.0)

    def test_parallel(self):
        assert exact_tsignature(load_fixture("parallel2")).values == (0.0, 1.0)

    def test_totals_and_sum(self):
        net = load_fixture("bridge")
        sig = exact_tsignature(net)
        assert sig.total == n_star(5) == sum(sig.counts)
        assert abs(sum(sig.values) - 1.0) < 1e-12

    def test_zero_below_min_cut(self):
        net = load_fixture("figure1")
        sig = exact_tsignature(net)
        cut = BitGraph(net).min_subset_size(0, tuple(range(1, net.n + 1)))
        assert all(sig.values[i] == 0 for i in range(cut - 1))

    def test_cap_refusal(self):
        # The paper-greedy pairs are refused by link count, 3^n of them; the
        # frontier DP and the order stream are not.
        n = engine.GREEDY_MAX_LINKS + 1
        net = Network(nodes=("s", "t"), links=tuple((i, "s", "t") for i in range(1, n + 1)),
                      terminals=frozenset("st"))
        with pytest.raises(EnumerationCapError, match=f"{n} links .* paper-greedy limit of 12"):
            exact_tsignature(net, m_mode="paper-greedy")
        assert exact_tsignature(net, m_mode="paper-greedy", order_limit=10).counts[-1] == 10
        assert exact_tsignature(net).counts[-1] == n_star(n)

    def test_refusal_computes_no_fubini_numbers(self, monkeypatch):
        # n* is taken once the counts exist, so a refused run never
        # computes the Fubini numbers of its link count.
        def fubini(n):
            raise AssertionError(f"_fubini({n}) ran before the refusal")

        monkeypatch.setattr(frontier, "_fubini", fubini)
        with pytest.raises(EnumerationCapError, match="at link 1 of 40; use sampling"):
            exact_tsignature(_star(40))

    def test_refusal_builds_no_quadratic_list(self):
        # The `shift` lookup list, n + 1 tuples of 2n + 3 ints, is built with
        # the start state, once link 1's check has passed: a star refused at
        # link 1 allocates O(n) bytes (2.9 MB at 300 leaves when the list came
        # before the check).
        star = _star(300)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match="at link 1 of 300; use sampling"):
                exact_tsignature(star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300**2

    def test_state_guard_admits_a_3x5_grid(self, monkeypatch):
        # 22 links, 13,184,744 bytes at the peak by the DP's bounds (one
        # step's tables, 3,074 states with 3,074 offsets and their parents):
        # admitted by the default budget and by one of exactly that many
        # bytes, refused by one a byte lower.
        grid = _grid(3, 5)
        assert frontier.MEMORY_BUDGET >= 13_184_744
        monkeypatch.setattr(frontier, "MEMORY_BUDGET", 13_184_744)
        sig = exact_tsignature(grid)
        assert sig.total == n_star(22)
        assert sig.counts[0] == 0 and sig.counts[1] > 0  # corner terminals
        monkeypatch.setattr(frontier, "MEMORY_BUDGET", 13_184_743)
        with pytest.raises(EnumerationCapError,
                           match="13,184,743 bytes at link .* of 22; use sampling"):
            exact_tsignature(grid)

    @pytest.mark.parametrize("signature, least", [(exact_tsignature, 776_288),
                                                  (classic_signature, 758_832)])
    def test_state_guard_counts_one_step_of_tables(self, monkeypatch, signature, least):
        # The 12-leaf star's first step repeats φ over the hub and 11
        # terminals; each later step closes a terminal and halves it.  Only
        # the step that runs holds tables, so its peak is the second step's
        # tables with the first step's states and its own.
        star = _star(12)
        monkeypatch.setattr(frontier, "MEMORY_BUDGET", least)
        sig = signature(star)
        assert sig.counts[0] == sig.total
        monkeypatch.setattr(frontier, "MEMORY_BUDGET", least - 1)
        with pytest.raises(EnumerationCapError,
                           match=f"{least - 1:,} bytes at link 2 of 12; use sampling"):
            signature(star)

    @pytest.mark.parametrize("k", [10, 12])
    def test_star(self, k):
        # Each link of a star of terminals is a cut: the first failure downs
        # it.  Each terminal closes after its link, as other nodes do, so
        # no state holds a φ entry per terminal for long.
        started = time.process_time()
        assert exact_tsignature(_star(k)).counts == (n_star(k),) + (0,) * (k - 1)
        assert classic_signature(_star(k)).counts == (math.factorial(k),) + (0,) * (k - 1)
        assert time.process_time() - started < 1

    @settings(max_examples=30, deadline=None)
    @given(net=terminal_networks, rng=st.randoms(use_true_random=False))
    @example(net=load_fixture("figure1"), rng=random.Random(0))
    @example(net=load_fixture("figure2"), rng=random.Random(0))
    @example(net=load_fixture("zigzag"), rng=random.Random(0))
    @example(net=_star(5), rng=random.Random(0))
    def test_counts_do_not_depend_on_the_link_order(self, net, rng):
        # Terminals close at low frontier positions, which random networks
        # of up to 8 links rarely reach: the examples do.
        other = _relabelled(net, rng)
        assert exact_tsignature(other).counts == exact_tsignature(net).counts
        assert classic_signature(other).counts == classic_signature(net).counts

    @settings(max_examples=20, deadline=None)
    @given(net=order_networks, rng=st.randoms(use_true_random=False))
    def test_frontier_counts_do_not_depend_on_the_given_order(self, net, rng):
        # The counts are a sum over the labellings of the links, so any
        # order of the links gives the greedy order's integers; only the
        # number of states differs.
        for classic in (False, True):
            expected = frontier._cut_dp(net, classic)
            for order in _orders_to_compare(net, rng):
                assert _cut_dp_in_order(net, classic, order) == expected, order

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_frontier_counts_of_fixtures_do_not_depend_on_the_given_order(self, name):
        # Every fixture that fits: t-signatures up to 12 links, and classic
        # signatures of the 26-link EONs, whose shuffled orders would run
        # for minutes.
        net = load_fixture(name)
        for classic in (False, True) if net.n <= 12 else (True,):
            expected = frontier._cut_dp(net, classic)
            for order in _orders_to_compare(net, random.Random(name), shuffled=net.n <= 12):
                assert _cut_dp_in_order(net, classic, order) == expected, order

    @pytest.mark.parametrize(
        "name", ["series2", "series3", "parallel2", "bridge", "triangle",
                 "counterexample", "zigzag", "single_edge"]
    )
    def test_matches_brute_force_oracle(self, name):
        net = load_fixture(name)
        expected_counts, expected_total = oracle_histogram(net)
        sig = exact_tsignature(net)
        assert sig.counts == expected_counts
        assert sig.total == expected_total

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(25):
            net = random_connected_network(rng, rng.randint(4, 5))
            expected_counts, expected_total = oracle_histogram(net)
            sig = exact_tsignature(net)
            assert sig.counts == expected_counts and sig.total == expected_total

    @pytest.mark.usefixtures("greedy_search_on_large_blocks_only")
    def test_paper_greedy_pairs_match_oracle(self, rng):
        # The greedy search runs only on blocks of three or more links; the
        # counts equal the oracle's, which searches every block.  At most 6
        # nodes give parallel links and two-link blocks of minimum 2.
        for n_links in (4, 5, 6, 7, 8, 9, 10, 12):
            net = random_connected_network(rng, n_links, max_nodes=6)
            sig = exact_tsignature(net, m_mode="paper-greedy")
            assert sig.counts == oracle_greedy_histogram(net), net

    def test_cut_dp_matches_pair_oracle(self, rng):
        # Random 8- and 9-link networks with 2 to 5 terminals, past the
        # order oracle's 7 links: wider frontiers, where a B or S successor
        # takes off its minimum and shifts its offsets.  The pair oracle
        # scores each (R, B) pair by its own subset scan.
        for n_links in (8, 9) * 20:
            net = random_connected_network(rng, n_links, rng.randint(2, 5))
            assert exact_tsignature(net).counts == oracle_pair_histogram(net), net

    @settings(max_examples=30, deadline=None)
    @given(net=oracle_networks)
    def test_cut_dp_matches_oracle(self, net):
        assert exact_tsignature(net).counts == oracle_histogram(net)[0]

    @pytest.mark.parametrize("order_limit", [0, -5])
    def test_order_limit_must_be_positive(self, order_limit):
        with pytest.raises(ValueError, match="order_limit"):
            exact_tsignature(load_fixture("bridge"), order_limit=order_limit)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("shift", [-1, 0, 1], ids=["before", "on", "after"])
    @pytest.mark.parametrize("name, m_mode", [
        ("bridge", "exact-subset"),
        ("bridge", "paper-greedy"),
        ("figure1", "exact-subset"),  # three terminals: no greedy mode
    ])
    def test_order_limit_prefix(self, name, m_mode, shift, workers):
        # The stream sums each base partition that the limit leaves whole
        # over its (later blocks, fatal block) pairs and scores the one it
        # cuts order by order.  A limit on the start of the first 4-block
        # partition, one order before it or one after, matches a manual
        # walk of the first `limit` orders.
        net = load_fixture(name)
        limit = shift
        for blocks in iter_base_partitions(net.n):
            if len(blocks) == 4:
                break
            limit += math.factorial(len(blocks))
        expected = [0] * net.n
        for order in itertools.islice(enumerate_orders(net.n), limit):
            expected[_oracle_m(net, order, m_mode) - 1] += 1
        sig = exact_tsignature(net, m_mode=m_mode, workers=workers, order_limit=limit)
        assert sig.counts == tuple(expected)
        assert sig.total == limit

    @pytest.mark.parametrize("m_mode", M_MODES)
    def test_order_limit_on_eleven_links(self, m_mode):
        # The first 10^6 figure2 orders, with the counts that scoring each
        # order on its own gives.
        sig = exact_tsignature(load_fixture("figure2"), m_mode=m_mode, order_limit=10**6)
        assert sig.counts == (0, 51270, 241628, 192984, 215473, 182576, 100539, 15530, 0, 0, 0)

    def test_full_stream_matches_oracle(self, rng):
        # Over the whole stream, every base partition is summed over its
        # (later blocks, fatal block) pairs; that must give the oracle's
        # histogram.
        for _ in range(6):
            net = _with_parallel_links(
                random_connected_network(rng, rng.randint(3, 4), rng.randint(2, 4)), rng
            )
            if net.n > 7:
                continue
            counts, total = oracle_histogram(net)
            assert exact_tsignature(net, order_limit=total).counts == counts

    @pytest.mark.parametrize("m_mode", M_MODES)
    @settings(max_examples=20, deadline=None)
    @given(net=small_networks)
    # greedy and exact histograms differ on zigzag, on none of the random
    # networks with up to 6 links
    @example(net=load_fixture("zigzag"))
    def test_matches_per_order_scoring(self, m_mode, net):
        expected = _m_histogram(net, enumerate_orders(net.n), m_mode)
        assert exact_tsignature(net, m_mode=m_mode).counts == expected


class TestClassicSignature:
    def test_series(self):
        assert classic_signature(load_fixture("series2")).values == (1.0, 0.0)

    def test_takes_no_m_mode(self):
        with pytest.raises(TypeError):
            classic_signature(load_fixture("bridge"), "paper-greedy")

    def test_single_link(self):
        assert classic_signature(load_fixture("single_edge")).values == (1.0,)

    def test_bridge_exact_counts(self):
        sig = classic_signature(load_fixture("bridge"))
        assert sig.total == 120
        assert sig.counts == (0, 24, 72, 24, 0)
        assert sig.values == (0.0, 0.2, 0.6, 0.2, 0.0)

    def test_permutation_oracle(self, rng):
        for _ in range(5):
            net = random_connected_network(rng, 4)
            assert classic_signature(net).counts == _classic_oracle(net)

    def test_permutation_oracle_three_terminals(self, rng):
        for n_links in (4, 5, 6, 6, 7):
            net = random_connected_network(rng, n_links, n_terminals=3)
            assert classic_signature(net).counts == _classic_oracle(net)

    @pytest.mark.parametrize(
        "name",
        [name for name in FIXTURE_NAMES
         if load_fixture(name).n <= 11 and len(load_fixture(name).terminals) == 2],
    )
    def test_greedy_equals_exact_subset(self, name):
        # A one-link fatal block lies on every remaining terminal path, so
        # the greedy count there is 1.  The greedy classic histogram, summed
        # here over (R, e) pairs with checked greedy counts, equals the DP's
        # exact-subset one.  (figure1 has three terminals: no greedy mode.)
        net = load_fixture(name)
        bg = BitGraph(net)
        n = net.n
        counts = [0] * n
        for surviving in range(1 << n):
            if not bg.connected(surviving):
                continue
            r = surviving.bit_count()
            for link in range(n):
                bit = 1 << link
                if not bit & surviving and not bg.connected(surviving | bit):
                    bg._check_fatal_block(surviving, bit)
                    f = bg._greedy_count(surviving, bit)
                    counts[r + f - 1] += math.factorial(r) * math.factorial(n - r - 1)
        assert classic_signature(net).counts == tuple(counts)

    @pytest.mark.parametrize(
        "name", [name for name in FIXTURE_NAMES if load_fixture(name).n <= 12]
    )
    def test_boland_formula_on_fixtures(self, name):
        # A second algorithm: the counts follow from the number of removal
        # sets of each size that keep the terminals connected.
        net = load_fixture(name)
        assert classic_signature(net).counts == boland_classic_counts(net)

    @settings(max_examples=40, deadline=None)
    @given(net=terminal_networks)
    def test_boland_formula_on_random_networks(self, net):
        assert classic_signature(net).counts == boland_classic_counts(net)

    def test_eon_classic_signature(self):
        # 26 links: the DP's cost follows the frontier width, not 2^26.
        sig = classic_signature(load_fixture("eon_par_cop"))
        assert sig.total == math.factorial(26)
        # COP has degree 4, and the last link alone never disconnects.
        assert [sig.counts[i - 1] for i in (1, 2, 3, 26)] == [0, 0, 0, 0]

    @pytest.mark.parametrize("name, counts", [
        ("eon_par_cop", (
         0, 0, 0, 26976017466662584320000, 107904069866650337280000,
         273263553558400204800000, 562379896602079395840000,
         1031639060318982635520000, 1768800685948057681920000,
         2919362376603292139520000, 4733193005583320678400000,
         7636875050052353064960000, 12312824959587064872960000,
         19682694407300353228800000, 30500605358700028231680000,
         44045352560516648140800000, 55956019722016637583360000,
         58725112090823648870400000, 52339959745984264273920000,
         41261307651289426821120000, 29556256020454401638400000,
         19457065689136449454080000, 11707591580531561594880000,
         6204484017332394393600000, 2481793606932957757440000, 0)),
        ("eon_lon_ber_mil", (
         0, 0, 0, 53952034933325168640000, 221939052793905807360000,
         573678293528051712000000, 1195703215762589614080000,
         2203514689908438466560000, 3761799182133402009600000,
         6117618659652662722560000, 9650882837634387148800000,
         14934712505968740925440000, 22752221581869430210560000,
         33889982077829325127680000, 48277717352148731166720000,
         62888002058974534041600000, 69190341522723782000640000,
         57237817118247797391360000, 37025584279862179921920000,
         19792952140385316372480000, 8986166857401237504000000,
         3403882931247969730560000, 977880633166518681600000,
         155112100433309859840000, 0, 0)),
    ])
    def test_pinned_eon_classic_counts(self, name, counts):
        # The frontier DP's integers on the 26-link EONs, recorded before it
        # moved out of the engine.
        assert classic_signature(load_fixture(name)).counts == counts

    @pytest.mark.parametrize("m_mode", M_MODES)
    @settings(max_examples=20, deadline=None)
    @given(net=small_networks)
    def test_matches_per_order_scoring(self, m_mode, net):
        perms = itertools.permutations(range(1, net.n + 1))
        # Both m-modes score the single-link orders alike.
        expected = _m_histogram(net, (tuple((x,) for x in p) for p in perms), m_mode)
        sig = classic_signature(net)
        assert sig.counts == expected and sig.m_mode == "exact-subset"

    def test_cap_refusal(self):
        # 39 terminals beside the pinned one: the first step's tables alone
        # would pass the budget, so nothing is built.
        with pytest.raises(EnumerationCapError, match="bytes at link 1 of 40; use sampling"):
            classic_signature(_star(40))


class TestParallelDeterminism:
    def test_workers_match_single(self):
        net = load_fixture("figure2")
        limit = 50_000
        one = exact_tsignature(net, order_limit=limit)
        four = exact_tsignature(net, order_limit=limit, workers=4)
        assert one.counts == four.counts

    def test_workers_must_be_positive(self):
        # Checked even where the frontier program ignores the worker count.
        with pytest.raises(ValueError, match="workers must be >= 1"):
            exact_tsignature(load_fixture("bridge"), workers=0)

    def test_workers_above_ceiling(self):
        # Checked even where the frontier program ignores the worker count.
        with pytest.raises(ValueError, match="workers must be >= 1 and <= 1024"):
            exact_tsignature(load_fixture("bridge"), workers=engine.MAX_WORKERS + 1)

    def test_full_run_worker_counts_agree(self):
        net = load_fixture("bridge")
        base = exact_tsignature(net)
        for workers in (2, 3):
            assert exact_tsignature(net, workers=workers).counts == base.counts

    @pytest.mark.parametrize("affinity, cpus, workers, parts", [
        (2, 64, 5, 2), (8, 64, 5, 5), (1, 64, 8, 1), (None, 3, 5, 3), (None, None, 5, 1),
    ])
    def test_parts_bounded_by_usable_cpus(self, monkeypatch, affinity, cpus, workers, parts):
        # The workers run in at most as many forked parts as the CPUs this
        # process may run on (`os.sched_getaffinity`), not the host's
        # `os.cpu_count()`, which counts only where affinity is missing:
        # eight workers on one usable CPU of 64 fork nothing.
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        net = load_fixture("bridge")
        sig = exact_tsignature(net, order_limit=300, workers=workers)
        assert len(forks) == parts - 1
        assert sig.counts == exact_tsignature(net, order_limit=300).counts
