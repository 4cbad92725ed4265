"""Bitmask connectivity engine of the network model, the order scorer and
the sampler.

Link subsets are encoded as integers (bit i-1 set means link i is removed),
which keeps the hot loops allocation-free.  On request a small network
precomputes a full connectivity table over all 2^n removal sets, which
serves only the paper-greedy count: its (R, B) pair sum asks the table
which sets keep the terminals connected, and its path loop reads the stop
test from it.  The paper-greedy count runs the paper's BFS path loop
itself: one breadth-first search per deleted path, stopped at the first
terminal.  Each link's two node indices are kept too, for the union-find
passes: the order scorer's and the order stream's, which find an order's
first fatal block without a connectivity query, and the fatal-block
minimum, a min cut on the components of the later links.
"""

from __future__ import annotations

from .errors import ContractError

# Above this link count a full 2^n connectivity table is not built and every
# query runs a fresh breadth-first search.
TABLE_MAX_LINKS = 16


class BitGraph:
    """Connectivity queries for one immutable network, keyed by removal mask."""

    def __init__(self, net, build_table: bool = False):
        self.n = len(net.links)
        self._node_index = {label: i for i, label in enumerate(net.nodes)}
        # adj[v] = list of (link_bit, neighbor), ascending link id.
        self.adj: list[list[tuple[int, int]]] = [[] for _ in net.nodes]
        # ends[link_id] = the link's two node indices and bits[link_id] its
        # removal-mask bit (index 0 is unused in both).
        self.ends: list[tuple[int, int]] = [(0, 0)]
        self.bits: list[int] = [0]
        for link_id, a, b in net.links:
            bit = 1 << (link_id - 1)
            ia, ib = self._node_index[a], self._node_index[b]
            self.adj[ia].append((bit, ib))
            self.adj[ib].append((bit, ia))
            self.ends.append((ia, ib))
            self.bits.append(bit)
        # Every node its own root: the union-find passes start from a copy.
        self.singletons = list(range(len(self.adj)))
        self.terminal_indices = sorted(self._node_index[t] for t in net.terminals)
        self.start = self.terminal_indices[0]
        self.terminal_node_mask = 0
        self.is_terminal = [False] * len(self.adj)
        for t in self.terminal_indices:
            self.terminal_node_mask |= 1 << t
            self.is_terminal[t] = True
        self._table: bytearray | None = None
        if build_table and self.n <= TABLE_MAX_LINKS:
            self._table = bytearray(
                self._bfs_connected(mask) for mask in range(1 << self.n)
            )

    def connected(self, removed_mask: int) -> bool:
        """True iff all terminals are in one component once the links in
        `removed_mask` are deleted."""
        if self._table is not None:
            return bool(self._table[removed_mask])
        return self._bfs_connected(removed_mask)

    def _bfs_connected(self, removed_mask: int) -> bool:
        seen = 1 << self.start
        queue = [self.start]
        head = 0
        goal = self.terminal_node_mask
        adj = self.adj
        while head < len(queue):
            if seen & goal == goal:
                return True
            v = queue[head]
            head += 1
            for bit, w in adj[v]:
                if bit & removed_mask or seen >> w & 1:
                    continue
                seen |= 1 << w
                queue.append(w)
        return seen & goal == goal

    def _check_fatal_block(self, removed_mask: int, block_mask: int) -> None:
        """Preconditions of min_subset_size, and of `_block_cut` and
        `_greedy_count`, which leave them to their caller: the block is
        disjoint from the removed links, the terminals are connected under
        `removed_mask` and disconnected once the whole block is removed."""
        if removed_mask & block_mask:
            raise ContractError("block overlaps already-removed links")
        if not self.connected(removed_mask):
            raise ContractError("terminals already disconnected before the block")
        if self.connected(removed_mask | block_mask):
            raise ContractError("removing the whole block does not disconnect")

    def min_subset_size(self, removed_mask: int, block: tuple[int, ...]) -> int:
        """Smallest number of `block` links whose removal, on top of
        `removed_mask`, disconnects the terminals: a min cut on the
        components of the other links, as `_block_cut` computes it.
        Preconditions as _check_fatal_block.
        """
        block_mask = 0
        for link in block:
            block_mask |= 1 << (link - 1)
        self._check_fatal_block(removed_mask, block_mask)
        parent = self.singletons.copy()
        ends = self.ends
        skip = removed_mask | block_mask
        for link in range(1, self.n + 1):
            if not skip >> (link - 1) & 1:
                a, b = ends[link]
                parent[_find(parent, a)] = _find(parent, b)
        return self._block_cut(parent, block)

    def _block_cut(self, parent: list[int], block) -> int:
        """Fewest links of the fatal block `block` whose removal disconnects
        the terminals; `parent` is a union-find forest over the links that
        fail after the block (compressed in place).

        The block's links are unit-capacity edges between those links'
        components (a link inside one component is left out).  Cutting
        every edge of one terminal's component separates it, and the block
        is fatal, so the answer lies between 1 and the least such degree,
        counted first: a least degree of 1 is returned before any flow
        network is built.  So is a least degree equal to the edge count:
        then every edge has an end at every terminal's component, so all
        edges join the same two components, and the cut takes them all.
        Otherwise the answer is the least max-flow (Ford & Fulkerson, 1956)
        from the pinned terminal's component to another terminal's, each
        flow stopping at the best value so far.
        """
        ends = self.ends
        # tails[2e], tails[2e+1]: the roots of a link's ends; arc 2e runs
        # from the first to the second, arc 2e+1 back.
        tails = []
        for link in block:
            a, b = ends[link]
            while a != parent[a]:
                parent[a] = a = parent[parent[a]]
            while b != parent[b]:
                parent[b] = b = parent[parent[b]]
            if a != b:
                tails += (a, b)
        roots = []
        for t in self.terminal_indices:
            while t != parent[t]:
                parent[t] = t = parent[parent[t]]
            roots.append(t)
        best = min(map(tails.count, roots))
        if best == 1 or 2 * best == len(tails):
            return best
        source = roots[0]
        sinks = set(roots) - {source}
        out: dict[int, list[tuple[int, int]]] = {}
        for arc in range(0, len(tails), 2):
            a, b = tails[arc], tails[arc + 1]
            out.setdefault(a, []).append((arc, b))
            out.setdefault(b, []).append((arc + 1, a))
        for sink in sinks:
            cap = [1] * len(tails)
            flow = 0
            while flow < best:
                via = {source: -1}
                stack = [source]
                while stack and sink not in via:
                    for arc, w in out[stack.pop()]:
                        if cap[arc] and w not in via:
                            via[w] = arc
                            stack.append(w)
                if sink not in via:
                    break
                w = sink
                while w != source:
                    arc = via[w]
                    cap[arc] -= 1
                    cap[arc ^ 1] += 1
                    w = tails[arc]
                flow += 1
            best = flow
        return best

    def _greedy_count(self, removed_mask: int, block_mask: int) -> int:
        """Path-destruction count of the paper's greedy two-terminal
        strategy: take the deterministic shortest path, delete its block
        links, and count the passes until the terminals disconnect.

        Each pass runs one breadth-first search from the last terminal,
        stopped at the layer that reaches the first, and walks back from
        the first terminal taking at each node the smallest link id one step
        closer: among the shortest paths, the lexicographically smallest
        link-id sequence.  Preconditions as _check_fatal_block, left to the
        caller.  The result never exceeds the true minimum subset size but
        can undercount it when one path carries several links of a minimum
        disconnecting subset.
        """
        adj = self.adj
        src, dst = self.terminal_indices[0], self.terminal_indices[-1]
        count = 0
        mask = removed_mask
        table = self._table  # if built, it answers the stop test without a search
        while table is None or table[mask]:
            dist = [-1] * len(adj)
            dist[dst] = 0
            frontier = [dst]
            while frontier and dist[src] < 0:
                nxt = []
                for v in frontier:
                    d = dist[v] + 1
                    for bit, w in adj[v]:
                        if dist[w] < 0 and not bit & mask:
                            dist[w] = d
                            nxt.append(w)
                frontier = nxt
            if dist[src] < 0:
                break
            crossed = 0
            v = src
            while v != dst:
                d = dist[v] - 1
                for bit, w in adj[v]:
                    if dist[w] == d and not bit & mask:
                        crossed |= bit
                        v = w
                        break
            mask |= crossed & block_mask
            count += 1
        return count


def _find(parent: list[int], x: int) -> int:
    """Root of `x` in a union-find forest, halving the path on the way."""
    while x != parent[x]:
        parent[x] = x = parent[parent[x]]
    return x
