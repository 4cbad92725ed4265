"""Network model: multigraph with failing links and a terminal set.

The network is up while all terminals lie in one component.  Nodes never
fail; links are the failing units, identified by ids 1..n assigned in file
order.  Parallel links are allowed, self-loops are not.
"""

from __future__ import annotations

from ._bitgraph import BitGraph
from ._record import Record
from .errors import GraphParseError, NetworkValidationError


class Network(Record):
    """Immutable multigraph with distinguished terminals.

    links is a tuple of (link_id, endpoint_a, endpoint_b) with ids exactly
    1..n in order.  The intact network must be terminal-connected, otherwise
    its failure signature is undefined.
    """

    nodes: tuple[str, ...]
    links: tuple[tuple[int, str, str], ...]
    terminals: frozenset[str]
    name: str = ""
    _compare = ("nodes", "links", "terminals")

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise NetworkValidationError("duplicate node label")
        node_set = set(self.nodes)
        for pos, (link_id, a, b) in enumerate(self.links, start=1):
            if link_id != pos:
                raise NetworkValidationError(
                    f"link ids must be 1..n in order; position {pos} has id {link_id}"
                )
            if a not in node_set or b not in node_set:
                raise NetworkValidationError(f"link {link_id} references unknown node")
            if a == b:
                raise NetworkValidationError(f"link {link_id} is a self-loop on {a!r}")
        if len(self.terminals) < 2:
            raise NetworkValidationError("at least two terminals required")
        missing = self.terminals - node_set
        if missing:
            raise NetworkValidationError(f"unknown terminal(s): {sorted(missing)}")
        if not self.links or not BitGraph(self).connected(0):
            raise NetworkValidationError("intact network is not terminal-connected")

    @property
    def n(self) -> int:
        """Number of links."""
        return len(self.links)


def parse_network(text: str, name: str = "") -> Network:
    """Parse the line-oriented edge-list format into a Network.

    Format: '#' starts a comment; 'node LABEL' optionally pre-declares a
    node; one 'terminals LABEL LABEL ...' line is required; each
    'edge LABEL LABEL' line adds a link, ids assigned 1, 2, ... in file
    order.  When explicit 'node' lines are present they are authoritative
    and edges/terminals may only use declared labels; otherwise nodes are
    declared implicitly by the edges.
    """
    explicit_nodes: list[str] = []
    nodes: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str, int]] = []
    terminals: list[str] | None = None
    terminals_line = 0

    def declare(label: str) -> None:
        if label not in seen:
            seen.add(label)
            nodes.append(label)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node":
            if len(parts) != 2:
                raise GraphParseError("expected 'node LABEL'", line=lineno)
            if parts[1] in seen:
                raise GraphParseError(f"duplicate node label {parts[1]!r}", line=lineno)
            declare(parts[1])
            explicit_nodes.append(parts[1])
        elif kind == "edge":
            if len(parts) != 3:
                raise GraphParseError("expected 'edge LABEL LABEL'", line=lineno)
            a, b = parts[1], parts[2]
            if a == b:
                raise GraphParseError(f"self-loop on {a!r}", line=lineno)
            if explicit_nodes:
                for label in (a, b):
                    if label not in seen:
                        raise GraphParseError(f"unknown node {label!r}", line=lineno)
            else:
                declare(a)
                declare(b)
            edges.append((a, b, lineno))
        elif kind == "terminals":
            if terminals is not None:
                raise GraphParseError("duplicate 'terminals' line", line=lineno)
            if len(parts) < 3:
                raise GraphParseError("at least two terminals required", line=lineno)
            if len(set(parts[1:])) != len(parts) - 1:
                raise GraphParseError("repeated terminal label", line=lineno)
            terminals = parts[1:]
            terminals_line = lineno
        else:
            raise GraphParseError(f"unknown directive {kind!r}", line=lineno)

    if terminals is None:
        raise GraphParseError("missing 'terminals' line")
    for label in terminals:
        if label not in seen:
            raise GraphParseError(f"unknown terminal {label!r}", line=terminals_line)
    if not edges:
        raise GraphParseError("network has no edges")
    links = tuple((i, a, b) for i, (a, b, _) in enumerate(edges, start=1))
    try:
        return Network(
            nodes=tuple(nodes), links=links, terminals=frozenset(terminals), name=name
        )
    except NetworkValidationError as exc:
        raise GraphParseError(str(exc), line=terminals_line) from exc
