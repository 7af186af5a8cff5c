"""Monitored network topologies and the virtual-monitor constructions.

The model is an undirected, connected graph whose nodes are partitioned into
monitors (reliable vantage points that source and sink probes) and
non-monitors (the nodes whose failures we try to localize). All analyses in
this package run either on the topology itself or on one of four derived
graphs that collapse monitor reachability into a single virtual monitor node.

Everything here is canonically ordered (nodes sorted by name) and never
changed after construction, so repeated runs are deterministic and instances
are safely shareable across threads.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property
from typing import Container, Iterable, Mapping

from .errors import TopologyError

#: Reserved name of the virtual monitor added by the derived-graph builders.
VIRTUAL_MONITOR = "__m'"

_MONITOR_HEADER = re.compile(r"^#\s*monitors\s*:\s*(.*)$", re.IGNORECASE)


def hops(adj: Mapping[str, Iterable[str]], source: str) -> dict[str, int]:
    """Hop distance from ``source`` to every node it reaches, by breadth-first search."""
    dist = {source: 0}
    queue = [source]
    for u in queue:
        d = dist[u] + 1
        for w in adj[u]:
            if w not in dist:
                dist[w] = d
                queue.append(w)
    return dist


class Record:
    """A value record over the attributes named in ``_fields``: equal to, and
    hashed as, a record of the same class with equal fields. A subclass sets
    its fields once in ``__init__`` and never again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Graph(Record):
    """A simple undirected graph, never changed after construction.

    Construction canonicalizes: nodes are sorted, each edge is stored as an
    ordered (min, max) pair and the edge list is sorted. Self-loops and
    parallel edges are rejected.
    """

    _fields = ("nodes", "edges")

    def __init__(self, nodes: Iterable[str], edges: Iterable[Iterable[str]]) -> None:
        self.nodes: tuple[str, ...] = tuple(sorted(set(nodes)))
        node_set = set(self.nodes)
        canon = []
        for edge in edges:
            try:
                u, v = edge
            except ValueError:
                raise TopologyError(f"edge must have exactly two endpoints: {edge!r}")
            if u == v:
                raise TopologyError(f"self-loop on {u!r}")
            if u not in node_set or v not in node_set:
                raise TopologyError(f"edge {u!r}-{v!r} references an unknown node")
            canon.append((u, v) if u < v else (v, u))
        dupes = [e for e, n in Counter(canon).items() if n > 1]
        if dupes:
            raise TopologyError(f"duplicate edge {dupes[0][0]!r}-{dupes[0][1]!r}")
        self.edges: tuple[tuple[str, str], ...] = tuple(sorted(canon))

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Neighbor lists, sorted by name for deterministic traversal."""
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {n: tuple(sorted(ns)) for n, ns in adj.items()}

    @cached_property
    def _edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return self.adjacency[v]
        except KeyError:
            raise ValueError(f"unknown node {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def has_node(self, v: str) -> bool:
        return v in self.adjacency

    def has_edge(self, u: str, v: str) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_set

    def is_connected(self) -> bool:
        return not self.nodes or len(hops(self.adjacency, self.nodes[0])) == len(self.nodes)


class Topology(Graph):
    """A connected graph plus its monitor set.

    Zero monitors are permitted at construction (generators produce bare
    graphs first and place monitors afterwards); every analysis entry point
    requires at least one monitor.
    """

    _fields = ("nodes", "edges", "monitors")

    def __init__(self, nodes: Iterable[str], edges: Iterable, monitors: Iterable[str] = ()) -> None:
        super().__init__(nodes, edges)
        self.monitors: frozenset[str] = frozenset(monitors)
        unknown = self.monitors - set(self.nodes)
        if unknown:
            raise TopologyError(f"unknown monitor name {sorted(unknown)[0]!r}")
        if VIRTUAL_MONITOR in self.adjacency:
            raise TopologyError(f"node name {VIRTUAL_MONITOR!r} is reserved")
        if not self.is_connected():
            raise TopologyError("topology must be connected")

    @cached_property
    def non_monitors(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if n not in self.monitors)

    @cached_property
    def non_monitor_set(self) -> frozenset[str]:
        return frozenset(self.non_monitors)

    @property
    def mu(self) -> int:
        """Number of monitors."""
        return len(self.monitors)

    @property
    def sigma(self) -> int:
        """Number of non-monitors (the largest conceivable failure set)."""
        return len(self.non_monitors)

    @property
    def xi(self) -> int:
        """Number of links."""
        return len(self.edges)

    @cached_property
    def monitor_neighbors(self) -> frozenset[str]:
        """Non-monitors adjacent to at least one monitor."""
        out = set()
        for m in self.monitors:
            for w in self.adjacency[m]:
                if w not in self.monitors:
                    out.add(w)
        return frozenset(out)

    @property
    def theta(self) -> int:
        """Number of non-monitors adjacent to some monitor."""
        return len(self.monitor_neighbors)

    def monitor_degree(self, v: str) -> int:
        return sum(1 for w in self.neighbors(v) if w in self.monitors)

    def nonmonitor_degree(self, v: str) -> int:
        return sum(1 for w in self.neighbors(v) if w not in self.monitors)

    def with_monitors(self, monitors: Iterable[str]) -> "Topology":
        return Topology(self.nodes, self.edges, frozenset(monitors))

    def require_monitored(self) -> None:
        if not self.monitors:
            raise TopologyError("analysis requires at least one monitor")


def check_members(allowed: Container[str], group: Iterable[str]) -> tuple[str, ...]:
    """The queried set, sorted, after checking it is a non-empty set of the
    non-monitors in ``allowed``, a set or mapping built once per topology or path set."""
    members = tuple(sorted(set(group)))
    if not members:
        raise ValueError("the queried set must be non-empty")
    for v in members:
        if v not in allowed:
            raise ValueError(f"{v!r} is not a non-monitor")
    return members


def check_k(k: int, sigma: int) -> None:
    """Refuse a failure bound k outside 1..sigma."""
    if sigma == 0:
        raise ValueError("k must be in 1..sigma, but the topology has no non-monitors")
    if k < 1 or k > sigma:
        raise ValueError(f"k must be in 1..{sigma}")


def _with_virtual_monitor(t: Topology, removed: Container[str], anchors: Iterable[str]) -> Graph:
    # The topology without the ``removed`` nodes and their links, plus the
    # virtual monitor linked to each of the ``anchors``.
    t.require_monitored()
    nodes = tuple(n for n in t.nodes if n not in removed) + (VIRTUAL_MONITOR,)
    edges = [e for e in t.edges if e[0] not in removed and e[1] not in removed]
    edges += [(VIRTUAL_MONITOR, w) for w in sorted(anchors)]
    return Graph(nodes, tuple(edges))


def build_star(t: Topology) -> Graph:
    """Replace all monitors with one virtual monitor tied to their neighborhood.

    Nodes: the non-monitors plus the virtual monitor. Edges: every
    non-monitor to non-monitor link, plus a link from the virtual monitor to
    each non-monitor that was adjacent to any monitor.
    """
    return _with_virtual_monitor(t, t.monitors, t.monitor_neighbors)


def build_minus_monitor(t: Topology, m: str) -> Graph:
    """Like :func:`build_star`, but ignore links contributed by monitor ``m``.

    The virtual monitor connects only to non-monitors adjacent to some
    monitor other than ``m``, so it is isolated when ``m`` is the only monitor.
    """
    t.require_monitored()
    if m not in t.monitors:
        raise ValueError(f"{m!r} is not a monitor")
    keep = {w for other in t.monitors - {m} for w in t.adjacency[other] if w not in t.monitors}
    return _with_virtual_monitor(t, t.monitors, keep)


def build_extended(t: Topology) -> Graph:
    """Keep the whole topology and attach the virtual monitor to every monitor."""
    return _with_virtual_monitor(t, (), t.monitors)


def build_extended_minus(t: Topology, w: str) -> Graph:
    """Extended graph with non-monitor ``w`` (and its links) removed."""
    t.require_monitored()
    if w in t.monitors or w not in t.adjacency:
        raise ValueError(f"{w!r} is not a non-monitor of the topology")
    return _with_virtual_monitor(t, (w,), t.monitors)


def load_topology(text: str, monitors: Iterable[str] | None = None) -> Topology:
    """Parse an edge-list document into a :class:`Topology`.

    Format: UTF-8 text, one ``u v`` pair per line, ``#`` starts a comment.
    The monitor set comes either from a ``# monitors: m1 m2 ...`` header line
    or from the ``monitors`` argument (one name per entry); an explicit
    argument wins over the header.
    """
    header_monitors: list[str] | None = None
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        header = _MONITOR_HEADER.match(line)
        if header:
            if header_monitors is not None:
                raise TopologyError(f"line {lineno}: repeated monitors header")
            header_monitors = header.group(1).replace(",", " ").split()
            continue
        if line.startswith("#"):
            continue
        body = line.split("#", 1)[0]
        parts = body.split()
        if len(parts) != 2:
            raise TopologyError(f"line {lineno}: expected 'u v', got {body.strip()!r}")
        edges.append((parts[0], parts[1]))
    if not edges:
        raise TopologyError("no edges found")
    chosen = list(monitors) if monitors is not None else (header_monitors or [])
    if not chosen:
        raise TopologyError("zero monitors: supply a '# monitors:' header or a monitor list")
    nodes = {n for e in edges for n in e}
    return Topology(tuple(sorted(nodes)), tuple(edges), frozenset(chosen))


def parse_monitor_names(text: str) -> tuple[str, ...]:
    """Parse a monitor list document: names separated by whitespace or commas,
    ``#`` comments allowed."""
    names: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            names.extend(line.replace(",", " ").split())
    return tuple(names)


def format_topology(t: Topology) -> str:
    """Render a topology in the edge-list format accepted by :func:`load_topology`."""
    lines = []
    if t.monitors:
        lines.append("# monitors: " + " ".join(sorted(t.monitors)))
    lines.extend(f"{u} {v}" for u, v in t.edges)
    return "\n".join(lines) + "\n"
