"""Measurement paths under the three probing mechanisms, read as traces.

A probe fails iff some non-monitor on its path failed (monitors are assumed
reliable), so an analysis reads a path only as its trace: the set of
non-monitors it visits. A :class:`PathSet` holds each trace as a bitmask;
node sequences exist only while a path file is parsed or a route is walked.
The three mechanisms differ only in which paths are available:

* UP: probing along routing-determined paths; modeled as the hop-count
  shortest path per monitor pair with deterministic lexicographic
  tie-breaking, or as an externally supplied path file. One entry per
  route or file line, so paths that share a trace are all kept.
* CSP: any simple path between two distinct monitors (controllable
  source routing, but no repeated nodes).
* CAP: any monitor-to-monitor walk, same endpoint allowed, that uses each
  link at most once per direction.

Paths with one trace fail together, so two failure sets are told apart by
the traces they hit. The CSP and CAP enumerators give each achievable trace
once, as the bitmask the path set keeps, never every path (whose count
blows up factorially): CSP by a DP over the 2^n visited sets, CAP by one
flood fill for each of the 2^sigma sets of non-monitors. Both refuse more
than ``DEFAULT_MAX_ENUM_NODES`` (14) nodes before any allocation.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Iterable

from .errors import EnumerationCapError, TopologyError
from .topology import Record, Topology, hops

#: Node cap of the exponential CSP/CAP enumerators.
DEFAULT_MAX_ENUM_NODES = 14

_DIGITS = bytes.maketrans(b"01", b"\0\1")


class PathSet(Record):
    """An ordered collection of measurement paths over a fixed non-monitor universe.

    Each path is its trace, the set of non-monitors it visits, held only as
    a bitmask in ``trace_masks``: bit j stands for ``universe[-1 - j]``.
    ``universe`` lists every non-monitor of the topology (sorted), so nodes
    that no path visits still have a well-defined, empty incidence set.
    ``paths``, the traces as frozensets, are made from the masks when first read.
    """

    _fields = ("paths", "universe")

    def __init__(self, paths: Iterable[Iterable[str]], universe: Iterable[str]) -> None:
        self.universe: tuple[str, ...] = tuple(universe)
        bit = _bits(self.universe)
        traces = [frozenset(p) for p in paths]
        for p in traces:
            if not p <= bit.keys():
                raise ValueError(f"path trace node {min(p - bit.keys())!r} outside the universe")
        self.trace_masks = tuple(sum(map(bit.__getitem__, p)) for p in traces)

    @classmethod
    def _of_masks(cls, masks: Iterable[int], universe: tuple[str, ...]) -> PathSet:
        """A path set over trace bitmasks already in this bit order."""
        ps = cls.__new__(cls)
        ps.trace_masks, ps.universe = tuple(masks), universe
        return ps

    @cached_property
    def paths(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(self.names(m)) for m in self.trace_masks)

    def names(self, mask: int) -> list[str]:
        """The nodes of a trace bitmask, in universe order."""
        # digit i of the sigma-digit binary text is bit sigma - 1 - i: universe[i]
        return list(compress(self.universe, f"{mask:0{len(self.universe)}b}".encode().translate(_DIGITS)))

    @property
    def gamma(self) -> int:
        """Number of measurement paths."""
        return len(self.trace_masks)

    @cached_property
    def incidence_masks(self) -> dict[str, int]:
        """Incidence sets as bitmasks over path indices (fast set algebra)."""
        masks = [0] * len(self.universe)
        for i, trace in enumerate(self.trace_masks):
            while trace:
                masks[-(trace & -trace).bit_length()] |= 1 << i
                trace &= trace - 1
        return dict(zip(self.universe, masks))

    @cached_property
    def directly_measured(self) -> frozenset[str]:
        """Nodes that are the only non-monitor on some path.

        Such a path reads the node's state regardless of any other failure
        (the 2-hop monitor-node-monitor situation, generalized to any path
        whose interior monitors cannot fail).
        """
        return frozenset(self.universe[-m.bit_length()] for m in self.trace_masks if m.bit_count() == 1)


def _bits(universe: tuple[str, ...]) -> dict[str, int]:
    """Each node's bit in :class:`PathSet`'s order: bit j for ``universe[-1 - j]``."""
    return {v: 1 << j for j, v in enumerate(reversed(universe))}


def _trace_set(t: Topology, masks: list[int]) -> PathSet:
    """Trace bitmasks as a path set in (size, sorted names) order: the lower
    name holds the higher bit, so equal-size traces sort as descending integers."""
    masks.sort(reverse=True)
    masks.sort(key=int.bit_count)
    return PathSet._of_masks(masks, t.non_monitors)


def _index_graph(t: Topology, what: str) -> tuple[list[int], int]:
    """Neighbour and monitor bitmasks, past the enumerators' checks: the
    non-monitors in :class:`PathSet`'s bit order, then the monitors by name."""
    t.require_monitored()
    if len(t.nodes) > DEFAULT_MAX_ENUM_NODES:
        raise EnumerationCapError(
            f"{what}: {len(t.nodes)} nodes exceeds the cap of {DEFAULT_MAX_ENUM_NODES}; "
            "only the cut-based bounds run at this size"
        )
    index = {v: i for i, v in enumerate(t.non_monitors[::-1] + tuple(sorted(t.monitors)))}
    adj = [0] * len(t.nodes)
    for u, v in t.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return adj, sum(1 << index[m] for m in t.monitors)


def route_up(t: Topology) -> PathSet:
    """Hop-count shortest path for every unordered monitor pair.

    Deterministic tie-breaking: BFS runs from the lexicographically smaller
    monitor of the pair, and the trace ORs the bits met walking back from the
    far end, always to the lexicographically smallest neighbor one hop closer
    to the source. Fewer than two monitors yield an empty set.
    """
    t.require_monitored()
    monitors = sorted(t.monitors)
    adj = t.adjacency
    bit = _bits(t.non_monitors)
    masks: list[int] = []
    for a in monitors:
        dist = hops(adj, a)
        for b in monitors:
            if b <= a:
                continue
            mask = 0
            node = b
            while node != a:
                node = min(w for w in adj[node] if dist[w] == dist[node] - 1)
                mask |= bit.get(node, 0)
            masks.append(mask)
    return PathSet._of_masks(masks, t.non_monitors)


def csp_traces(t: Topology) -> list[int]:
    """Every trace of a simple path between two distinct monitors, as a
    bitmask in :class:`PathSet`'s bit order; interior nodes may be monitors.

    ``ends[used]`` holds the nodes where a simple path from a monitor other
    than the largest can end having visited exactly ``used``. Walked in
    increasing order, each visited set is complete when read: the OR of its
    ends' neighbours records ``used``'s non-monitors as a trace if it holds
    a monitor outside ``used``, and extends ``used`` by each new neighbour.
    """
    adj, monitors = _index_graph(t, "simple-path enumeration")
    ends = [0] * (1 << len(adj))
    for a in range(t.sigma, len(adj) - 1):
        ends[1 << a] = 1 << a
    traces: set[int] = set()
    for used, tails in enumerate(ends):
        if not tails:
            continue
        reach = 0
        while tails:
            low = tails & -tails
            tails ^= low
            reach |= adj[low.bit_length() - 1]
        if reach & monitors & ~used:
            traces.add(used & ~monitors)
        step = reach & ~used
        while step:
            bit = step & -step
            step ^= bit
            ends[used | bit] |= bit
    return list(traces)


def cap_traces(t: Topology) -> list[int]:
    """Every trace of a monitor-to-monitor walk that uses each link at most
    once per direction, as a bitmask in :class:`PathSet`'s bit order.

    The traces are the sets C minus the monitors for connected node sets C
    of two or more nodes holding a monitor: a walk visits such a set, and a
    closed walk around a spanning tree of C uses each tree link once per
    direction. So the empty set is a trace iff two monitors are adjacent,
    and a set T of non-monitors is one iff a flood fill from T's lowest node
    inside T and the monitors covers T and reaches a monitor.
    """
    adj, monitors = _index_graph(t, "walk enumeration")
    traces = [0] if any(a & monitors for a in adj[t.sigma :]) else []
    for subset in range(1, 1 << t.sigma):
        reached = frontier = subset & -subset
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow = adj[low.bit_length() - 1] & (subset | monitors) & ~reached
            reached |= grow
            frontier |= grow
        if reached & subset == subset and reached & monitors:
            traces.append(subset)
    return traces


def enumerate_csp(t: Topology) -> PathSet:
    """:func:`csp_traces` as a path set, in (size, sorted names) order."""
    return _trace_set(t, csp_traces(t))


def enumerate_cap(t: Topology) -> PathSet:
    """:func:`cap_traces` as a path set, in (size, sorted names) order."""
    return _trace_set(t, cap_traces(t))


def parse_paths(text: str, t: Topology) -> PathSet:
    """Parse a path file: one path per line, space-separated node names,
    ``#`` comments allowed.

    Each path must start and end at a monitor, use only known nodes, and
    step along existing links; its trace ORs its non-monitors' bits.
    Repeated nodes are allowed (walks); exact duplicate lines are dropped,
    but lines that differ and share a trace each stay a path. Path order
    follows the file, so externally documented path numbering is preserved.
    """
    t.require_monitored()
    bit = _bits(t.non_monitors)
    kept: dict[tuple[str, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        seq = tuple(line.split())
        if len(seq) < 2:
            raise TopologyError(f"line {lineno}: a path needs at least two nodes")
        for node in seq:
            if not t.has_node(node):
                raise TopologyError(f"line {lineno}: unknown node {node!r}")
        if seq[0] not in t.monitors or seq[-1] not in t.monitors:
            raise TopologyError(f"line {lineno}: path endpoints must be monitors")
        for u, v in zip(seq, seq[1:]):
            if not t.has_edge(u, v):
                raise TopologyError(f"line {lineno}: no link {u!r}-{v!r}")
        # a repeated line keeps the place of its first copy
        kept[seq] = sum({bit.get(v, 0) for v in seq})
    return PathSet._of_masks(kept.values(), t.non_monitors)
