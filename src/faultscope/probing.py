"""Measurement paths under the three probing mechanisms.

A measurement path is a monitor-to-monitor node sequence; what an analysis
consumes is its trace, the set of non-monitors it visits (a probe fails iff
some traced node failed; monitors are assumed reliable). The three
mechanisms differ only in which paths are available:

* UP: probing along routing-determined paths; modeled as the hop-count
  shortest path per monitor pair with deterministic lexicographic
  tie-breaking, or as an externally supplied path file.
* CSP: any simple path between two distinct monitors (controllable
  source routing, but no repeated nodes).
* CAP: any monitor-to-monitor walk, same endpoint allowed, that uses each
  link at most once per direction.

Paths with one trace fail together, so two failure sets are told apart by
the traces they hit and the oracle needs nothing beyond the set of
achievable traces. Both enumerators therefore return one path per
achievable trace, never every path (whose count blows up factorially). CSP
keeps the first simple path of each trace in (length, node sequence) order,
found by a DP over at most n * 2^(n-1) (end node, visited set) states. CAP
uses that a node set is a trace exactly when it is the non-monitor part of
a connected subgraph containing a monitor: it scans the 2^n node subsets and
materializes one spanning-tree walk per distinct trace. Both refuse more
than ``DEFAULT_MAX_ENUM_NODES`` (14) nodes unless the caller lifts the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import EnumerationCapError, TopologyError
from .topology import Topology

#: Default enumeration guards for the exponential CSP/CAP enumerators.
DEFAULT_MAX_ENUM_NODES = 14
DEFAULT_MAX_ENUM_EDGES = 20


@dataclass(frozen=True)
class Path:
    """One measurement path: the node sequence and its non-monitor trace."""

    nodes: tuple[str, ...]
    trace: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "trace", frozenset(self.trace))


@dataclass(frozen=True)
class PathSet:
    """An ordered collection of measurement paths over a fixed non-monitor universe.

    ``universe`` lists every non-monitor of the topology (sorted), so nodes
    that no path visits still have a well-defined, empty incidence set.
    """

    paths: tuple[Path, ...]
    universe: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))
        object.__setattr__(self, "universe", tuple(self.universe))
        uni = set(self.universe)
        for p in self.paths:
            stray = p.trace - uni
            if stray:
                raise ValueError(f"path trace node {sorted(stray)[0]!r} outside the universe")

    @property
    def gamma(self) -> int:
        """Number of measurement paths."""
        return len(self.paths)

    @cached_property
    def incidence_masks(self) -> dict[str, int]:
        """Incidence sets as bitmasks over path indices (fast set algebra)."""
        masks: dict[str, int] = {v: 0 for v in self.universe}
        for i, p in enumerate(self.paths):
            bit = 1 << i
            for v in p.trace:
                masks[v] |= bit
        return masks

    @cached_property
    def directly_measured(self) -> frozenset[str]:
        """Nodes that are the only non-monitor on some path.

        Such a path reads the node's state regardless of any other failure
        (the 2-hop monitor-node-monitor situation, generalized to any path
        whose interior monitors cannot fail).
        """
        return frozenset(next(iter(p.trace)) for p in self.paths if len(p.trace) == 1)


def _make_path(seq: Iterable[str], monitors: frozenset[str]) -> Path:
    nodes = tuple(seq)
    return Path(nodes, frozenset(n for n in nodes if n not in monitors))


def _require_enum_caps(t: Topology, max_nodes: int | None, max_edges: int | None, what: str) -> None:
    if max_nodes is not None and len(t.nodes) > max_nodes:
        raise EnumerationCapError(
            f"{what}: {len(t.nodes)} nodes exceeds the cap of {max_nodes}; "
            "raise max_nodes explicitly or use the cut-based analysis"
        )
    if max_edges is not None and t.xi > max_edges:
        raise EnumerationCapError(
            f"{what}: {t.xi} links exceeds the cap of {max_edges}; "
            "raise max_edges explicitly or use the cut-based analysis"
        )


def route_up(t: Topology) -> PathSet:
    """Hop-count shortest path for every unordered monitor pair.

    Deterministic tie-breaking: BFS runs from the lexicographically smaller
    monitor of the pair, and the path is reconstructed from the far end by
    always stepping to the lexicographically smallest neighbor that is one
    hop closer to the source. Fewer than two monitors yield an empty set.
    """
    t.require_monitored()
    monitors = sorted(t.monitors)
    adj = t.adjacency
    paths: list[Path] = []
    for a in monitors:
        dist = {a: 0}
        frontier = [a]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        for b in monitors:
            if b <= a:
                continue
            seq = [b]
            node = b
            while node != a:
                node = min(w for w in adj[node] if dist[w] == dist[node] - 1)
                seq.append(node)
            seq.reverse()
            paths.append(_make_path(seq, t.monitors))
    return PathSet(tuple(paths), t.non_monitors)


def enumerate_csp(
    t: Topology,
    *,
    max_nodes: int | None = DEFAULT_MAX_ENUM_NODES,
    max_edges: int | None = DEFAULT_MAX_ENUM_EDGES,
) -> PathSet:
    """One simple path between two distinct monitors per achievable trace.

    Interior nodes may themselves be monitors (a controllable simple route
    does not have to detour around one). Paths are oriented from their
    smaller endpoint, and of all simple paths sharing a trace only the first
    in (length, node sequence) order is kept; the result is in that order.

    A layered DP over (end node, visited set) states replaces a listing of
    every path: layer L holds, per state, the smallest L-node sequence
    reaching it, seeded with every monitor but the largest. Among equal-length
    sequences the smallest prefix gives the smallest extension, and a state
    reached from a smaller start monitor dominates (same completions, each
    smaller, same trace), so one state table serves all starts. Each layer
    is walked in sequence order and extended through sorted neighbors, so the
    first sequence to reach a state or a trace is its smallest and nothing is
    compared or sorted. There are at most n * 2^(n-1) states.
    """
    t.require_monitored()
    _require_enum_caps(t, max_nodes, max_edges, "simple-path enumeration")
    nodes = t.nodes
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adj = [tuple(index[w] for w in t.adjacency[v]) for v in nodes]
    monitors = sorted(index[m] for m in t.monitors)
    monitor_mask = sum(1 << i for i in monitors)
    # state key used * n + end -> smallest sequence; dicts keep insertion order
    layer = {(1 << a) * n + a: (a,) for a in monitors[:-1]}
    best: dict[int, tuple[int, ...]] = {}  # trace mask -> first path, in (len, seq) order
    while layer:
        nxt: dict[int, tuple[int, ...]] = {}
        for key, seq in layer.items():
            used = key // n
            for w in adj[seq[-1]]:
                bit = 1 << w
                if used & bit:
                    continue
                nkey = (used | bit) * n + w
                if nkey in nxt:
                    continue
                nseq = seq + (w,)
                nxt[nkey] = nseq
                if monitor_mask & bit and w > seq[0]:
                    best.setdefault(used & ~monitor_mask, nseq)
        layer = nxt
    return PathSet(
        tuple(_make_path((nodes[i] for i in s), t.monitors) for s in best.values()),
        t.non_monitors,
    )


def enumerate_cap(
    t: Topology,
    *,
    max_nodes: int | None = DEFAULT_MAX_ENUM_NODES,
    max_edges: int | None = DEFAULT_MAX_ENUM_EDGES,
) -> PathSet:
    """One walk per achievable trace under link-once-per-direction probing.

    Achievable traces are exactly the sets C cap N for connected subgraphs C
    that contain a monitor and at least two nodes (a probe crosses at least
    one link): any walk visits such a set, and conversely a depth-first
    closed walk of a spanning tree of C uses each tree link once per
    direction. Traces are deduplicated; each is materialized as the tree
    walk of the smallest qualifying subgraph found.
    """
    t.require_monitored()
    _require_enum_caps(t, max_nodes, max_edges, "walk enumeration")
    nodes = t.nodes
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adj_masks = [0] * n
    for u, v in t.edges:
        adj_masks[index[u]] |= 1 << index[v]
        adj_masks[index[v]] |= 1 << index[u]
    monitor_mask = 0
    for m in t.monitors:
        monitor_mask |= 1 << index[m]
    nonmon_mask = ((1 << n) - 1) ^ monitor_mask

    chosen: dict[int, int] = {}  # trace mask -> subgraph mask (first = smallest)
    for mask in range(3, 1 << n):
        if mask & monitor_mask == 0 or mask.bit_count() < 2:
            continue
        trace = mask & nonmon_mask
        if trace in chosen:
            continue
        # connectivity of the induced subgraph, by bitmask BFS
        start = mask & (-mask)
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            scan = frontier
            while scan:
                low = scan & (-scan)
                scan ^= low
                nxt |= adj_masks[low.bit_length() - 1] & mask & ~seen
            seen |= nxt
            frontier = nxt
        if seen == mask:
            chosen[trace] = mask

    def tree_walk(mask: int) -> tuple[str, ...]:
        members = [nodes[i] for i in range(n) if mask >> i & 1]
        start = min(m for m in members if m in t.monitors)
        member_set = set(members)
        seq = [start]
        visited = {start}
        def descend(u: str) -> None:
            for w in t.adjacency[u]:
                if w in member_set and w not in visited:
                    visited.add(w)
                    seq.append(w)
                    descend(w)
                    seq.append(u)
        descend(start)
        return tuple(seq)

    traces = sorted(chosen, key=lambda tr: (tr.bit_count(), [nodes[i] for i in range(n) if tr >> i & 1]))
    paths = [_make_path(tree_walk(chosen[tr]), t.monitors) for tr in traces]
    return PathSet(tuple(paths), t.non_monitors)


def affected(ps: PathSet, failures: Iterable[str]) -> frozenset[int]:
    """Indices of the paths disrupted when exactly ``failures`` fail."""
    fset = frozenset(failures)
    stray = fset - set(ps.universe)
    if stray:
        raise ValueError(f"failure set contains non-failable node {sorted(stray)[0]!r}")
    mask = 0
    for v in fset:
        mask |= ps.incidence_masks[v]
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def simulate(ps: PathSet, states: Mapping[str, int]) -> tuple[int, ...]:
    """Path outcomes for a full node-state assignment (1 = failed).

    ``states`` must assign a state to exactly the non-monitor universe;
    anything else is a dimension mismatch.
    """
    if set(states) != set(ps.universe):
        raise ValueError("state vector must cover exactly the non-monitors")
    return tuple(1 if any(states[v] for v in p.trace) else 0 for p in ps.paths)


def parse_paths(text: str, t: Topology) -> PathSet:
    """Parse a path file: one path per line, space-separated node names,
    ``#`` comments allowed.

    Each path must start and end at a monitor, use only known nodes, and
    step along existing links. Repeated nodes are allowed (walks); exact
    duplicate lines are dropped. Path order follows the file, so externally
    documented path numbering is preserved.
    """
    t.require_monitored()
    seqs: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
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
        if seq not in seen:
            seen.add(seq)
            seqs.append(seq)
    return PathSet(tuple(_make_path(s, t.monitors) for s in seqs), t.non_monitors)


def format_paths(ps: PathSet) -> str:
    """Render a path set in the format accepted by :func:`parse_paths`."""
    return "\n".join(" ".join(p.nodes) for p in ps.paths) + ("\n" if ps.paths else "")
