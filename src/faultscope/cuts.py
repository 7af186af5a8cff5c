"""Minimum vertex cuts between node pairs, in the convention the analyses need.

The cut between non-adjacent s and t is the classic one: the smallest set of
other nodes whose removal destroys every s-t path. By Menger's theorem it is
the maximum number of internally vertex-disjoint s-t paths, computed as a
unit-capacity max flow (Even & Tarjan, "Network flow and testing graph
connectivity", 1975) on the node-split digraph: each node x becomes an arc
x_in -> x_out of capacity 1, and each undirected link u-v the arcs
u_out -> v_in and v_out -> u_in. A query runs from s_out to t_in, so the split
arcs of s and t never carry flow, and no link arc can carry more than one
unit, so capacity 1 on every arc gives the same maximum.

:class:`CutNetwork` builds that digraph once per graph, in O(V + E). Each
query copies the capacity array (O(E)) and augments along paths found by an
iterative depth-first search, O(V + E) each. The search tries first the arcs
whose head is fewer hops from the sink (Dinic, 1970, guides by the same
distance), an order sorted once per sink, on its first query, and kept. Any
augmenting-path order reaches a maximum flow of the same value. It stops as
soon as the flow reaches min(deg s, deg t), an upper bound on any
non-adjacent cut, or the caller's ``limit``, so the final failing search runs
only when the cut is below both. A query costs
O(min(cut + 1, bound) * (V + E)) and leaves the network as it found it.

:meth:`CutNetwork.max_flow` returns its residual and continues from one
with some links into the sink closed (each unit on them cancelled back to the
source; one search per cancelled path, plus one), so one network answers
every subgraph that drops links into the sink.

Adjacent pairs get the convention used throughout the identifiability
results: C_G(s, t) := V(G) \\ {t}, i.e. cut size |V(G)| - 1. All public
entry points honor it, including :func:`two_connected`; ``max_flow`` counts
the flow, link s-t included.

:meth:`CutNetwork.cut_nodes` reads off a maximum flow's residual the nodes
in some minimum cut, those whose removal lowers it: one search per flow path.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .topology import Graph, hops


class CutQueryResult(NamedTuple):
    """Outcome of one minimum vertex-cut query."""

    source: str
    sink: str
    cut_size: int
    adjacent_case: bool = False


def _check_pair(g: Graph, s: str, t: str) -> None:
    if not g.has_node(s):
        raise ValueError(f"unknown node {s!r}")
    if not g.has_node(t):
        raise ValueError(f"unknown node {t!r}")
    if s == t:
        raise ValueError("source and sink must differ")


class CutNetwork:
    """The node-split unit-capacity flow network of one graph, built once and
    queried for any number of (source, sink) pairs."""

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self._index = {v: i for i, v in enumerate(g.nodes)}
        # Node i is split into in-node 2i and out-node 2i + 1. Arc 2j is a
        # forward arc (capacity 1), arc 2j + 1 its reverse (capacity 0).
        head: list[int] = []
        arcs: list[list[int]] = [[] for _ in range(2 * len(g.nodes))]

        def add_arc(a: int, b: int) -> None:
            arcs[a].append(len(head))
            head.append(b)
            arcs[b].append(len(head))
            head.append(a)

        for i in range(len(g.nodes)):
            add_arc(2 * i, 2 * i + 1)
        index = self._index
        for u, v in g.edges:
            add_arc(2 * index[u] + 1, 2 * index[v])
            add_arc(2 * index[v] + 1, 2 * index[u])
        self._head = head
        self._arcs = arcs
        self._capacity = bytearray([1, 0]) * (len(head) // 2)
        self._toward: dict[str, list[list[int]]] = {}  # sink -> arcs by hops to it

    def cut_size(self, s: str, t: str, limit: int | None = None) -> int:
        """min(cut between ``s`` and ``t``, ``limit``); the cut of an adjacent
        pair is |V| - 1 by convention."""
        g = self.graph
        if g.has_edge(s, t):
            size = len(g.nodes) - 1
            return size if limit is None else min(size, limit)
        return self.max_flow(s, t, limit)[0]

    def max_flow(
        self,
        s: str,
        t: str,
        limit: int | None = None,
        *,
        residual: bytearray | None = None,
        closed: Iterable[str] = (),
    ) -> tuple[int, bytearray]:
        """(value, fresh residual) of an ``s``-``t`` flow augmented until
        maximum or ``limit``, from the pair's earlier ``residual`` or zero,
        with the links from the ``closed`` nodes to ``t`` out of the network
        and their units cancelled."""
        _check_pair(self.graph, s, t)
        adj = self.graph.adjacency
        bound = min(len(adj[s]), len(adj[t]), len(adj) if limit is None else limit)
        capacity = (self._capacity if residual is None else residual)[:]
        src, dst = 2 * self._index[s] + 1, 2 * self._index[t]
        head, arcs = self._head, self._arcs
        for w in closed:  # arc w_out -> t_in; t_out is on no s-t path, t_out -> w_in stays
            for e in arcs[2 * self._index[w] + 1]:
                if head[e] == dst:
                    if capacity[e ^ 1]:
                        self._cancel(capacity, e, src)
                    capacity[e] = 0
        flow = 0
        if residual is not None:  # no search enters src: units leave it on forward arcs
            flow = sum(capacity[e ^ 1] for e in self._arcs[src] if not e & 1)
        order = self._toward.get(t) or self._order_toward(t)
        while flow < bound and self._augment(capacity, src, dst, order):
            flow += 1
        return flow, capacity

    def inflow(self, residual: bytearray, t: str) -> list[str]:
        """The nodes whose links carry the flow of ``residual`` into ``t``."""
        nodes, head = self.graph.nodes, self._head
        return [nodes[head[e] // 2] for e in self._arcs[2 * self._index[t]] if e & 1 and residual[e]]

    def cut_nodes(self, residual: bytearray, s: str, t: str) -> set[str]:
        """The nodes whose removal lowers the cut of non-adjacent ``s`` and ``t``,
        off the ``residual`` of a maximum flow: node x of a flow path is in some
        minimum cut iff the residual reach of s and x_in misses x_out and t.
        Along a path from s that reach only grows (x_in reaches back along
        it), so each path costs one search, cut short once it meets t."""
        nodes, head, arcs = self.graph.nodes, self._head, self._arcs
        src, dst = 2 * self._index[s] + 1, 2 * self._index[t]
        order = self._toward.get(t) or self._order_toward(t)

        def sent(x: int) -> list[int]:  # the heads of the units leaving out-node x
            return [head[e] for e in arcs[x] if not e & 1 and residual[e ^ 1]]

        def reaches_t(x: int) -> bool:  # mark the unseen x's residual reach until it meets t
            seen[x], stack = 1, [x]
            while stack:
                for e in reversed(order[stack.pop()]):  # the arc toward t last, so searched first
                    if residual[e] and not seen[y := head[e]]:
                        if y == dst:
                            return True
                        seen[y] = 1
                        stack.append(y)
            return False

        seen = bytearray(len(arcs))
        reaches_t(src)
        base = bytes(seen)  # the reach of s alone, where each path's search starts
        out: set[str] = set()
        for x in sent(src):
            seen = bytearray(base)
            while x != dst and (seen[x] or not reaches_t(x)):  # in-node x passes its unit to x + 1
                if not seen[x + 1]:
                    out.add(nodes[x >> 1])
                (x,) = sent(x + 1)
        return out

    def _cancel(self, capacity: bytearray, e: int, src: int) -> None:
        # Cancel the unit on arc e into the sink: a unit-node-capacity flow is
        # disjoint paths and cycles, and no cycle passes the sink, so walk the
        # unit's path back to src.
        head, arcs = self._head, self._arcs
        capacity[e], capacity[e ^ 1] = 1, 0
        x = head[e ^ 1]
        while x != src:
            for a in arcs[x]:  # the first reverse arc with residual capacity
                if a & 1 and capacity[a]:
                    break
            capacity[a], capacity[a ^ 1] = 0, 1
            x = head[a]

    def _order_toward(self, t: str) -> list[list[int]]:
        # Each node's arcs, those whose head is fewer hops from t first (an
        # unreached head ranks |V|), in build order otherwise: a stable sort.
        nodes = self.graph.nodes
        dist = hops(self.graph.adjacency, t)
        rank = [dist.get(nodes[x >> 1], len(nodes)) for x in self._head]  # per arc
        order = [sorted(a, key=rank.__getitem__) for a in self._arcs]
        self._toward[t] = order
        return order

    def _augment(self, capacity: bytearray, src: int, dst: int, order: list[list[int]]) -> bool:
        # One depth-first search for an augmenting path: at each node take the
        # first residual arc in ``order`` to an unvisited node, and stop when
        # dst is discovered; then flip the residual capacities along the path.
        # Every path carries one unit.
        head = self._head
        prev = [-1] * len(order)
        prev[src] = -2
        stack = [iter(order[src])]
        while stack:
            for e in stack[-1]:
                x = head[e]
                if capacity[e] and prev[x] == -1:
                    prev[x] = e
                    if x == dst:
                        while x != src:
                            e = prev[x]
                            capacity[e] = 0
                            capacity[e ^ 1] = 1
                            x = head[e ^ 1]
                        return True
                    stack.append(iter(order[x]))
                    break
            else:
                stack.pop()
        return False


def min_vertex_cut_size(g: Graph, s: str, t: str) -> CutQueryResult:
    """Size of the minimum vertex cut between ``s`` and ``t``.

    Adjacent pairs return |V(G)| - 1 by convention (no third-node set can
    separate them); other pairs return the Menger value, which is 0 when the
    pair is already disconnected. Builds a :class:`CutNetwork` for the one
    query; reuse one network for many queries on the same graph.
    """
    size = CutNetwork(g).cut_size(s, t)
    return CutQueryResult(s, t, size, adjacent_case=g.has_edge(s, t))


def _blocks(adj: Mapping[str, Sequence[str]], root: str, disc: dict[str, int]) -> Iterator[list[str]]:
    # Articulation-point DFS (iterative) over root's connected component,
    # yielding the nodes of each biconnected component. ``disc`` carries the
    # discovery times across calls.
    disc[root] = len(disc)
    low = {root: disc[root]}
    nodes = [root]
    stack = [(root, None, iter(adj[root]), 0)]
    while stack:
        v, parent, it, _ = stack[-1]
        for child in it:
            if child == parent:
                continue
            if child in disc:
                if disc[child] < low[v]:
                    low[v] = disc[child]
                continue
            disc[child] = low[child] = len(disc)
            stack.append((child, v, iter(adj[child]), len(nodes)))
            nodes.append(child)
            break
        else:
            _, _, _, start = stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    yield nodes[start:] + [u]
                    del nodes[start:]


def biconnected_components(g: Graph) -> list[frozenset[str]]:
    """Node sets of the biconnected components, via the articulation-point
    DFS (iterative; linear in nodes + links). Isolated nodes yield no
    component."""
    disc: dict[str, int] = {}
    comps: list[frozenset[str]] = []
    for root in g.nodes:
        if root not in disc:
            comps.extend(frozenset(b) for b in _blocks(g.adjacency, root, disc))
    return comps


def two_connected(g: Graph, s: str, t: str) -> bool:
    """True iff the minimum vertex cut between ``s`` and ``t`` is at least 2:
    a 2-bounded flow query, so adjacent pairs need |V(G)| >= 3."""
    _check_pair(g, s, t)
    return CutNetwork(g).cut_size(s, t, 2) >= 2
