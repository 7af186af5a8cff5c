import os
from itertools import combinations
from pathlib import Path

import pytest

import faultscope as fs
from faultscope.topology import check_k

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def src_env() -> dict[str, str]:
    """The environment of a subprocess that imports faultscope from ``src``."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def all_simple_paths(t: fs.Topology) -> list[tuple[str, ...]]:
    """Every simple path between distinct monitors, smaller endpoint first,
    in (length, node sequence) order, listed by brute force: a depth-first
    search from every monitor that extends each path by every unvisited
    neighbour and keeps each one that ends at a larger monitor."""
    adj = t.adjacency
    found: list[tuple[str, ...]] = []

    def extend(seq: tuple[str, ...]) -> None:
        for w in adj[seq[-1]]:
            if w not in seq:
                if w in t.monitors and seq[0] < w:
                    found.append(seq + (w,))
                extend(seq + (w,))

    for m in t.monitors:
        extend((m,))
    return sorted(found, key=lambda s: (len(s), s))


def all_walk_traces(t: fs.Topology) -> set[frozenset[str]]:
    """Trace of every monitor-to-monitor walk that uses each directed link at
    most once, listed by brute force: a depth-first search over the arcs from
    every monitor, recording the non-monitors visited at each monitor reached.
    The arcs used so far fix the nodes visited, so each (node, arcs) state is
    expanded once."""
    adj = t.adjacency
    found: set[frozenset[str]] = set()
    expanded: set[tuple[str, frozenset[tuple[str, str]]]] = set()

    def walk(node: str, arcs: frozenset[tuple[str, str]], visited: frozenset[str]) -> None:
        if (node, arcs) in expanded:
            return
        expanded.add((node, arcs))
        for w in adj[node]:
            if (node, w) in arcs:
                continue
            seen = visited | {w}
            if w in t.monitors:
                found.add(seen - t.monitors)
            walk(w, arcs | {(node, w)}, seen)

    for m in t.monitors:
        walk(m, frozenset(), frozenset({m}))
    return found


def reference_connectivity(g: fs.Graph, s: str, t: str) -> int:
    """Number of s-t paths that share no node but s and t (the link s-t, if
    any, is one of them), by breadth-first augmenting paths on a dict
    node-split residual graph: node v is the arc (v, 0) -> (v, 1), and each
    link u-v the arcs (u, 1) -> (v, 0) and (v, 1) -> (u, 0)."""
    residual: dict[tuple[str, int], dict[tuple[str, int], int]] = {}
    arcs = [((v, 0), (v, 1)) for v in g.nodes]
    arcs += [((u, 1), (v, 0)) for a, b in g.edges for u, v in ((a, b), (b, a))]
    for x, y in arcs:
        residual.setdefault(x, {})[y] = 1
        residual.setdefault(y, {})[x] = 0
    src, dst = (s, 1), (t, 0)
    flow = 0
    while True:
        prev = {src: src}
        queue = [src]
        for x in queue:
            for y, capacity in residual[x].items():
                if capacity and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if dst not in prev:
            return flow
        y = dst
        while y != src:
            x = prev[y]
            residual[x][y], residual[y][x] = 0, 1
            y = x
        flow += 1


def affected(ps: fs.PathSet, failures) -> frozenset[int]:
    """Indices of the paths disrupted when exactly ``failures`` fail."""
    fset = frozenset(failures)
    stray = fset - set(ps.universe)
    if stray:
        raise ValueError(f"failure set contains non-failable node {sorted(stray)[0]!r}")
    mask = 0
    for v in fset:
        mask |= ps.incidence_masks[v]
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def simulate(ps: fs.PathSet, states: dict[str, int]) -> tuple[int, ...]:
    """Path outcomes for a full node-state assignment (1 = failed).

    ``states`` must assign a state to exactly the non-monitor universe;
    anything else is a dimension mismatch.
    """
    if set(states) != set(ps.universe):
        raise ValueError("state vector must cover exactly the non-monitors")
    return tuple(1 if any(states[v] for v in p) else 0 for p in ps.paths)


def plain_gsc(ps: fs.PathSet, v: str) -> int:
    """Greedy cover size of v's paths with every other non-monitor a candidate
    in every round: the one on the most still-uncovered paths wins, the first
    by name among ties. sigma when some path sees only v, 0 when none sees v."""
    todo = {i for i, p in enumerate(ps.paths) if v in p}
    if not todo:
        return 0
    if frozenset({v}) in ps.paths:
        return len(ps.universe)
    others = sorted(set(ps.universe) - {v})
    count = 0
    while todo:
        best = max(others, key=lambda w: sum(w in ps.paths[i] for i in todo))
        todo = {i for i in todo if best not in ps.paths[i]}
        count += 1
    return count


def up_routes(t: fs.Topology) -> list[tuple[str, ...]]:
    """The routes of ``route_up`` as node sequences, walked on names: for each
    monitor pair a < b, a plain BFS from a, then from b back to a, always to
    the first-named neighbour one hop closer."""
    adj = t.adjacency
    monitors = sorted(t.monitors)
    routes = []
    for i, a in enumerate(monitors):
        dist, queue = {a: 0}, [a]
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        for b in monitors[i + 1 :]:
            route = [b]
            while route[-1] != a:
                u = route[-1]
                route.append(min(w for w in adj[u] if dist[w] == dist[u] - 1))
            routes.append(tuple(route))
    return routes


def five_case_omega_csp(a: fs.Analysis, v: str) -> tuple[int, fs.IntBounds]:
    """The CSP per-node index by the paper's five cases, tried in order, and
    the number of the case that decided it: (1) two monitor neighbors give
    sigma; (2) a single two-connected escape (delta_star == 1) gives 0; (3)
    delta_min == sigma gives sigma; (4) delta_min == sigma - 1 and delta_star
    == sigma give sigma - 1 on a near-complete neighborhood (v touches a
    monitor and every other non-monitor, each of which has two monitor
    neighbors), else sigma - 2; (5) otherwise [pi - 1, pi]."""
    t, ints = a.t, a.csp[v]
    sigma = t.sigma
    others = [w for w in t.non_monitors if w != v]
    if t.monitor_degree(v) >= 2:
        return 1, fs.IntBounds.exactly(sigma)
    if ints.delta_star == 1:
        return 2, fs.IntBounds.exactly(0)
    if ints.delta_min == sigma:
        return 3, fs.IntBounds.exactly(sigma)
    if ints.delta_min == sigma - 1 and ints.delta_star == sigma:
        near_complete = (
            t.monitor_degree(v) >= 1
            and all(t.monitor_degree(w) >= 2 for w in others)
            and all(t.has_edge(v, w) for w in others)
        )
        return 4, fs.IntBounds.exactly(sigma - 1 if near_complete else sigma - 2)
    return 5, fs.IntBounds(max(ints.pi - 1, 0), ints.pi)


def oracle_max_identifiable_set(ps: fs.PathSet, k: int) -> frozenset[str]:
    """Exact maximal k-identifiable set: the nodes whose oracle index reaches k."""
    check_k(k, len(ps.universe))
    return frozenset(v for v, omega in fs.oracle_omega_all(ps).items() if omega >= k)


def literal_k_identifiable(ps: fs.PathSet, group, k: int) -> bool:
    """Whether ``group`` is k-identifiable, read literally off the definition:
    false when two failure sets of size <= k disrupt the same paths but differ
    inside the group, true otherwise. Every pair of failure sets is compared."""
    members = frozenset(group)
    scenarios = [
        (frozenset(combo), affected(ps, combo))
        for size in range(k + 1)
        for combo in combinations(ps.universe, size)
    ]
    return not any(
        hit1 == hit2 and f1 & members != f2 & members
        for (f1, hit1), (f2, hit2) in combinations(scenarios, 2)
    )


@pytest.fixture(scope="session")
def golden() -> fs.Topology:
    """Four-monitor-neighborhood topology behind the worked path sets."""
    return fs.load_topology(read_fixture("golden/net.edges"))


@pytest.fixture(scope="session")
def chain4() -> fs.Topology:
    """Two monitors bridged by a two-node chain."""
    return fs.load_topology(read_fixture("chain4.edges"))


@pytest.fixture(scope="session")
def up_paths(golden: fs.Topology) -> fs.PathSet:
    """The three routing-determined paths of the worked example."""
    return fs.parse_paths(read_fixture("golden/up.paths"), golden)


@pytest.fixture(scope="session")
def csp_paths(golden: fs.Topology) -> fs.PathSet:
    """The six simple monitor-to-monitor paths of the worked example."""
    return fs.parse_paths(read_fixture("golden/csp.paths"), golden)


@pytest.fixture(scope="session")
def cap_paths(golden: fs.Topology) -> fs.PathSet:
    """The four probing walks of the worked example."""
    return fs.parse_paths(read_fixture("golden/cap.paths"), golden)


@pytest.fixture()
def table_builds(monkeypatch) -> list[tuple[str, object]]:
    """Records each call of the identify table builders as (name, mechanism).

    The mechanism is per_node_bounds' second argument, None for the others.
    """
    calls: list[tuple[str, object]] = []
    for name in ("cap_values", "csp_internals_all", "_csp_single_failure_nodes", "per_node_bounds"):
        original = getattr(fs.identify, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, args[1] if len(args) > 1 else None))
            return _original(*args, **kwargs)

        monkeypatch.setattr(fs.identify, name, spy)
    return calls
