"""Randomized invariants tying the closed forms to the brute-force oracle."""

import math
import random
import re
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, assume, example, given, settings

import faultscope as fs
from faultscope import VIRTUAL_MONITOR, Graph, Mechanism, Topology
from faultscope.topology import hops
from faultscope.verify import er_battery

from conftest import (
    affected,
    all_simple_paths,
    all_walk_traces,
    five_case_omega_csp,
    literal_k_identifiable,
    read_fixture,
    reference_connectivity,
    simulate,
    up_routes,
)


@st.composite
def topologies(draw, max_nodes: int = 7):
    """Connected monitored topology with 1..3 monitors and sigma >= 1."""
    n = draw(st.integers(3, max_nodes))
    nodes = [f"n{i}" for i in range(n)]
    order = draw(st.permutations(nodes))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {frozenset(p) for p, keep in zip(pairs, mask) if keep}
    # a spanning chain keeps every draw connected
    edges |= {frozenset((order[i], order[i + 1])) for i in range(n - 1)}
    mu = draw(st.integers(1, min(3, n - 1)))
    return Topology(frozenset(nodes), frozenset(edges), frozenset(order[:mu]))


@st.composite
def sparse_graphs(draw, min_nodes: int = 9, max_nodes: int = 40):
    """Graph past the brute-force cut's 8 nodes, possibly disconnected, with
    one to three times as many drawn links as nodes (loops and repeats
    dropped)."""
    n = draw(st.integers(min_nodes, max_nodes))
    nodes = [f"n{i:02d}" for i in range(n)]
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=n, max_size=3 * n))
    edges = {(nodes[min(a, b)], nodes[max(a, b)]) for a, b in pairs if a != b}
    return Graph(frozenset(nodes), frozenset(edges))


@st.composite
def chained_sparse_topologies(draw):
    """A sparse graph (see sparse_graphs) with its components chained by one
    link each, and one to four monitors."""
    g = draw(sparse_graphs())
    heads: list[str] = []
    seen: set[str] = set()
    for v in sorted(g.nodes):
        if v not in seen:
            heads.append(v)
            seen.update(hops(g.adjacency, v))
    edges = set(g.edges) | set(zip(heads, heads[1:]))
    monitors = draw(st.sets(st.sampled_from(sorted(g.nodes)), min_size=1, max_size=4))
    return Topology(frozenset(g.nodes), frozenset(edges), frozenset(monitors))


@st.composite
def graphs(draw, max_nodes: int = 6):
    """Arbitrary graph, possibly disconnected, with at least two nodes."""
    n = draw(st.integers(2, max_nodes))
    nodes = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = frozenset(frozenset(p) for p, keep in zip(pairs, mask) if keep)
    return Graph(frozenset(nodes), edges)


@settings(max_examples=60, deadline=None)
@given(topologies())
def test_cap_closed_form_is_oracle_exact(t):
    ps = fs.enumerate_cap(t)
    exact = fs.oracle_omega_all(ps)
    for v in t.non_monitors:
        assert fs.omega_cap(t, v) == fs.IntBounds.exactly(exact[v])


@settings(max_examples=60, deadline=None)
@given(topologies())
def test_csp_bounds_sandwich_oracle(t):
    ps = fs.enumerate_csp(t)
    exact = fs.oracle_omega_all(ps)
    for v in t.non_monitors:
        b = fs.omega_csp(t, v)
        assert b.contains(exact[v])
        assert b.hi - b.lo <= 1


@settings(max_examples=60, deadline=None)
@given(topologies())
def test_up_bounds_sandwich_oracle(t):
    ps = fs.route_up(t)
    exact = fs.oracle_omega_all(ps)
    table = fs.per_node_bounds(fs.Analysis(t, ps), Mechanism.UP)
    for v in t.non_monitors:
        assert fs.omega_up(ps, v).contains(exact[v])
        msc = fs.oracle_msc(ps, v)
        assert msc - 1 <= exact[v] <= msc
        assert table[v].contains(exact[v])


@settings(max_examples=40, deadline=None)
@given(topologies())
def test_greedy_cover_brackets_minimum(t):
    ps = fs.route_up(t)
    for v in t.non_monitors:
        paths = ps.incidence_masks[v].bit_count()
        if paths == 0 or v in ps.directly_measured:
            continue
        msc = fs.oracle_msc(ps, v)
        g = fs.gsc(ps, v)
        assert msc <= g <= math.ceil((math.log(paths) + 1) * msc)


@settings(max_examples=40, deadline=None)
@given(topologies())
def test_mechanisms_are_ordered(t):
    up = fs.oracle_omega_all(fs.route_up(t))
    csp = fs.oracle_omega_all(fs.enumerate_csp(t))
    cap = fs.oracle_omega_all(fs.enumerate_cap(t))
    for v in t.non_monitors:
        assert up[v] <= csp[v] <= cap[v]


@settings(max_examples=40, deadline=None)
@given(topologies(), st.data())
def test_set_index_is_member_minimum(t, data):
    members = data.draw(
        st.lists(st.sampled_from(t.non_monitors), min_size=1, unique=True)
    )
    for mech in (Mechanism.CAP, Mechanism.CSP):
        table = fs.per_node_bounds(t, mech)
        got = fs.omega_set(t, members, mech)
        assert got.lo == min(table[v].lo for v in members)
        assert got.hi == min(table[v].hi for v in members)


@settings(max_examples=40, deadline=None)
@given(topologies())
def test_maxsets_shrink_as_k_grows(t):
    a = fs.Analysis(t, fs.route_up(t))
    for mech in (Mechanism.CAP, Mechanism.CSP, Mechanism.UP):
        prev = None
        for k in range(1, t.sigma + 1):
            sb = fs.max_identifiable_set(a, k, mech)
            assert sb.inner <= sb.outer
            if prev is not None:
                assert sb.inner <= prev.inner
                assert sb.outer <= prev.outer
            prev = sb


@settings(max_examples=40, deadline=None)
@given(topologies())
def test_simple_path_sets_within_walk_sets(t):
    for k in range(1, t.sigma + 1):
        csp = fs.max_identifiable_set(t, k, Mechanism.CSP)
        cap = fs.max_identifiable_set(t, k, Mechanism.CAP)
        assert csp.outer <= cap.outer


@settings(max_examples=60, deadline=None)
@given(topologies())
def test_internals_and_degree_caps(t):
    for v in t.non_monitors:
        inner = fs.csp_internals(t, v)
        assert inner.delta_min <= inner.delta_star
        if t.monitor_degree(v) == 0:
            assert fs.omega_cap(t, v).hi <= t.degree(v)


@settings(max_examples=60, deadline=None)
@given(topologies())
def test_trace_containment(t):
    up = set(fs.route_up(t).paths)
    csp = set(fs.enumerate_csp(t).paths)
    cap = set(fs.enumerate_cap(t).paths)
    assert up <= csp <= cap


@st.composite
def sparse_topologies(draw, max_nodes: int = 10, max_extra: int = 2):
    """Connected topology on 2..max_nodes nodes with 1..5 monitors (fewer
    than the nodes) anywhere: a random spanning tree plus up to
    ``max_extra`` more links, which keeps the brute-force path and walk
    listings small at ten nodes."""
    n = draw(st.integers(2, max_nodes))
    order = draw(st.permutations([f"n{i}" for i in range(n)]))
    edges = {frozenset((order[i], order[draw(st.integers(0, i - 1))])) for i in range(1, n)}
    spare = [frozenset((a, b)) for i, a in enumerate(order) for b in order[i + 1 :]]
    spare = [p for p in spare if p not in edges]
    if spare:
        edges |= set(draw(st.lists(st.sampled_from(spare), max_size=max_extra, unique=True)))
    mu = draw(st.integers(1, min(5, n - 1)))
    monitors = draw(st.permutations(order))[:mu]
    return Topology(frozenset(order), frozenset(edges), frozenset(monitors))


def _ring(n: int, mu: int) -> Topology:
    nodes = [f"n{i}" for i in range(n)]
    edges = {frozenset((nodes[i], nodes[i - 1])) for i in range(n)}
    return Topology(frozenset(nodes), frozenset(edges), frozenset(nodes[:mu]))


def _monitors_anywhere(t: Topology):
    # topologies() puts the monitors at the head of its spanning chain; spread
    # them over the graph so that some traces are reached only through one
    return st.permutations(t.nodes).map(lambda order: t.with_monitors(order[: t.mu]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(topologies().flatmap(_monitors_anywhere), sparse_topologies()))
# the golden net has traces behind an interior monitor and several paths per
# trace, and n > sigma + 1; the ring has one monitor on ten nodes
@example(fs.load_topology(read_fixture("golden/net.edges")))
@example(_ring(10, 1))
def test_csp_traces_match_all_simple_paths(t):
    full = fs.PathSet(
        tuple(frozenset(seq) - t.monitors for seq in all_simple_paths(t)), t.non_monitors
    )
    masks = fs.probing.csp_traces(t)
    assert len(set(masks)) == len(masks)
    ps = fs.enumerate_csp(t)
    assert list(ps.paths) == sorted(set(ps.paths), key=lambda p: (len(p), sorted(p)))
    assert set(ps.paths) == set(full.paths)
    assert fs.oracle_omega_all(full) == fs.oracle_omega_all(ps)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        topologies(max_nodes=6).filter(lambda t: t.xi <= 8).flatmap(_monitors_anywhere),
        sparse_topologies(),
    )
)
@example(fs.load_topology(read_fixture("golden/net.edges")))
@example(_ring(10, 1))
def test_cap_traces_match_all_walks(t):
    masks = fs.probing.cap_traces(t)
    assert len(set(masks)) == len(masks)
    ps = fs.enumerate_cap(t)
    assert list(ps.paths) == sorted(set(ps.paths), key=lambda p: (len(p), sorted(p)))
    assert set(ps.paths) == all_walk_traces(t)


@settings(max_examples=60, deadline=None)
@given(st.one_of(topologies(), sparse_topologies()))
@example(fs.load_topology(read_fixture("golden/net.edges")))
@example(_ring(10, 1))
def test_mask_built_path_sets_match_name_built(t):
    universe = t.non_monitors
    for enumerate_traces in (fs.enumerate_csp, fs.enumerate_cap):
        masked = enumerate_traces(t)
        # read off the masks before any name is made
        got = (masked.incidence_masks, masked.directly_measured, masked.gamma)
        bits = [1 << (t.sigma - 1 - i) for i in range(t.sigma)]
        traces = [[v for v, bit in zip(universe, bits) if m & bit] for m in masked.trace_masks]
        named = fs.PathSet(traces, universe)
        assert masked.paths == named.paths
        assert got == (named.incidence_masks, named.directly_measured, named.gamma)
        indexed = list(enumerate(named.paths))
        assert got[0] == {v: sum(1 << i for i, p in indexed if v in p) for v in universe}
        assert got[1] == {next(iter(p)) for p in named.paths if len(p) == 1}
        assert masked == named and hash(masked) == hash(named)


@settings(max_examples=60, deadline=None)
@given(st.one_of(topologies(), sparse_topologies(), chained_sparse_topologies()))
@example(fs.load_topology(read_fixture("golden/net.edges")))
@example(_ring(10, 1))
@example(_ring(12, 3))
def test_route_up_matches_the_walk_on_names(t):
    routes = up_routes(t)
    named = fs.PathSet([frozenset(r) - t.monitors for r in routes], t.non_monitors)
    ps = fs.route_up(t)
    assert ps.trace_masks == named.trace_masks
    assert ps.paths == named.paths
    assert ps.incidence_masks == named.incidence_masks
    assert ps.directly_measured == named.directly_measured
    assert ps == named and hash(ps) == hash(named)
    # the same routes as a path file, one per line, give the same traces
    text = "".join(" ".join(r) + "\n" for r in routes)
    assert fs.parse_paths(text, t).trace_masks == ps.trace_masks


# Shrinking a failure here reruns the literal reading thousands of times and
# takes minutes; a drawn topology has at most ten nodes, so it is reported as
# drawn.
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(sparse_topologies(), st.randoms())
@example(_ring(10, 1), random.Random(0))
@example(fs.load_topology(read_fixture("golden/net.edges")), random.Random(0))
def test_oracle_matches_the_literal_definition(t, rng):
    up = fs.route_up(t)
    a = fs.Analysis(t, up)
    # The literal reading compares every pair of scenarios: each node is
    # held against it on both sides of its index, and one drawn node and
    # one drawn group at every k.
    csp, cap = fs.enumerate_csp(t), fs.enumerate_cap(t)
    for ps, m in ((up, Mechanism.UP), (csp, Mechanism.CSP), (cap, Mechanism.CAP)):
        omega = fs.oracle_omega_all(ps)
        assert dict(a.oracle(m)) == omega
        for v, k in omega.items():
            assert k == 0 or literal_k_identifiable(ps, [v], k), (m, v, k)
            assert k == t.sigma or not literal_k_identifiable(ps, [v], k + 1), (m, v, k)
        v = rng.choice(t.non_monitors)
        group = rng.sample(t.non_monitors, rng.randint(1, t.sigma))
        group_omega = fs.oracle_omega(ps, group)
        for k in range(1, t.sigma + 1):
            assert literal_k_identifiable(ps, [v], k) == (omega[v] >= k), (m, v, k)
            assert literal_k_identifiable(ps, group, k) == (group_omega >= k), (m, group, k)


@settings(max_examples=60, deadline=None)
@given(topologies(), st.data())
def test_affected_matches_simulation(t, data):
    ps = fs.enumerate_csp(t)
    failed = data.draw(st.sets(st.sampled_from(t.non_monitors)))
    states = {v: int(v in failed) for v in t.non_monitors}
    outcomes = simulate(ps, states)
    assert affected(ps, failed) == frozenset(
        i for i, bad in enumerate(outcomes) if bad
    )


@settings(max_examples=80, deadline=None)
@given(graphs(), st.data())
def test_flow_cut_matches_brute_force(g, data):
    names = sorted(g.nodes)
    s = data.draw(st.sampled_from(names))
    t = data.draw(st.sampled_from([n for n in names if n != s]))
    r = fs.min_vertex_cut_size(g, s, t)
    assert r.cut_size == fs.brute_vertex_cut(g, s, t)
    assert fs.two_connected(g, s, t) == (r.cut_size >= 2)


def _close_sink_links(g: Graph, t: str, data) -> tuple[set[str], Graph]:
    """A drawn subset of ``t``'s neighbours, and ``g`` without their links to ``t``."""
    closed = data.draw(st.sets(st.sampled_from(g.adjacency[t]))) if g.adjacency[t] else set()
    dropped = {(w, t) if w < t else (t, w) for w in closed}
    return closed, Graph(frozenset(g.nodes), frozenset(e for e in g.edges if e not in dropped))


@settings(max_examples=80, deadline=None)
@given(graphs(), st.data())
def test_warm_flow_with_closed_links_matches_fresh_graph(g, data):
    # Continuing a max flow with some of the sink's links closed cancels the
    # paths through them and augments again: its value is the max flow from
    # scratch of the graph without those links, and the residual it continued
    # from is unchanged.
    names = sorted(g.nodes)
    s = data.draw(st.sampled_from(names))
    t = data.draw(st.sampled_from([n for n in names if n != s]))
    closed, kept = _close_sink_links(g, t, data)
    net = fs.CutNetwork(g)
    _, residual = net.max_flow(s, t)
    before = bytes(residual)
    fresh = fs.CutNetwork(kept).max_flow(s, t)[0]
    assert net.max_flow(s, t, residual=residual, closed=closed)[0] == fresh
    assert bytes(residual) == before
    if not kept.has_edge(s, t):
        assert fresh == fs.brute_vertex_cut(kept, s, t)


@settings(max_examples=80, deadline=None)
@given(graphs(), st.data())
def test_cut_nodes_are_the_nodes_whose_removal_lowers_the_cut(g, data):
    # Read off a maximum flow's residual, fresh or continued with some sink
    # links closed, the cut nodes of a non-adjacent pair are the nodes whose
    # removal lowers its brute-force cut.
    names = sorted(g.nodes)
    s = data.draw(st.sampled_from(names))
    t = data.draw(st.sampled_from([n for n in names if n != s]))
    closed, kept = _close_sink_links(g, t, data)
    assume(not kept.has_edge(s, t))
    net = fs.CutNetwork(g)
    residual = net.max_flow(s, t, residual=net.max_flow(s, t)[1], closed=closed)[1]
    cut = fs.brute_vertex_cut(kept, s, t)
    lower = {w for w in names if w not in (s, t) and fs.brute_vertex_cut(_without(kept, w), s, t) < cut}
    assert net.cut_nodes(residual, s, t) == lower


@settings(max_examples=60, deadline=None)
@given(sparse_graphs(), st.data())
def test_cut_engine_matches_reference_past_brute_force(g, data):
    # The plain reference checks the engine where brute force cannot: fresh
    # and bounded queries, a warm start with sink links closed against the
    # graph without them, and two sinks interleaved on one network against fresh
    # networks, residuals included (each sink's arc order is its own).
    names = sorted(g.nodes)
    pair = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
    s, t = data.draw(pair)
    expected = reference_connectivity(g, s, t)
    limit = data.draw(st.integers(0, 4))
    net = fs.CutNetwork(g)
    assert net.max_flow(s, t)[0] == expected
    assert net.max_flow(s, t, limit)[0] == min(expected, limit)
    assert net.cut_size(s, t) == (len(names) - 1 if g.has_edge(s, t) else expected)

    closed, kept = _close_sink_links(g, t, data)
    _, residual = net.max_flow(s, t)
    warm = net.max_flow(s, t, residual=residual, closed=closed)[0]
    assert warm == reference_connectivity(kept, s, t)

    sinks = data.draw(pair)
    for source in names:
        for sink in sinks:
            if source != sink:
                assert net.max_flow(source, sink) == fs.CutNetwork(g).max_flow(source, sink)


@settings(max_examples=40, deadline=None)
@given(graphs(max_nodes=5), st.data())
def test_cut_grows_with_edges(g, data):
    names = sorted(g.nodes)
    s = data.draw(st.sampled_from(names))
    t = data.draw(st.sampled_from([n for n in names if n != s]))
    missing = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if frozenset((a, b)) not in g.edges
    ]
    if not missing:
        return
    extra = data.draw(st.sampled_from(missing))
    edges = {frozenset(e) for e in g.edges} | {frozenset(extra)}
    bigger = Graph(frozenset(g.nodes), frozenset(edges))
    before = fs.min_vertex_cut_size(g, s, t).cut_size
    after = fs.min_vertex_cut_size(bigger, s, t).cut_size
    assert after >= before


# 21 non-monitors, 6 confusable verdicts
SPARSE_ER24 = fs.place_monitors(fs.gen_er(24, 0.1, 1).topology, 3, 1)


@settings(max_examples=80, deadline=None)
@given(topologies(max_nodes=10))
@example(SPARSE_ER24)
def test_analysis_tables_match_fresh_graphs(t):
    # Every table the context builds from one shared network equals a fresh
    # graph per query: min_vertex_cut_size on the star and each minus-monitor
    # graph. The cut nodes the single-failure table reads off each 3-bounded
    # flow of cut 2 on the extended network are the nodes whose removal (a
    # fresh extended-minus graph) cuts that node from the virtual monitor.
    a = fs.Analysis(t)
    m = VIRTUAL_MONITOR
    star = fs.build_star(t)
    minus = [fs.build_minus_monitor(t, monitor) for monitor in sorted(t.monitors)]
    for v in t.non_monitors:
        delta_star = fs.min_vertex_cut_size(star, v, m).cut_size
        delta_min = min(fs.min_vertex_cut_size(g, v, m).cut_size for g in minus)
        assert a.cap[v] == delta_star
        assert a.csp[v] == fs.CspInternals(delta_star, delta_min)
    ext = fs.build_extended(t)
    net = fs.CutNetwork(ext)
    for v in t.non_monitors:
        cut, residual = net.max_flow(v, m, 3)
        if cut == 2:
            drops = {w for w in t.nodes if w != v and fs.min_vertex_cut_size(_without(ext, w), v, m).cut_size < 2}
            assert net.cut_nodes(residual, v, m) == drops


@settings(max_examples=80, deadline=None)
@given(topologies(max_nodes=10))
@example(fs.place_monitors(fs.gen_er(200, 0.03, 1).topology, 10, 1))
def test_cap_table_is_the_csp_delta_star_column(t):
    # Once the CSP table is built the context reads the CAP table off its
    # delta_star column; that equals the star flows run alone.
    a = fs.Analysis(t)
    delta_star = {v: ints.delta_star for v, ints in a.csp.items()}
    assert dict(a.cap) == delta_star == dict(fs.cap_values(t))


@st.composite
def bound_tables(draw):
    """sigma, and bounds for some of sigma names, a few past sigma."""
    sigma = draw(st.integers(1, 12))
    names = st.sampled_from([f"v{i}" for i in range(sigma)])
    pairs = st.tuples(st.integers(0, sigma + 1), st.integers(0, sigma + 1))
    bounds = pairs.map(lambda p: fs.IntBounds(min(p), max(p)))
    return sigma, draw(st.dictionaries(names, bounds))


@settings(max_examples=200, deadline=None)
@given(bound_tables())
def test_threshold_sweep_is_the_plain_threshold(case):
    sigma, table = case
    sweep = fs.identify.threshold_sweep(table, sigma)
    assert len(sweep) == sigma
    for k, sets in enumerate(sweep, start=1):
        assert sets.inner == {v for v, b in table.items() if b.lo >= k}
        assert sets.outer == {v for v, b in table.items() if b.hi >= k}
        # no node joins between k + 1 and k: the same sets are handed out
        if k < sigma and sets == sweep[k]:
            assert sets is sweep[k]


@st.composite
def sole_monitor_topologies(draw, max_nodes: int = 9):
    """A drawn topology plus one more non-monitor, ``x``, whose only monitor
    neighbor is the first monitor, so that monitor's minus graph is not the
    star graph."""
    t = draw(topologies(max_nodes))
    monitor = min(t.monitors)
    others = draw(st.sets(st.sampled_from(t.non_monitors)))
    edges = set(t.edges) | {("x", monitor)} | {("x", w) for w in others}
    return Topology(frozenset(t.nodes) | {"x"}, frozenset(edges), frozenset(t.monitors))


def _without(g: Graph, w: str) -> Graph:
    return Graph(frozenset(g.nodes) - {w}, frozenset(e for e in g.edges if w not in e))


def _plain_reach(t: Topology) -> tuple[set[str], dict[str, set[str]]]:
    # Full reach sets: the non-monitors two-connected (flow cut >= 2) to the
    # virtual monitor in the extended graph, and in each fresh extended-minus
    # graph.
    m = VIRTUAL_MONITOR

    def reach(g):
        return {v for v in t.non_monitors if v in g.nodes and fs.min_vertex_cut_size(g, v, m).cut_size >= 2}

    return reach(fs.build_extended(t)), {w: reach(fs.build_extended_minus(t, w)) for w in t.non_monitors}


def _plain_csp_single(t: Topology) -> dict[str, str]:
    # The single-failure rules by definition, from full reach sets.
    anchored, without = _plain_reach(t)
    rules = {}
    for v in t.non_monitors:
        if v not in anchored:
            rules[v] = f"single-failure-test:not-two-connected:{v}"
            continue
        nm = t.non_monitors
        w = next((w for w in nm if w != v and v not in without[w] and w not in without[v]), None)
        rules[v] = "single-failure-test" if w is None else f"single-failure-test:confusable-pair:{v}~{w}"
    return rules


@settings(max_examples=80, deadline=None)
@given(sole_monitor_topologies())
# every non-monitor of the ring is in a confusable pair, which few draws reach
@example(_ring(9, 2))
def test_csp_tables_match_plain_definitions(t):
    # delta_min is the smallest cut over a fresh minus-monitor graph per
    # monitor; the single-failure verdicts and witnesses are those of full
    # reach sets on fresh extended-minus graphs.
    a = fs.Analysis(t)
    minus = [fs.build_minus_monitor(t, monitor) for monitor in sorted(t.monitors)]
    for v in t.non_monitors:
        cuts = [fs.min_vertex_cut_size(g, v, VIRTUAL_MONITOR).cut_size for g in minus]
        assert a.csp[v].delta_min == min(cuts)
    assert {v: r.rule for v, r in a.single(Mechanism.CSP).items()} == _plain_csp_single(t)


@settings(max_examples=40, deadline=None)
@given(chained_sparse_topologies())
@example(SPARSE_ER24)
def test_csp_single_table_matches_plain_definition_past_the_oracle(t):
    # Past the oracle's universe (9 to 40 nodes), the verdicts and witnesses
    # read off the flow residuals are those of full reach sets on fresh graphs.
    rules = {v: r.rule for v, r in fs.Analysis(t).single(Mechanism.CSP).items()}
    assert rules == _plain_csp_single(t)


def _ladder(columns: int) -> Topology:
    # two rows of nodes joined by a rung per column, monitored at opposite corners
    edges = {(f"a{i}", f"b{i}") for i in range(columns)}
    edges |= {(f"{row}{i}", f"{row}{i + 1}") for row in "ab" for i in range(columns - 1)}
    nodes = frozenset(v for e in edges for v in e)
    return Topology(nodes, frozenset(edges), frozenset({"a0", f"b{columns - 1}"}))


@pytest.mark.parametrize(
    "t",
    [
        fs.load_topology(read_fixture("reports/er30.edges")),
        fs.load_topology(read_fixture("golden/net.edges")),
        fs.load_topology(read_fixture("chain4.edges")),
        _ring(24, 2),
        _ladder(12),
    ],
    ids=["er30", "golden", "chain4", "ring24", "ladder12"],
)
def test_csp_single_table_builds_one_network_and_one_flow_per_node(t, monkeypatch):
    # However many pairs are confusable (on the ring nearly all of them), the
    # single-failure table builds the extended network once and runs one flow
    # per non-monitor on it: no network or flow per pair.
    built, flows = [], []
    init, max_flow = fs.CutNetwork.__init__, fs.CutNetwork.max_flow

    def build(self, g):
        built.append(g)
        init(self, g)

    def spy(self, s, sink, limit=None, **kwargs):
        flows.append(s)
        return max_flow(self, s, sink, limit, **kwargs)

    monkeypatch.setattr(fs.CutNetwork, "__init__", build)
    monkeypatch.setattr(fs.CutNetwork, "max_flow", spy)
    table = fs.Analysis(t).single(Mechanism.CSP)
    assert built == [fs.build_extended(t)] and flows == list(t.non_monitors)
    monkeypatch.undo()
    assert {v: r.rule for v, r in table.items()} == _plain_csp_single(t)


def test_csp_table_skips_and_warm_starts(monkeypatch):
    # On er30 some minus-monitor questions are settled by the star flow alone
    # (no path enters through the dropped links) and some continue from it:
    # both branches run on the one star network, and the table still
    # matches fresh graphs. The single-failure table builds one network.
    t = fs.load_topology(read_fixture("reports/er30.edges"))
    warm, built = [], []
    max_flow, init = fs.CutNetwork.max_flow, fs.CutNetwork.__init__

    def spy(self, s, sink, limit=None, **kwargs):
        if kwargs.get("residual") is not None:
            warm.append(s)
        return max_flow(self, s, sink, limit, **kwargs)

    def build(self, g):
        built.append("extended" if t.monitors <= set(g.nodes) else "star")  # star holds no monitor
        init(self, g)

    monkeypatch.setattr(fs.CutNetwork, "max_flow", spy)
    monkeypatch.setattr(fs.CutNetwork, "__init__", build)
    table = fs.csp_internals_all(t)
    assert built == ["star"]
    fs.Analysis(t).single(Mechanism.CSP)
    assert built == ["star", "extended"]
    only = {
        w: ms
        for w in t.monitor_neighbors
        if len(ms := [m for m in t.adjacency[w] if m in t.monitors]) == 1
    }
    sole = {ms[0] for ms in only.values()}
    far = [v for v in t.non_monitors if v not in t.monitor_neighbors]
    assert 0 < len(warm) < len(far) * len(sole)
    minus = [fs.build_minus_monitor(t, monitor) for monitor in sorted(sole)]
    for v in t.non_monitors:
        cuts = [fs.min_vertex_cut_size(g, v, VIRTUAL_MONITOR).cut_size for g in minus]
        assert table[v].delta_min == min(cuts + [table[v].delta_star])


def _complete_with_monitor_links_dropped(seed: int) -> Topology:
    # A complete graph with some monitor-to-non-monitor links dropped at
    # random, one kept if all were: the near-complete shapes, both ways.
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    nodes = [f"n{i}" for i in range(n)]
    monitors = set(rng.sample(nodes, rng.randint(1, n - 1)))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    cross = [(a, b) for a, b in pairs if (a in monitors) != (b in monitors)]
    dropped = {e for e in cross if rng.random() < 0.4}
    if dropped == set(cross):
        dropped.discard(cross[0])
    edges = frozenset(e for e in pairs if e not in dropped)
    return Topology(frozenset(nodes), edges, frozenset(monitors))


def test_three_csp_cases_give_the_papers_five():
    # omega_csp states three of the paper's five cases: under the cut
    # convention delta_min == sigma means two monitor neighbors (case 1
    # returns first), and delta_star == 1 makes the general interval [0, 0].
    rng = random.Random(32)
    instances = []
    for i in range(1000):
        n = rng.randint(2, 14)
        t = fs.gen_er(n, rng.uniform(0.3, 0.9), 5000 + i).topology
        instances.append(fs.place_monitors(t, rng.randint(1, n - 1), 5000 + i))
    instances += [_complete_with_monitor_links_dropped(seed) for seed in range(200)]
    fired: Counter[int] = Counter()
    for t in instances:
        a = fs.Analysis(t)
        for v in t.non_monitors:
            case, bounds = five_case_omega_csp(a, v)
            fired[case] += 1
            assert fs.omega_csp(a, v) == bounds, (t, v, case)
            assert (a.csp[v].delta_min == t.sigma) == (t.monitor_degree(v) >= 2)
            if case == 4:  # the sigma - 1 cuts alone give a near-complete neighborhood
                assert t.monitor_degree(v) >= 1
                assert all(t.has_edge(v, w) for w in t.non_monitors if w != v)
    assert fired[3] == 0 and all(fired[case] for case in (1, 2, 4, 5)), fired


def test_cut_engine_matches_networkx():
    nx = pytest.importorskip("networkx")
    connectivity = nx.algorithms.connectivity
    rng = random.Random(60)
    for i in range(12):
        n = rng.randint(10, 60)
        g = fs.random_graph(n, rng.uniform(2.0 / n, 8.0 / n), 1000 + i)
        reference = nx.Graph(list(g.edges))
        reference.add_nodes_from(g.nodes)
        split = connectivity.build_auxiliary_node_connectivity(reference)
        net = fs.CutNetwork(g)
        for s, t in (rng.sample(g.nodes, 2) for _ in range(40)):
            if g.has_edge(s, t):
                expected = n - 1
            else:
                expected = connectivity.local_node_connectivity(reference, s, t, auxiliary=split)
            assert fs.min_vertex_cut_size(g, s, t).cut_size == expected
            assert net.cut_size(s, t) == expected


def test_single_failure_tables_agree_with_oracle():
    # A node's single failure is localizable exactly when its oracle index
    # reaches 1, under every mechanism.
    for t in er_battery(120, 3):
        a = fs.Analysis(t, fs.route_up(t))
        for m in Mechanism:
            omega = a.oracle(m)
            for v, verdict in a.single(m).items():
                assert verdict.is_identifiable == (omega[v] >= 1), (t, m, v, verdict)


#: Comment text: one line, and not itself a ``monitors:`` header once behind a ``#``.
_COMMENTS = st.text(max_size=12).filter(
    lambda c: "".join(c.splitlines()) == c and not re.match(r"\s*monitors\s*:", c, re.IGNORECASE)
)


@st.composite
def commented(draw, text: str) -> str:
    """``text`` with ``' # <comment>'`` appended to some of its lines and
    whole comment lines inserted anywhere."""
    out = []
    for line in text.splitlines() + [None]:
        out += ["#" + draw(_COMMENTS) for _ in range(draw(st.integers(0, 1)))]
        if line is not None:
            out.append(line + (" # " + draw(_COMMENTS) if draw(st.booleans()) else ""))
    return "\n".join(out) + "\n"


@settings(max_examples=80, deadline=None)
@given(topologies(), st.data())
def test_comments_leave_every_parse_equal(t, data):
    # the edge list (its monitors header too), the path file and a monitor
    # list all drop a '#' comment, and a whole comment line, the same way
    edges = fs.format_topology(t)
    assert fs.load_topology(data.draw(commented(edges))) == fs.load_topology(edges)
    paths = "".join(" ".join(r) + "\n" for r in up_routes(t))
    assert fs.parse_paths(data.draw(commented(paths)), t) == fs.parse_paths(paths, t)
    gaps = data.draw(st.lists(st.sampled_from([",", " ", "\n", " ,\t"]), min_size=t.mu, max_size=t.mu))
    names = "".join(m + gap for m, gap in zip(sorted(t.monitors), gaps))
    assert fs.parse_monitor_names(data.draw(commented(names))) == tuple(sorted(t.monitors))


def test_k_tests_agree_with_oracle():
    # Each k-test is a threshold of folded bounds, so a definite verdict must
    # hold against the oracle's set index: identifiable only where the index
    # reaches k, not identifiable only where it falls short.
    rng = random.Random(4)
    seen: set[fs.Status] = set()
    for t in er_battery(60, 9):
        up = fs.route_up(t)
        a = fs.Analysis(t, up)
        nm = list(t.non_monitors)
        groups = [[v] for v in nm] + [nm]
        groups += [rng.sample(nm, rng.randint(1, len(nm))) for _ in range(2)]
        tests = (
            (fs.enumerate_cap(t), Mechanism.CAP),
            (fs.enumerate_csp(t), Mechanism.CSP),
            (up, Mechanism.UP),
        )
        for ps, m in tests:
            for g in groups:
                omega = fs.oracle_omega(ps, g)
                for k in range(1, t.sigma + 1):
                    verdict = fs.k_identifiable(a, g, k, m)
                    seen.add(verdict.status)
                    if verdict.status is fs.Status.IDENTIFIABLE:
                        assert omega >= k, (t, g, k, verdict)
                    elif verdict.status is fs.Status.NOT_IDENTIFIABLE:
                        assert omega < k, (t, g, k, verdict)
    assert seen == set(fs.Status)
