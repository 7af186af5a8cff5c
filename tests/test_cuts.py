from itertools import combinations

import pytest

import faultscope as fs
from faultscope import VIRTUAL_MONITOR, Graph
from faultscope.cuts import biconnected_components


def graph(*edges: str) -> Graph:
    pairs = [e.split() for e in edges]
    nodes = frozenset(n for pair in pairs for n in pair)
    return Graph(nodes, frozenset(frozenset(pair) for pair in pairs))


PATH3 = graph("s a", "a t")
TRIANGLE = graph("s t", "s a", "a t")
CYCLE4 = graph("a b", "b c", "c d", "d a")
K4 = graph("a b", "a c", "a d", "b c", "b d", "c d")


class TestMinVertexCut:
    def test_path_through_one_node(self):
        r = fs.min_vertex_cut_size(PATH3, "s", "t")
        assert r.cut_size == 1
        assert not r.adjacent_case

    def test_adjacent_pair_counts_all_others(self):
        r = fs.min_vertex_cut_size(TRIANGLE, "s", "t")
        assert r.cut_size == 2
        assert r.adjacent_case

    def test_k4_adjacent(self):
        assert fs.min_vertex_cut_size(K4, "a", "b").cut_size == 3

    def test_cycle_opposite_corners(self):
        assert fs.min_vertex_cut_size(CYCLE4, "a", "c").cut_size == 2

    def test_golden_star(self, golden):
        g = fs.build_star(golden)
        r = fs.min_vertex_cut_size(g, "v2", VIRTUAL_MONITOR)
        assert r.cut_size == 4
        assert r.adjacent_case

    def test_disconnected_pair(self):
        g = Graph(frozenset({"a", "b", "c"}), frozenset({frozenset({"a", "b"})}))
        assert fs.min_vertex_cut_size(g, "a", "c").cut_size == 0

    def test_same_endpoint_rejected(self):
        with pytest.raises(ValueError):
            fs.min_vertex_cut_size(PATH3, "s", "s")

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            fs.min_vertex_cut_size(PATH3, "s", "zz")


def group_cut(g, group, m) -> int:
    """Smallest cut between any member of ``group`` and ``m``."""
    net = fs.CutNetwork(g)
    return min(net.cut_size(w, m) for w in group)


class TestGamma:
    def test_chain4_star(self, chain4):
        g = fs.build_star(chain4)
        assert group_cut(g, ["v1", "v2"], VIRTUAL_MONITOR) == 2
        assert group_cut(g, ["v1"], VIRTUAL_MONITOR) == 2

    def test_chain4_minus_monitor(self, chain4):
        g = fs.build_minus_monitor(chain4, "m1")
        assert group_cut(g, ["v1"], VIRTUAL_MONITOR) == 1

    def test_golden_star_all_four(self, golden):
        g = fs.build_star(golden)
        assert group_cut(g, golden.non_monitors, VIRTUAL_MONITOR) == 4


class TestTwoConnected:
    def test_cycle_opposite(self):
        assert fs.two_connected(CYCLE4, "a", "c")

    def test_path_endpoints(self):
        assert not fs.two_connected(PATH3, "s", "t")

    def test_adjacent_needs_third_node(self):
        pair = graph("a b")
        assert not fs.two_connected(pair, "a", "b")
        assert fs.two_connected(TRIANGLE, "s", "t")

    def test_golden_extended(self, golden):
        g = fs.build_extended(golden)
        assert fs.two_connected(g, "v2", VIRTUAL_MONITOR)

    def test_matches_cut_size(self):
        for g in (PATH3, TRIANGLE, CYCLE4, K4):
            for s in sorted(g.nodes):
                for t in sorted(g.nodes):
                    if s >= t:
                        continue
                    r = fs.min_vertex_cut_size(g, s, t)
                    assert fs.two_connected(g, s, t) == (r.cut_size >= 2)


def test_biconnected_components():
    comps = biconnected_components(PATH3)
    assert sorted(sorted(c) for c in comps) == [["a", "s"], ["a", "t"]]
    comps = biconnected_components(CYCLE4)
    assert [sorted(c) for c in comps] == [["a", "b", "c", "d"]]


def test_brute_cut_matches_flow():
    for g in (PATH3, TRIANGLE, CYCLE4, K4):
        for s in sorted(g.nodes):
            for t in sorted(g.nodes):
                if s >= t:
                    continue
                assert fs.brute_vertex_cut(g, s, t) == fs.min_vertex_cut_size(g, s, t).cut_size


THETA = graph("s x", "x t", "s y1", "y1 y2", "y2 t", "s z1", "z1 z2", "z2 z3", "z3 t")


class TestCutNodes:
    def test_cycle_both_sides(self):
        net = fs.CutNetwork(CYCLE4)
        assert net.cut_nodes(net.max_flow("a", "c")[1], "a", "c") == {"b", "d"}

    def test_theta_every_path_node(self):
        # three paths of one, two and three nodes: any one node of each is a cut
        net = fs.CutNetwork(THETA)
        flow, residual = net.max_flow("s", "t")
        assert flow == 3 and net.cut_nodes(residual, "s", "t") == set(THETA.nodes) - {"s", "t"}
        # a warm start with x's link into t closed leaves x on no path to t
        after = net.max_flow("s", "t", residual=residual, closed=["x"])[1]
        assert net.cut_nodes(after, "s", "t") == {"y1", "y2", "z1", "z2", "z3"}

    def test_bypassed_path_node_is_no_cut_node(self):
        # b and y are two ways on from a, so only a and c cut s from t
        g = graph("s a", "a b", "b t", "a y", "y t", "s c", "c t")
        net = fs.CutNetwork(g)
        for limit in (None, 3):
            flow, residual = net.max_flow("s", "t", limit)
            assert flow == 2 and net.cut_nodes(residual, "s", "t") == {"a", "c"}


class TestMaxFlow:
    def test_warm_start_through_closed_links(self):
        # K4 carries three a-b paths; closing c-b and d-b leaves the direct link
        net = fs.CutNetwork(K4)
        flow, residual = net.max_flow("a", "b")
        assert flow == 3 and sorted(net.inflow(residual, "b")) == ["a", "c", "d"]
        flow, after = net.max_flow("a", "b", residual=residual, closed=["c", "d"])
        assert flow == 1 and net.inflow(after, "b") == ["a"]
        # every set of closed sink links: the graph without them, from scratch
        for size in range(4):
            for closed in combinations("acd", size):
                dropped = {tuple(sorted((w, "b"))) for w in closed}
                kept = Graph(K4.nodes, tuple(e for e in K4.edges if e not in dropped))
                fresh = fs.CutNetwork(kept).max_flow("a", "b")[0]
                assert net.max_flow("a", "b", residual=residual, closed=closed)[0] == fresh
