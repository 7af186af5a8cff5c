import pytest

import faultscope as fs
from faultscope import Topology, TopologyError
from faultscope.topology import VIRTUAL_MONITOR


class TestLoadTopology:
    def test_smallest_instance(self):
        t = fs.load_topology("m1 v1\nv1 m2\n", monitors=["m1", "m2"])
        assert sorted(t.nodes) == ["m1", "m2", "v1"]
        assert t.sigma == 1
        assert t.mu == 2
        assert t.xi == 2
        assert t.theta == 1
        assert t.non_monitors == ("v1",)
        assert t.monitor_neighbors == frozenset({"v1"})

    def test_golden_counts(self, golden):
        assert golden.sigma == 4
        assert golden.mu == 3
        assert golden.xi == 10
        assert golden.theta == 4
        assert golden.non_monitors == ("v1", "v2", "v3", "v4")

    def test_header_monitors(self, chain4):
        assert sorted(chain4.monitors) == ["m1", "m2"]
        assert chain4.sigma == 2

    def test_explicit_monitors_override_header(self):
        text = "# monitors: m1 m2\nm1 v1\nv1 v2\nv2 m2\n"
        t = fs.load_topology(text, monitors=["m1"])
        assert t.monitors == frozenset({"m1"})
        assert t.sigma == 3

    def test_zero_monitors_rejected(self):
        with pytest.raises(TopologyError):
            fs.load_topology("m1 v1\nv1 m2\n")

    def test_unknown_monitor_rejected(self):
        with pytest.raises(TopologyError):
            fs.load_topology("a b\n", monitors=["c"])

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError):
            fs.load_topology("a b\nc d\n", monitors=["a"])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            fs.load_topology("a a\n", monitors=["a"])

    def test_malformed_line_rejected(self):
        with pytest.raises(TopologyError):
            fs.load_topology("a b c\n", monitors=["a"])

    def test_empty_document_rejected(self):
        with pytest.raises(TopologyError):
            fs.load_topology("# monitors: a\n", monitors=["a"])

    def test_reserved_name_rejected(self):
        with pytest.raises(TopologyError):
            fs.load_topology(f"a {VIRTUAL_MONITOR}\n", monitors=["a"])

    def test_comments_and_blank_lines_ignored(self):
        t = fs.load_topology("# a note\n\nm1 v1\n", monitors=["m1"])
        assert t.xi == 1


def test_format_roundtrip(golden):
    again = fs.load_topology(fs.format_topology(golden))
    assert again == golden


def test_parse_monitor_names():
    assert fs.parse_monitor_names("m1 m2") == ("m1", "m2")
    assert fs.parse_monitor_names("m1, m2,m3") == ("m1", "m2", "m3")
    assert fs.parse_monitor_names("# note\nm1\nm2\n") == ("m1", "m2")


def test_with_monitors(chain4):
    t = chain4.with_monitors(["m1"])
    assert t.monitors == frozenset({"m1"})
    assert t.nodes == chain4.nodes and t.edges == chain4.edges


def test_require_monitored():
    bare = Topology(frozenset({"a", "b"}), frozenset({frozenset({"a", "b"})}))
    assert bare.monitors == frozenset()
    with pytest.raises(TopologyError):
        bare.require_monitored()


def test_degree_split(golden):
    for v in golden.non_monitors:
        assert golden.monitor_degree(v) + golden.nonmonitor_degree(v) == golden.degree(v)
    assert golden.monitor_degree("v2") == 1
    assert golden.nonmonitor_degree("v2") == 3


class TestAuxiliaryGraphs:
    def test_star_chain4(self, chain4):
        g = fs.build_star(chain4)
        m = VIRTUAL_MONITOR
        assert sorted(g.nodes) == sorted([m, "v1", "v2"])
        assert set(g.edges) == {(m, "v1"), (m, "v2"), ("v1", "v2")}
        assert g.degree(m) == chain4.theta

    def test_star_degree_is_theta(self, golden):
        g = fs.build_star(golden)
        assert g.degree(VIRTUAL_MONITOR) == golden.theta == 4

    def test_minus_monitor_chain4(self, chain4):
        g = fs.build_minus_monitor(chain4, "m1")
        assert set(g.edges) == {(VIRTUAL_MONITOR, "v2"), ("v1", "v2")}
        g = fs.build_minus_monitor(chain4, "m2")
        assert set(g.edges) == {(VIRTUAL_MONITOR, "v1"), ("v1", "v2")}

    def test_minus_monitor_within_star(self, golden):
        star = fs.build_star(golden)
        for m in sorted(golden.monitors):
            g = fs.build_minus_monitor(golden, m)
            assert set(g.nodes) == set(star.nodes)
            assert set(g.edges) <= set(star.edges)

    def test_extended_golden(self, golden):
        g = fs.build_extended(golden)
        assert len(g.nodes) == 8
        assert len(g.edges) == 13
        assert g.degree(VIRTUAL_MONITOR) == golden.mu == 3

    def test_extended_minus_golden(self, golden):
        g = fs.build_extended_minus(golden, "v2")
        assert len(g.nodes) == 7
        assert len(g.edges) == 9
        assert "v2" not in g.nodes

    def test_extended_minus_chain4(self, chain4):
        g = fs.build_extended_minus(chain4, "v1")
        m = VIRTUAL_MONITOR
        assert sorted(g.nodes) == sorted([m, "m1", "m2", "v2"])
        assert set(g.edges) == {(m, "m1"), (m, "m2"), ("m2", "v2")}

    def test_minus_monitor_rejects_non_monitor(self, chain4):
        with pytest.raises(ValueError):
            fs.build_minus_monitor(chain4, "v1")

    def test_extended_minus_rejects_monitor(self, chain4):
        with pytest.raises(ValueError):
            fs.build_extended_minus(chain4, "m1")

    def test_constructions_are_pure(self, golden):
        assert fs.build_star(golden) == fs.build_star(golden)
        assert fs.build_extended(golden) == fs.build_extended(golden)
