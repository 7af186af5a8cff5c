import pytest

import faultscope as fs
from faultscope import EnumerationCapError, TopologyError

from conftest import affected, all_simple_paths, read_fixture, simulate


def traces(ps: fs.PathSet) -> set[frozenset[str]]:
    return set(ps.paths)


class TestRouteUp:
    def test_chain4_single_route(self, chain4):
        ps = fs.route_up(chain4)
        assert ps.paths == (frozenset({"v1", "v2"}),)

    def test_golden_routes(self, golden):
        # m1 v2 v3 m3 and m1 v2 v4 m3 tie; the walk back from m3 takes v3
        ps = fs.route_up(golden)
        assert ps.paths == (
            frozenset({"v1"}),
            frozenset({"v2", "v3"}),
            frozenset({"v3"}),
        )

    def test_adjacent_monitors_empty_trace(self):
        t = fs.load_topology("m1 m2\n", monitors=["m1", "m2"])
        ps = fs.route_up(t)
        assert ps.paths == (frozenset(),)

    def test_single_monitor_routes_nothing(self):
        t = fs.load_topology("m1 v1\n", monitors=["m1"])
        ps = fs.route_up(t)
        assert ps.paths == ()
        assert ps.universe == ("v1",)

    def test_deterministic(self, golden):
        assert fs.route_up(golden) == fs.route_up(golden)


class TestEnumerateCsp:
    def test_chain4_exactly_one(self, chain4):
        ps = fs.enumerate_csp(chain4)
        assert ps.paths == (frozenset({"v1", "v2"}),)

    def test_triangle(self):
        t = fs.load_topology("m1 m2\nm1 v\nm2 v\n", monitors=["m1", "m2"])
        ps = fs.enumerate_csp(t)
        assert ps.paths == (frozenset(), frozenset({"v"}))

    def test_golden_contains_worked_paths(self, golden, csp_paths):
        ps = fs.enumerate_csp(golden)
        assert ps.gamma == 12
        assert traces(csp_paths) <= traces(ps)
        everything = all_simple_paths(golden)
        assert len(everything) == 32
        assert traces(ps) == {frozenset(s) - golden.monitors for s in everything}
        assert list(ps.paths) == sorted(ps.paths, key=lambda p: (len(p), sorted(p)))

    def test_node_cap(self, chain4):
        t = fs.place_monitors(fs.gen_er(15, 0.3, seed=1).topology, 2, seed=1)
        with pytest.raises(EnumerationCapError):
            fs.enumerate_csp(t)
        assert fs.enumerate_csp(chain4).gamma == 1


class TestEnumerateCap:
    def test_chain4_traces(self, chain4):
        got = traces(fs.enumerate_cap(chain4))
        assert got == {
            frozenset({"v1"}),
            frozenset({"v2"}),
            frozenset({"v1", "v2"}),
        }

    def test_adjacent_monitors_empty_trace(self):
        t = fs.load_topology("m1 m2\n", monitors=["m1", "m2"])
        assert traces(fs.enumerate_cap(t)) == {frozenset()}

    def test_golden_has_all_singletons(self, golden):
        ps = fs.enumerate_cap(golden)
        assert ps.gamma == 15
        for v in golden.non_monitors:
            assert frozenset({v}) in traces(ps)


def test_mechanism_trace_containment(golden):
    up = traces(fs.route_up(golden))
    csp = traces(fs.enumerate_csp(golden))
    cap = traces(fs.enumerate_cap(golden))
    assert up <= csp <= cap


class TestAffected:
    def test_single_failure(self, up_paths):
        assert affected(up_paths, ["v4"]) == frozenset({1, 2})

    def test_nothing_failed(self, up_paths):
        assert affected(up_paths, []) == frozenset()

    def test_pair(self, csp_paths):
        assert affected(csp_paths, ["v2", "v4"]) == frozenset({1, 2, 4, 5})

    def test_unknown_node(self, up_paths):
        with pytest.raises(ValueError):
            affected(up_paths, ["zz"])


class TestSimulate:
    def test_all_healthy(self, up_paths, golden):
        states = {v: 0 for v in golden.non_monitors}
        assert simulate(up_paths, states) == (0, 0, 0)

    def test_one_failure(self, up_paths, golden):
        states = {v: 0 for v in golden.non_monitors}
        assert simulate(up_paths, {**states, "v1": 1}) == (1, 0, 0)

    def test_pair_on_walks(self, cap_paths, golden):
        states = {v: 0 for v in golden.non_monitors}
        assert simulate(cap_paths, {**states, "v2": 1, "v3": 1}) == (0, 1, 1, 0)

    def test_partial_state_rejected(self, up_paths):
        with pytest.raises(ValueError):
            simulate(up_paths, {"v1": 1})


def test_measurement_system(up_paths):
    assert up_paths.universe == ("v1", "v2", "v3", "v4")
    rows = tuple(tuple(int(v in p) for v in up_paths.universe) for p in up_paths.paths)
    assert rows == ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1))
    states = {"v1": 0, "v2": 0, "v3": 0, "v4": 1}
    assert simulate(up_paths, states) == (0, 1, 1)


class TestParsePaths:
    def test_worked_example(self, up_paths):
        assert up_paths.gamma == 3
        assert up_paths.universe == ("v1", "v2", "v3", "v4")
        assert up_paths.directly_measured == frozenset({"v1", "v4"})
        assert up_paths.incidence_masks["v2"] == 1 << 2

    def test_duplicates_collapse(self, golden):
        ps = fs.parse_paths("m1 v1 m2\nm1 v1 m2\n", golden)
        assert ps.gamma == 1

    def test_shared_trace_kept_per_line(self, golden):
        ps = fs.parse_paths("m1 v1 m2\nm2 v1 m1\n", golden)
        assert ps.paths == (frozenset({"v1"}), frozenset({"v1"}))

    def test_repeated_line_keeps_its_first_place(self, golden):
        ps = fs.parse_paths("m1 v1 m2\nm2 v4 m3\nm1 v1 m2\n", golden)
        assert ps.paths == (frozenset({"v1"}), frozenset({"v4"}))

    def test_endpoint_must_be_monitor(self, golden):
        with pytest.raises(TopologyError):
            fs.parse_paths("v1 v2 v4\n", golden)

    def test_unknown_node(self, golden):
        with pytest.raises(TopologyError):
            fs.parse_paths("m1 zz m2\n", golden)

    def test_steps_must_be_links(self, golden):
        with pytest.raises(TopologyError):
            fs.parse_paths("m1 v3 m3\n", golden)

    def test_too_short(self, golden):
        with pytest.raises(TopologyError):
            fs.parse_paths("m1\n", golden)


@pytest.mark.parametrize(
    "build",
    [
        fs.route_up,
        lambda t: fs.parse_paths(read_fixture("golden/up.paths"), t),
        lambda t: fs.PathSet([["v1"], ["v2", "v4"], []], t.non_monitors),
        fs.enumerate_csp,
        fs.enumerate_cap,
    ],
    ids=["route_up", "parse_paths", "constructor", "enumerate_csp", "enumerate_cap"],
)
def test_path_set_holds_masks_alone(build, golden):
    # every path source writes trace masks; names are made only when read
    ps = build(golden)
    assert "paths" not in vars(ps)
    assert len(ps.paths) == ps.gamma and "paths" in vars(ps)
