import random

import pytest

import faultscope as fs
from faultscope import Graph, Mechanism, OracleCapError

from conftest import affected, literal_k_identifiable, oracle_max_identifiable_set


class TestDistinguishable:
    # two failure sets are told apart iff they disrupt different paths
    def test_distinct_affected_sets(self, up_paths):
        assert affected(up_paths, ["v2"]) != affected(up_paths, ["v4"])

    def test_nested_failures_confused(self, up_paths):
        assert affected(up_paths, ["v4"]) == affected(up_paths, ["v2", "v4"])

    def test_equal_sets_confused(self, up_paths):
        assert affected(up_paths, ["v2"]) == affected(up_paths, ["v2"])


class TestOracleKIdentifiable:
    def test_worked_example(self, up_paths):
        assert fs.oracle_k_identifiable(up_paths, ["v2"], 1)
        assert not fs.oracle_k_identifiable(up_paths, ["v2"], 2)

    def test_walk_paths_reach_sigma(self, cap_paths):
        assert fs.oracle_k_identifiable(cap_paths, ["v1", "v2", "v3", "v4"], 4)

    def test_k_out_of_range(self, up_paths):
        with pytest.raises(ValueError):
            fs.oracle_k_identifiable(up_paths, ["v2"], 0)
        with pytest.raises(ValueError):
            fs.oracle_k_identifiable(up_paths, ["v2"], 5)

    def test_matches_literal_definition(self):
        # every k in 1..sigma, past any bound on k, on routed, simple-path
        # and walk path sets
        rng = random.Random(14)
        tops = [t for t in fs.er_battery(80, seed=14, n_range=(4, 10)) if t.sigma <= 8]
        answers_past_5 = set()
        for t in tops:
            for ps in (fs.route_up(t), fs.enumerate_csp(t), fs.enumerate_cap(t)):
                for _ in range(2):
                    group = rng.sample(t.non_monitors, rng.randint(1, t.sigma))
                    for k in range(1, t.sigma + 1):
                        expected = literal_k_identifiable(ps, group, k)
                        assert fs.oracle_k_identifiable(ps, group, k) == expected, (group, k)
                        if k > 5:
                            answers_past_5.add(expected)
        assert answers_past_5 == {False, True}


class TestOracleOmega:
    def test_single_nodes(self, up_paths):
        assert fs.oracle_omega(up_paths, ["v1"]) == 4
        assert fs.oracle_omega(up_paths, ["v3"]) == 0

    def test_group_is_member_minimum(self, up_paths):
        assert fs.oracle_omega(up_paths, ["v1", "v2", "v4"]) == 1

    def test_simple_path_group(self, csp_paths):
        assert fs.oracle_omega(csp_paths, ["v1", "v2", "v4"]) == 3

    def test_omega_all(self, up_paths, csp_paths, cap_paths):
        assert fs.oracle_omega_all(up_paths) == {"v1": 4, "v2": 1, "v3": 0, "v4": 4}
        assert fs.oracle_omega_all(csp_paths) == {"v1": 4, "v2": 3, "v3": 4, "v4": 4}
        assert fs.oracle_omega_all(cap_paths) == {"v1": 4, "v2": 4, "v3": 4, "v4": 4}

    def test_omega_all_agrees_with_singles(self, csp_paths):
        table = fs.oracle_omega_all(csp_paths)
        for v, value in table.items():
            assert fs.oracle_omega(csp_paths, [v]) == value

    def test_empty_group_rejected(self, up_paths):
        with pytest.raises(ValueError):
            fs.oracle_omega(up_paths, [])

    def test_monitor_rejected(self, up_paths):
        with pytest.raises(ValueError):
            fs.oracle_omega(up_paths, ["m1"])


class TestOracleMaxSet:
    @pytest.mark.parametrize(
        "k,expected",
        [(1, {"v1", "v2", "v4"}), (2, {"v1", "v4"}), (3, {"v1", "v4"}), (4, {"v1", "v4"})],
    )
    def test_routing_paths(self, up_paths, k, expected):
        assert oracle_max_identifiable_set(up_paths, k) == frozenset(expected)

    @pytest.mark.parametrize(
        "k,expected",
        [
            (1, {"v1", "v2", "v3", "v4"}),
            (3, {"v1", "v2", "v3", "v4"}),
            (4, {"v1", "v3", "v4"}),
        ],
    )
    def test_simple_paths(self, csp_paths, k, expected):
        assert oracle_max_identifiable_set(csp_paths, k) == frozenset(expected)


class TestOracleMsc:
    def test_covered_by_one(self, up_paths):
        assert fs.oracle_msc(up_paths, "v2") == 1

    def test_directly_measured_convention(self, up_paths):
        assert fs.oracle_msc(up_paths, "v1") == 4

    def test_unmeasured_convention(self, up_paths):
        assert fs.oracle_msc(up_paths, "v3") == 0

    def test_simple_paths(self, csp_paths):
        assert fs.oracle_msc(csp_paths, "v2") == 3


class TestBruteVertexCut:
    def test_path(self):
        g = Graph(frozenset("sat"), frozenset({frozenset("sa"), frozenset("at")}))
        assert fs.brute_vertex_cut(g, "s", "t") == 1

    def test_cycle(self):
        g = Graph(
            frozenset("abcd"),
            frozenset(frozenset(e) for e in ("ab", "bc", "cd", "da")),
        )
        assert fs.brute_vertex_cut(g, "a", "c") == 2

    def test_complete_adjacent(self):
        g = Graph(
            frozenset("abcd"),
            frozenset(frozenset(e) for e in ("ab", "ac", "ad", "bc", "bd", "cd")),
        )
        assert fs.brute_vertex_cut(g, "a", "b") == 3

    def test_node_cap(self):
        g = Graph(
            frozenset(f"n{i}" for i in range(9)),
            frozenset(frozenset({f"n{i}", f"n{i + 1}"}) for i in range(8)),
        )
        with pytest.raises(OracleCapError):
            fs.brute_vertex_cut(g, "n0", "n8")


@pytest.fixture(scope="module")
def wide() -> fs.PathSet:
    t = fs.place_monitors(fs.gen_er(13, 0.5, seed=3).topology, 2, seed=1)
    assert t.sigma == 11
    return fs.route_up(t)


class TestCaps:
    def test_sigma_cap(self, wide):
        with pytest.raises(OracleCapError):
            fs.oracle_omega_all(wide)

    def test_k_test_universe_cap(self, wide):
        # the universe cap, not k, bounds the k-test
        with pytest.raises(OracleCapError, match="universe size 11"):
            fs.oracle_k_identifiable(wide, wide.universe[:1], 1)


def test_analysis_oracle_makes_no_name_sets(golden, monkeypatch):
    # the CSP and CAP tables read the enumerators' trace masks alone: no path
    # set is built from names, and no name is made from a mask
    def never(*args):
        raise AssertionError("a path set's names were made")

    class NoNames:
        def __get__(self, ps, owner=None):
            never()

    monkeypatch.setattr(fs.PathSet, "__init__", never)
    monkeypatch.setattr(fs.PathSet, "paths", NoNames(), raising=False)
    dense = fs.place_monitors(fs.gen_er(14, 0.3, seed=1).topology, 4, seed=1)
    assert (len(dense.nodes), dense.sigma) == (14, 10)
    for t in [golden, dense] + fs.er_battery(30, 1):
        a = fs.Analysis(t)
        for m in (Mechanism.CSP, Mechanism.CAP):
            assert len(a.oracle(m)) == t.sigma
