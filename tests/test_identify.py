import pytest

import faultscope as fs
from faultscope import CspInternals, IntBounds, Mechanism, SetBounds, Status

from conftest import plain_gsc


@pytest.fixture(scope="module")
def chain5() -> fs.Topology:
    return fs.load_topology("m1 v1\nv1 v2\nv2 v3\nv3 m2\n", monitors=["m1", "m2"])


@pytest.fixture(scope="module")
def pendant() -> fs.Topology:
    """v3 hangs off the chain; every monitor path around it crosses v1."""
    return fs.load_topology("m1 v1\nv1 v2\nv2 m2\nv1 v3\n", monitors=["m1", "m2"])


@pytest.fixture(scope="module")
def hub() -> fs.Topology:
    """v1 sits behind three relays that each touch both monitors."""
    return fs.load_topology(
        "v1 v2\nv1 v3\nv1 v4\nv2 m1\nv2 m2\nv3 m1\nv3 m2\nv4 m1\nv4 m2\n",
        monitors=["m1", "m2"],
    )


class TestValueObjects:
    def test_bounds_order(self):
        with pytest.raises(ValueError):
            IntBounds(2, 1)
        with pytest.raises(ValueError):
            IntBounds(-1, 0)

    def test_bounds_api(self):
        b = IntBounds(1, 3)
        assert not b.exact
        assert b.contains(2) and not b.contains(4)
        assert IntBounds.exactly(4) == IntBounds(4, 4)
        assert IntBounds.exactly(4).exact

    def test_internals(self):
        with pytest.raises(ValueError):
            CspInternals(1, 2)
        assert CspInternals(4, 3).pi == 3
        assert CspInternals(1, 0).pi == 0
        assert CspInternals(2, 2).pi == 1

    def test_set_bounds(self):
        with pytest.raises(ValueError):
            SetBounds(frozenset({"a"}), frozenset())
        assert SetBounds(frozenset({"a"}), frozenset({"a"})).exact

    def test_tristate(self, chain4):
        r = fs.k_identifiable(chain4, ["v1"], 2, "cap")
        assert r.is_identifiable and not r.is_undetermined
        assert r.status is Status.IDENTIFIABLE


class TestOmegaCap:
    def test_chain4(self, chain4):
        assert fs.omega_cap(chain4, "v1") == IntBounds.exactly(2)
        assert fs.omega_cap(chain4, "v2") == IntBounds.exactly(2)

    def test_chain5(self, chain5):
        assert fs.omega_cap(chain5, "v1") == IntBounds.exactly(3)
        assert fs.omega_cap(chain5, "v2") == IntBounds.exactly(2)
        assert fs.omega_cap(chain5, "v3") == IntBounds.exactly(3)

    def test_golden_all_sigma(self, golden):
        for v in golden.non_monitors:
            assert fs.omega_cap(golden, v) == IntBounds.exactly(4)

    def test_monitor_rejected(self, chain4):
        with pytest.raises(ValueError):
            fs.omega_cap(chain4, "m1")

    def test_unknown_rejected(self, chain4):
        with pytest.raises(ValueError):
            fs.omega_cap(chain4, "zz")


class TestKIdentifiableCap:
    def test_golden(self, golden):
        r = fs.k_identifiable(golden, ["v1", "v2", "v4"], 4, "cap")
        assert r.is_identifiable
        assert r.rule == "star-cut"

    def test_chain5_middle(self, chain5):
        assert fs.k_identifiable(chain5, ["v2"], 3, "cap").status is Status.NOT_IDENTIFIABLE
        assert fs.k_identifiable(chain5, ["v2"], 2, "cap").is_identifiable

    def test_never_undetermined(self, golden, chain4, chain5):
        for t in (golden, chain4, chain5):
            for k in range(1, t.sigma + 1):
                assert not fs.k_identifiable(t, t.non_monitors, k, "cap").is_undetermined

    def test_k_range(self, chain4):
        with pytest.raises(ValueError):
            fs.k_identifiable(chain4, ["v1"], 0, "cap")
        with pytest.raises(ValueError):
            fs.k_identifiable(chain4, ["v1"], 3, "cap")

    def test_empty_group(self, chain4):
        with pytest.raises(ValueError):
            fs.k_identifiable(chain4, [], 1, "cap")


class TestCspInternals:
    def test_chain4(self, chain4):
        got = fs.csp_internals(chain4, "v1")
        assert got == CspInternals(delta_star=2, delta_min=1)
        assert got.pi == 1

    def test_golden_v2(self, golden):
        assert fs.csp_internals(golden, "v2") == CspInternals(4, 3)

    def test_pendant(self, pendant):
        assert fs.csp_internals(pendant, "v3") == CspInternals(1, 1)

    def test_hub(self, hub):
        assert fs.csp_internals(hub, "v1") == CspInternals(3, 3)

    def test_plain_topology_matches_the_analysis(self, golden):
        a = fs.Analysis(golden)
        for v in golden.non_monitors:
            assert fs.omega_cap(golden, v).lo == a.cap[v]
            assert fs.csp_internals(golden, v) == a.csp[v]


class TestOmegaCsp:
    def test_chain4_single_cut_vertex(self, chain4):
        assert fs.omega_csp(chain4, "v1") == IntBounds.exactly(0)
        assert fs.omega_csp(chain4, "v2") == IntBounds.exactly(0)

    def test_golden_two_monitor_neighbors(self, golden):
        for v in ("v1", "v3", "v4"):
            assert fs.omega_csp(golden, v) == IntBounds.exactly(4)

    def test_golden_near_complete(self, golden):
        assert fs.omega_csp(golden, "v2") == IntBounds.exactly(3)

    def test_pendant_unreachable(self, pendant):
        assert fs.omega_csp(pendant, "v3") == IntBounds.exactly(0)

    def test_chain5_interval(self, chain5):
        for v in chain5.non_monitors:
            assert fs.omega_csp(chain5, v) == IntBounds(0, 1)

    def test_hub_interval(self, hub):
        assert fs.omega_csp(hub, "v1") == IntBounds(1, 2)


class TestKIdentifiableCsp:
    def test_golden_full_set_fails_at_sigma(self, golden):
        r = fs.k_identifiable(golden, golden.non_monitors, 4, "csp")
        assert r.status is Status.NOT_IDENTIFIABLE
        assert r.rule == "all-two-monitor-neighbors"

    def test_golden_without_v2_reaches_sigma(self, golden):
        r = fs.k_identifiable(golden, ["v1", "v3", "v4"], 4, "csp")
        assert r.is_identifiable
        assert r.rule == "all-two-monitor-neighbors"

    def test_golden_near_complete_at_sigma_minus_one(self, golden):
        r = fs.k_identifiable(golden, ["v2"], 3, "csp")
        assert r.is_identifiable
        assert r.rule == "near-complete-neighborhood"

    def test_golden_cut_sufficient(self, golden):
        r = fs.k_identifiable(golden, ["v2"], 2, "csp")
        assert r.is_identifiable
        assert r.rule == "cut-sufficient"

    def test_chain4_single_failure(self, chain4):
        r = fs.k_identifiable(chain4, ["v1"], 1, "csp")
        assert r.status is Status.NOT_IDENTIFIABLE

    def test_hub_gap(self, hub):
        r = fs.k_identifiable(hub, ["v1"], 2, "csp")
        assert r.is_undetermined
        assert r.rule == "cut-gap"

    def test_k_range(self, golden):
        with pytest.raises(ValueError):
            fs.k_identifiable(golden, ["v1"], 5, "csp")


class TestOneIdentifiable:
    def test_cap_always(self, chain4, golden):
        for t in (chain4, golden):
            r = fs.one_identifiable(t, t.non_monitors, Mechanism.CAP)
            assert r.is_identifiable
            assert r.rule == "any-monitor-reachable"

    def test_csp_confusable_pair(self, chain4):
        r = fs.one_identifiable(chain4, ["v1"], Mechanism.CSP)
        assert r.status is Status.NOT_IDENTIFIABLE
        assert r.rule == "single-failure-test:confusable-pair:v1~v2"

    def test_csp_not_two_connected(self, pendant):
        r = fs.one_identifiable(pendant, ["v3"], Mechanism.CSP)
        assert r.status is Status.NOT_IDENTIFIABLE
        assert r.rule == "single-failure-test:not-two-connected:v3"

    def test_csp_golden_all(self, golden):
        r = fs.one_identifiable(golden, golden.non_monitors, Mechanism.CSP)
        assert r.is_identifiable
        assert r.rule == "single-failure-test"

    def test_up_worked_example(self, golden, up_paths):
        a = fs.Analysis(golden, up_paths)
        r = fs.one_identifiable(a, ["v1", "v2", "v4"], Mechanism.UP)
        assert r.is_identifiable
        assert fs.one_identifiable(a, ["v3"], Mechanism.UP).rule == (
            "single-failure-test:no-path:v3"
        )

    def test_csp_not_two_connected_decides_before_a_confusable_pair(self):
        # n4 sorts first and is confusable with n6, but n5 is not two-connected
        # to the monitors, and that verdict decides the group at k = 1
        t = fs.place_monitors(fs.gen_er(8, 0.35, 2).topology, 2, 2)
        a = fs.Analysis(t)
        assert a.single("csp")["n4"].rule == "single-failure-test:confusable-pair:n4~n6"
        expected = "single-failure-test:not-two-connected:n5"
        assert fs.one_identifiable(a, ["n4", "n5"], "csp").rule == expected
        assert fs.k_identifiable(a, ["n4", "n5"], 1, "csp").rule == expected

    def test_up_on_a_topology_reads_the_routed_paths(self, golden, monkeypatch):
        # an Analysis built without paths routes them with route_up, once and
        # only for an up query; a topology query builds a fresh Analysis
        route_up, routes = fs.identify.route_up, []
        monkeypatch.setattr(fs.identify, "route_up", lambda t: routes.append(t) or route_up(t))
        routed = fs.Analysis(golden, route_up(golden))
        queries = (
            lambda t: fs.one_identifiable(t, ["v1", "v2"], Mechanism.UP),
            lambda t: fs.k_identifiable(t, ["v4"], 2, Mechanism.UP),
            lambda t: fs.per_node_bounds(t, Mechanism.UP),
            lambda t: fs.max_identifiable_set(t, 2, Mechanism.UP),
        )
        for query in queries:
            assert query(golden) == query(routed)
        assert routes == [golden] * len(queries)

        a, routes[:] = fs.Analysis(golden), []
        for m in (Mechanism.CAP, Mechanism.CSP):
            fs.one_identifiable(a, ["v1"], m)
            fs.max_identifiable_set(a, 2, m)
            a.oracle(m)
        assert routes == []
        for query in queries:
            assert query(a) == query(routed)
        assert a.oracle(Mechanism.UP) == routed.oracle(Mechanism.UP)
        assert routes == [golden]

    def test_mechanism_by_name(self, chain4):
        assert fs.one_identifiable(chain4, ["v1"], "cap").is_identifiable


class TestGsc:
    def test_worked_example(self, up_paths):
        assert fs.gsc(up_paths, "v2") == 1
        assert fs.gsc(up_paths, "v1") == 4
        assert fs.gsc(up_paths, "v3") == 0

    def test_simple_paths(self, csp_paths):
        assert fs.gsc(csp_paths, "v2") == 3

    def test_monitor_rejected(self, up_paths):
        with pytest.raises(ValueError):
            fs.gsc(up_paths, "m1")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_all_candidates_greedy(self, seed):
        # gsc scans one node per incidence mask; on battery instances, and on rings
        # whose nodes between two monitors all share one incidence mask
        instances = fs.er_battery(30, seed) + fs.er_battery(
            10, seed, n_range=(20, 40), p_range=(0.15, 0.25), monitor_counts=(3, 6)
        )
        ring = "".join(f"r{i} r{(i + 1) % 40}\n" for i in range(40))
        for monitors in (["r0", "r20"], ["r0", "r7", "r20", "r31"]):
            instances.append(fs.load_topology(ring, monitors=monitors))
        # a, b and c tie on v's paths at first; a first covers them in 2, c in 3
        tie = fs.PathSet(["va", "vac", "vbc", "vb"], "abcv")
        for ps in [fs.route_up(t) for t in instances] + [tie]:
            for v in ps.universe:
                assert fs.gsc(ps, v) == plain_gsc(ps, v), (ps, v)
        assert fs.gsc(tie, "v") == 2


class TestOmegaUp:
    def test_directly_measured(self, up_paths):
        assert fs.omega_up(up_paths, "v1") == IntBounds.exactly(4)
        assert fs.omega_up(up_paths, "v4") == IntBounds.exactly(4)

    def test_unmeasured(self, up_paths):
        assert fs.omega_up(up_paths, "v3") == IntBounds.exactly(0)

    def test_covered(self, up_paths):
        assert fs.omega_up(up_paths, "v2") == IntBounds(0, 1)

    def test_wider_path_set(self, csp_paths):
        assert fs.omega_up(csp_paths, "v2") == IntBounds(1, 3)


class TestKIdentifiableUp:
    @pytest.fixture()
    def up(self, golden, up_paths):
        return fs.Analysis(golden, up_paths)

    def test_all_directly_measured(self, up):
        r = fs.k_identifiable(up, ["v1", "v4"], 4, "up")
        assert r.is_identifiable
        assert r.rule == "all-directly-measured"

    def test_single_failure(self, up):
        assert fs.k_identifiable(up, ["v2"], 1, "up").is_identifiable
        r = fs.k_identifiable(up, ["v3"], 1, "up")
        assert r.status is Status.NOT_IDENTIFIABLE
        assert r.rule == "single-failure-test:no-path:v3"

    def test_cover_necessary(self, up):
        r = fs.k_identifiable(up, ["v2"], 2, "up")
        assert r.status is Status.NOT_IDENTIFIABLE
        assert r.rule == "cover-necessary"

    def test_cover_gap(self, golden, csp_paths):
        r = fs.k_identifiable(fs.Analysis(golden, csp_paths), ["v2"], 2, "up")
        assert r.is_undetermined
        assert r.rule == "cover-gap"

    def test_k_range(self, up):
        with pytest.raises(ValueError):
            fs.k_identifiable(up, ["v2"], 0, "up")
