import json

import pytest

import faultscope as fs


class TestErBattery:
    def test_deterministic(self):
        a = fs.er_battery(5, seed=1)
        b = fs.er_battery(5, seed=1)
        assert a == b
        assert len(a) == 5

    def test_monitored_and_connected(self):
        for t in fs.er_battery(5, seed=2):
            assert t.mu >= 2
            assert t.is_connected()

    def test_ranges_respected(self):
        for t in fs.er_battery(8, seed=3, n_range=(5, 6), monitor_counts=(2,)):
            assert 5 <= len(t.nodes) <= 6
            assert t.mu == 2


@pytest.mark.parametrize(
    "battery, argument",
    [
        (lambda: fs.verify_cut_engine(-3, 1), "count"),
        (lambda: fs.er_battery(3, 1, monitor_counts=()), "monitor_counts"),
        (lambda: fs.er_battery(3, 1, n_range=(9, 5)), "n_range"),
        (lambda: fs.er_battery(-1, 1), "count"),
        (lambda: fs.er_battery(1, 1, n_range=(2, 10_001)), "n_range"),
    ],
    ids=["cut-engine-count", "er-monitor-counts", "er-n-range", "er-count", "er-n-past-gen-cap"],
)
def test_battery_argument_refused_before_any_draw(battery, argument, monkeypatch):
    # the library batteries judge their arguments by the battery spec rows
    def never(*args, **kwargs):
        raise AssertionError("an instance was drawn for a refused argument")

    monkeypatch.setattr("faultscope.verify.gen_er", never)
    monkeypatch.setattr("faultscope.verify.random_graph", never)
    with pytest.raises(ValueError, match=rf"^{argument} must be "):
        battery()


class TestVerifyTopologies:
    def test_random_battery_passes(self):
        rep = fs.verify_topologies(fs.er_battery(6, seed=4))
        assert rep.ok
        assert rep.instances == 6
        assert rep.checks > 0
        assert rep.failures == ()

    def test_corruption_detected(self):
        rep = fs.verify_topologies(fs.er_battery(2, seed=1), corrupt=True)
        assert not rep.ok
        assert rep.failures[0].check == "cap-exact"

    def test_check_selection(self):
        rep = fs.verify_topologies(fs.er_battery(2, seed=1), checks=("cap",))
        assert rep.ok
        full = fs.verify_topologies(fs.er_battery(2, seed=1))
        assert rep.checks < full.checks

    def test_unknown_check_rejected(self):
        # judged by the spec's checks row: an empty selection, which would
        # pass after 0 checks, and a bare string are refused too
        for checks in (("zz",), ("cap", "zz"), (), [], "cap"):
            with pytest.raises(ValueError, match=r"^checks must be a non-empty list of check names"):
                fs.verify_topologies(fs.er_battery(2, seed=1), checks=checks)


def test_verify_cut_engine():
    rep = fs.verify_cut_engine(10, seed=3)
    assert rep.ok
    assert rep.instances == 10


def test_cut_engine_records_every_failure_in_order(monkeypatch):
    # A cut engine off by one and a negated two-connectivity test fail all
    # three checks of every ordered pair: each record, in pair order. The
    # negated test reads brute force, since two_connected itself runs through
    # the patched engine.
    cut_size = fs.CutNetwork.cut_size
    monkeypatch.setattr(fs.CutNetwork, "cut_size", lambda net, *args: cut_size(net, *args) + 1)
    monkeypatch.setattr(fs.verify, "two_connected", lambda g, s, t: fs.brute_vertex_cut(g, s, t) < 2)
    rep = fs.verify_cut_engine(2, 4, n_range=(2, 2))
    assert (rep.instances, rep.checks) == (2, 12)
    per_graph = [
        ("cut-equal", "(n0,n1): flow 2 != brute 1"),
        ("cut-bounded", "(n0,n1): flow limited to 0 gave 1, brute 1"),
        ("two-connected", "(n0,n1): biconnectivity disagrees with cut 1"),
        ("cut-equal", "(n1,n0): flow 2 != brute 1"),
        ("cut-bounded", "(n1,n0): flow limited to 1 gave 2, brute 1"),
        ("two-connected", "(n1,n0): biconnectivity disagrees with cut 1"),
    ]
    assert rep.failures == tuple(
        fs.CheckFailure(graph, check, detail)
        for graph in ("graph[0] n=2 p=0.343", "graph[1] n=2 p=0.483")
        for check, detail in per_graph
    )


class TestVerifyBatchSpec:
    def test_er_kind(self):
        assert fs.verify_batch_spec({"kind": "er", "count": 3, "seed": 9}).ok

    def test_cuts_kind(self):
        assert fs.verify_batch_spec({"kind": "cuts", "count": 5, "seed": 9}).ok

    def test_corrupt_refused_for_cuts(self):
        with pytest.raises(ValueError, match="corrupt"):
            fs.verify_batch_spec({"kind": "cuts", "count": 2}, corrupt=True)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fs.verify_batch_spec({"kind": "zz", "count": 1, "seed": 0})

    def test_spec_past_the_oracle_cap_refused_before_any_draw(self, monkeypatch):
        # one monitor at n=14 leaves 13 non-monitors
        def never(*args, **kwargs):
            raise AssertionError("instances drawn for a spec the oracle refuses")

        monkeypatch.setattr("faultscope.verify.gen_er", never)
        spec = {"count": 100000, "n_range": [13, 14], "monitor_counts": [1], "seed": 1}
        with pytest.raises(fs.OracleCapError, match="universe size 13 exceeds the oracle cap 10"):
            fs.verify_batch_spec(spec)

    def test_unknown_check_refused_before_any_draw(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("instances drawn for a spec with an unknown check")

        monkeypatch.setattr("faultscope.verify.gen_er", never)
        with pytest.raises(ValueError, match="'checks'"):
            fs.verify_batch_spec({"count": 10**6, "checks": ["bogus"]})


    def test_battery_drawn_one_instance_at_a_time(self, monkeypatch):
        # instance i + 1 is drawn only once instance i has been checked: the
        # sets check, the last of each instance, sweeps each mechanism once
        log: list[str] = []
        for name, entry in (("gen_er", "draw"), ("threshold_sweep", "check")):
            original = getattr(fs.verify, name)

            def spy(*args, _entry=entry, _original=original, **kwargs):
                log.append(_entry)
                return _original(*args, **kwargs)

            monkeypatch.setattr(fs.verify, name, spy)
        assert fs.verify_batch_spec({"count": 4, "seed": 2}).ok
        assert log == ["draw", "check", "check", "check"] * 4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_streamed_battery_reports_as_the_listed_one(self, seed):
        listed = fs.verify_topologies(fs.er_battery(200, seed))
        assert fs.verify_batch_spec({"count": 200, "seed": seed}).to_json() == listed.to_json()


class TestVerificationReport:
    def test_json(self):
        doc = json.loads(fs.verify_cut_engine(2, seed=1).to_json())
        assert doc["schema"] == "faultscope/verify v1"
        assert doc["ok"] is True
        assert doc["failures"] == []


def test_battery_builds_one_table_per_instance_and_mechanism(table_builds, monkeypatch):
    # Every per-node bound comes from a table: omega_csp and gsc run once per
    # non-monitor, wherever in the package they are called from.
    per_node = []
    for name in ("omega_csp", "gsc"):
        original = getattr(fs.identify, name)

        def spy(*args, _name=name, _original=original):
            per_node.append(_name)
            return _original(*args)

        for module in (fs.identify, fs.verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    tops = fs.er_battery(6, seed=4)
    assert fs.verify_topologies(tops).ok
    sigma = sum(t.sigma for t in tops)
    assert per_node.count("omega_csp") == per_node.count("gsc") == sigma
    # the CSP star pass gives the CAP table
    assert table_builds.count(("cap_values", None)) == 0
    assert table_builds.count(("csp_internals_all", None)) == len(tops)
    assert table_builds.count(("_csp_single_failure_nodes", None)) == len(tops)
    # CAP: one table, read by the per-node checks and the sets; CSP and UP:
    # a raw table for the per-node checks and a refined one for the sets
    assert table_builds.count(("per_node_bounds", fs.Mechanism.CAP)) == len(tops)
    for m in (fs.Mechanism.CSP, fs.Mechanism.UP):
        assert table_builds.count(("per_node_bounds", m)) == 2 * len(tops)
