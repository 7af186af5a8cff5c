import pytest

import faultscope as fs
from faultscope import IntBounds, Mechanism

from conftest import oracle_max_identifiable_set


@pytest.fixture(scope="module")
def chain5() -> fs.Topology:
    return fs.load_topology("m1 v1\nv1 v2\nv2 v3\nv3 m2\n", monitors=["m1", "m2"])


class TestPerNodeBounds:
    def test_cap_matches_single_queries(self, golden):
        table = fs.per_node_bounds(golden, Mechanism.CAP)
        assert table == {v: fs.omega_cap(golden, v) for v in golden.non_monitors}

    def test_up_refined(self, golden, up_paths):
        table = fs.per_node_bounds(fs.Analysis(golden, up_paths), Mechanism.UP)
        assert table == {
            "v1": IntBounds.exactly(4),
            "v2": IntBounds.exactly(1),
            "v3": IntBounds.exactly(0),
            "v4": IntBounds.exactly(4),
        }

    def test_up_raw(self, golden, up_paths):
        a = fs.Analysis(golden, up_paths)
        table = fs.per_node_bounds(a, Mechanism.UP, refine_single=False)
        assert table["v2"] == IntBounds(0, 1)

    def test_csp_refinement_settles_chain(self, chain5):
        raw = fs.per_node_bounds(chain5, Mechanism.CSP, refine_single=False)
        refined = fs.per_node_bounds(chain5, Mechanism.CSP)
        assert all(b == IntBounds(0, 1) for b in raw.values())
        assert all(b == IntBounds.exactly(0) for b in refined.values())

    def test_foreign_path_set_rejected(self, golden, chain4):
        ps = fs.route_up(chain4)
        with pytest.raises(ValueError):
            fs.per_node_bounds(fs.Analysis(golden, ps), Mechanism.UP)

    def test_foreign_path_set_rejected_at_construction(self, golden, chain4):
        with pytest.raises(ValueError, match="universe"):
            fs.Analysis(golden, fs.route_up(chain4))

    def test_tables_handed_out_cannot_change_the_context(self, golden):
        a = fs.Analysis(golden)
        table = fs.per_node_bounds(a, Mechanism.CAP)
        table["v1"] = IntBounds.exactly(0)
        assert fs.per_node_bounds(a, Mechanism.CAP)["v1"] != IntBounds.exactly(0)
        with pytest.raises(TypeError):
            a.table(Mechanism.CSP)["v1"] = IntBounds.exactly(0)


class TestOmegaSet:
    def test_cap_golden(self, golden):
        assert fs.omega_set(golden, ["v1", "v2", "v4"], Mechanism.CAP) == IntBounds.exactly(4)

    def test_csp_golden_all(self, golden):
        got = fs.omega_set(golden, golden.non_monitors, Mechanism.CSP)
        assert got == IntBounds.exactly(3)

    def test_up_worked_example(self, golden, up_paths):
        got = fs.omega_set(fs.Analysis(golden, up_paths), ["v1", "v2", "v4"], Mechanism.UP)
        assert got == IntBounds.exactly(1)

    def test_up_wide_paths(self, golden, csp_paths):
        got = fs.omega_set(fs.Analysis(golden, csp_paths), golden.non_monitors, Mechanism.UP)
        assert got == IntBounds(1, 3)

    def test_member_minimum(self, golden):
        table = fs.per_node_bounds(golden, Mechanism.CSP)
        for pair in (("v1", "v2"), ("v2", "v3"), ("v1", "v3", "v4")):
            got = fs.omega_set(golden, pair, Mechanism.CSP)
            assert got.lo == min(table[v].lo for v in pair)
            assert got.hi == min(table[v].hi for v in pair)

    def test_empty_group_rejected(self, golden):
        with pytest.raises(ValueError):
            fs.omega_set(golden, [], Mechanism.CAP)


class TestMaxIdentifiableSet:
    @pytest.mark.parametrize(
        "k,members",
        [(1, {"v1", "v2", "v4"}), (2, {"v1", "v4"}), (3, {"v1", "v4"}), (4, {"v1", "v4"})],
    )
    def test_up_worked_example_exact(self, golden, up_paths, k, members):
        sb = fs.max_identifiable_set(fs.Analysis(golden, up_paths), k, Mechanism.UP)
        assert sb.exact
        assert sb.inner == frozenset(members)

    def test_up_raw_brackets(self, golden, up_paths):
        # the raw table, before the single-failure refinement, brackets S*(1)
        raw = fs.per_node_bounds(fs.Analysis(golden, up_paths), Mechanism.UP, refine_single=False)
        assert {v for v, b in raw.items() if b.lo >= 1} == {"v1", "v4"}
        assert {v for v, b in raw.items() if b.hi >= 1} == {"v1", "v2", "v4"}

    def test_cap_golden(self, golden):
        sb = fs.max_identifiable_set(golden, 4, Mechanism.CAP)
        assert sb.exact
        assert sb.inner == frozenset(golden.non_monitors)

    def test_csp_golden(self, golden):
        sb = fs.max_identifiable_set(golden, 4, Mechanism.CSP)
        assert sb.exact
        assert sb.inner == frozenset({"v1", "v3", "v4"})
        sb = fs.max_identifiable_set(golden, 3, Mechanism.CSP)
        assert sb.exact
        assert sb.inner == frozenset(golden.non_monitors)

    def test_chain4_csp_empty(self, chain4):
        for k in (1, 2):
            sb = fs.max_identifiable_set(chain4, k, Mechanism.CSP)
            assert sb.exact
            assert sb.inner == frozenset()

    def test_monotone_in_k(self, golden, csp_paths):
        a = fs.Analysis(golden, csp_paths)
        for mech in (Mechanism.CAP, Mechanism.CSP, Mechanism.UP):
            prev = None
            for k in range(1, golden.sigma + 1):
                sb = fs.max_identifiable_set(a, k, mech)
                if prev is not None:
                    assert sb.inner <= prev.inner
                    assert sb.outer <= prev.outer
                prev = sb

    def test_matches_oracle_on_worked_paths(self, golden, up_paths, csp_paths):
        for ps in (up_paths, csp_paths):
            a = fs.Analysis(golden, ps)
            for k in range(1, golden.sigma + 1):
                sb = fs.max_identifiable_set(a, k, Mechanism.UP)
                exact = oracle_max_identifiable_set(ps, k)
                assert sb.inner <= exact <= sb.outer

    def test_k_range(self, golden):
        with pytest.raises(ValueError):
            fs.max_identifiable_set(golden, 0, Mechanism.CAP)
        with pytest.raises(ValueError):
            fs.max_identifiable_set(golden, 5, Mechanism.CAP)
