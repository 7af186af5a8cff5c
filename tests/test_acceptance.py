"""Acceptance gate: one test per criterion, one PASS line per criterion.

Each test prints its verdict through capsys.disabled() so the line shows up
in normal pytest output; a failed assertion keeps the line unprinted and the
test red.
"""

import math
import random
import time

import pytest

import faultscope as fs
from faultscope import IntBounds, Mechanism

from conftest import oracle_max_identifiable_set

BATTERY_SEED = 20260816


def report(capsys, num: int, text: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] PASS - {text}")


@pytest.fixture(scope="module")
def battery():
    """200 seeded ER instances with enumerations and oracle tables, built once."""
    t0 = time.perf_counter()
    rows = []
    for t in fs.er_battery(200, seed=BATTERY_SEED):
        cap_ps = fs.enumerate_cap(t)
        csp_ps = fs.enumerate_csp(t)
        up_ps = fs.route_up(t)
        rows.append(
            {
                "t": t,
                "cap_ps": cap_ps,
                "csp_ps": csp_ps,
                "up_ps": up_ps,
                "cap_oracle": fs.oracle_omega_all(cap_ps),
                "csp_oracle": fs.oracle_omega_all(csp_ps),
                "up_oracle": fs.oracle_omega_all(up_ps),
            }
        )
    return rows, time.perf_counter() - t0


def test_criterion_01_golden_up(golden, up_paths, capsys):
    t0 = time.perf_counter()
    expected_sets = {
        1: {"v1", "v2", "v4"},
        2: {"v1", "v4"},
        3: {"v1", "v4"},
        4: {"v1", "v4"},
    }
    for k, members in expected_sets.items():
        sb = fs.max_identifiable_set(fs.Analysis(golden, up_paths), k, Mechanism.UP)
        assert sb.exact, f"S*({k}) must be exact"
        assert sb.inner == frozenset(members), f"S*({k}) mismatch"
        assert oracle_max_identifiable_set(up_paths, k) == frozenset(members)
    assert fs.oracle_omega(up_paths, ["v1"]) == 4
    assert fs.oracle_omega(up_paths, ["v4"]) == 4
    assert fs.oracle_omega(up_paths, ["v2"]) == 1
    assert fs.oracle_omega(up_paths, ["v3"]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(capsys, 1, f"golden UP sets and per-node omega match ({elapsed:.3f}s)")


def test_criterion_02_golden_csp(golden, csp_paths, capsys):
    t0 = time.perf_counter()
    everyone = frozenset(golden.non_monitors)
    for k in (1, 2, 3):
        assert oracle_max_identifiable_set(csp_paths, k) == everyone
    assert oracle_max_identifiable_set(csp_paths, 4) == frozenset({"v1", "v3", "v4"})
    assert fs.oracle_omega(csp_paths, ["v1", "v2", "v4"]) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(capsys, 2, f"golden CSP sets and omega(S')=3 match ({elapsed:.3f}s)")


def test_criterion_03_golden_cap(golden, cap_paths, capsys):
    t0 = time.perf_counter()
    table = fs.oracle_omega_all(cap_paths)
    assert table == {v: golden.sigma for v in golden.non_monitors}
    assert fs.oracle_omega(cap_paths, ["v1", "v2", "v4"]) == 4
    for v in golden.non_monitors:
        assert fs.omega_cap(golden, v) == IntBounds.exactly(4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(capsys, 3, f"golden CAP paths make every node sigma-identifiable ({elapsed:.3f}s)")


def test_criterion_04_cap_exactness(battery, capsys):
    rows, build_seconds = battery
    t0 = time.perf_counter()
    compared = 0
    for row in rows:
        values = fs.cap_values(row["t"])
        for v, exact in row["cap_oracle"].items():
            assert values[v] == exact, f"{v}: closed form {values[v]} != oracle {exact}"
            compared += 1
    elapsed = time.perf_counter() - t0 + build_seconds
    assert elapsed < 120.0
    report(
        capsys,
        4,
        f"CAP closed form oracle-exact on {len(rows)} instances, "
        f"{compared} node comparisons, zero tolerance ({elapsed:.2f}s)",
    )


def test_criterion_05_csp_sandwich(battery, capsys):
    rows, _ = battery
    checked = exact_cases = 0
    for row in rows:
        t = row["t"]
        for v, exact in row["csp_oracle"].items():
            b = fs.omega_csp(t, v)
            assert b.contains(exact), f"{v}: {b} misses oracle {exact}"
            assert b.hi - b.lo <= 1, f"{v}: interval wider than 1"
            if b.exact:
                assert b.lo == exact, f"{v}: exact branch {b.lo} != oracle {exact}"
                exact_cases += 1
            checked += 1
    report(
        capsys,
        5,
        f"CSP interval contains oracle with width <= 1 on {checked} nodes "
        f"({exact_cases} exact-branch hits equal the oracle)",
    )


def test_criterion_06_up_sandwich(battery, capsys):
    rows, _ = battery
    checked = 0
    for row in rows:
        ps = row["up_ps"]
        for v, exact in row["up_oracle"].items():
            msc = fs.oracle_msc(ps, v)
            assert msc - 1 <= exact <= msc, f"{v}: oracle {exact} outside [{msc - 1}, {msc}]"
            g = fs.gsc(ps, v)
            paths = ps.incidence_masks[v].bit_count()
            if paths == 0 or v in ps.directly_measured:
                assert g == msc
            else:
                assert msc <= g <= math.ceil((math.log(paths) + 1) * msc)
            assert fs.omega_up(ps, v).contains(exact)
            checked += 1
    report(capsys, 6, f"UP MSC sandwich and GSC guarantee hold on {checked} nodes")


def test_criterion_07_cut_engine(capsys):
    t0 = time.perf_counter()
    rep = fs.verify_cut_engine(300, seed=11)
    elapsed = time.perf_counter() - t0
    assert rep.ok, rep.failures[:3]
    assert rep.instances == 300
    assert elapsed < 60.0
    report(
        capsys,
        7,
        f"flow cut equals brute-force cut, two_connected agrees: "
        f"{rep.checks} checks on 300 graphs ({elapsed:.2f}s)",
    )


def test_criterion_08_structural_invariants(battery, capsys):
    rows, _ = battery
    rng = random.Random(BATTERY_SEED)
    subset_checks = order_checks = 0
    for row in rows[:60]:
        t = row["t"]
        up_ps, csp_ps = row["up_ps"], row["csp_ps"]

        # omega of a set is the member minimum (oracle level and theorem level)
        members = rng.sample(t.non_monitors, rng.randint(1, t.sigma))
        assert fs.oracle_omega(csp_ps, members) == min(
            row["csp_oracle"][v] for v in members
        )
        table = fs.per_node_bounds(t, Mechanism.CSP)
        got = fs.omega_set(t, members, Mechanism.CSP)
        assert got.lo == min(table[v].lo for v in members)
        assert got.hi == min(table[v].hi for v in members)
        subset_checks += 1

        # mechanism ordering, oracle-exact
        for v in t.non_monitors:
            assert row["up_oracle"][v] <= row["csp_oracle"][v] <= row["cap_oracle"][v]
            order_checks += 1

        # monotone sets and CSP within CAP
        prev_csp = prev_cap = None
        for k in range(1, t.sigma + 1):
            csp_sb = fs.max_identifiable_set(t, k, Mechanism.CSP)
            cap_sb = fs.max_identifiable_set(t, k, Mechanism.CAP)
            assert csp_sb.outer <= cap_sb.outer
            if prev_csp is not None:
                assert csp_sb.inner <= prev_csp.inner
                assert csp_sb.outer <= prev_csp.outer
                assert cap_sb.outer <= prev_cap.outer
            prev_csp, prev_cap = csp_sb, cap_sb

        # cut pair ordering and the degree cap
        for v in t.non_monitors:
            inner = fs.csp_internals(t, v)
            assert inner.delta_min <= inner.delta_star
            if t.monitor_degree(v) == 0:
                assert fs.omega_cap(t, v).hi <= t.degree(v)
    report(
        capsys,
        8,
        f"structural invariants exact on 60 instances "
        f"({subset_checks} set folds, {order_checks} ordered triples)",
    )


def test_criterion_09_figure_shape(capsys):
    t0 = time.perf_counter()
    spec = fs.BatchSpec(
        count=50,
        n=20,
        p=51 / 190,
        mus=(2, 10),
        seed=BATTERY_SEED,
        mechanisms=(Mechanism.CAP, Mechanism.CSP, Mechanism.UP),
    )
    rows = fs.ccdf_batch(spec).rows
    series = {}
    for r in rows:
        series.setdefault((r.mu, r.mechanism), []).append(r)

    for key, chunk in series.items():
        for a, b in zip(chunk, chunk[1:]):
            assert b.inner_fraction <= a.inner_fraction, f"{key} inner not monotone"
            assert b.outer_fraction <= a.outer_fraction, f"{key} outer not monotone"

    for mech in spec.mechanisms:
        low = {r.k: r for r in series[(2, mech)]}
        high = {r.k: r for r in series[(10, mech)]}
        for k in set(low) & set(high):
            assert high[k].inner_fraction >= low[k].inner_fraction, f"mu dominance {mech} k={k}"
            assert high[k].outer_fraction >= low[k].outer_fraction, f"mu dominance {mech} k={k}"

    for mu in (2, 10):
        cap = {r.k: r for r in series[(mu, Mechanism.CAP)]}
        csp = {r.k: r for r in series[(mu, Mechanism.CSP)]}
        for k in set(cap) & set(csp):
            assert cap[k].outer_fraction >= csp[k].outer_fraction, f"CAP>=CSP mu={mu} k={k}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        capsys,
        9,
        f"CCDF curves monotone, mu=10 dominates mu=2, CAP bounds CSP "
        f"({len(rows)} averaged rows, {elapsed:.2f}s)",
    )


def test_criterion_10_determinism(golden, up_paths, capsys):
    # each render builds its own Analysis, so the two come from independent tables
    rep = lambda: fs.analyze(
        fs.Analysis(golden, up_paths), (Mechanism.UP, Mechanism.CSP, Mechanism.CAP)
    )
    assert rep().to_csv() == rep().to_csv()
    assert rep().to_json() == rep().to_json()

    tab = lambda: fs.ccdf(fs.Analysis(golden, up_paths), (Mechanism.UP,))
    assert tab().to_csv() == tab().to_csv()

    spec = fs.BatchSpec(
        count=3, n=10, p=0.35, mus=(2, 3), seed=7,
        mechanisms=(Mechanism.CAP, Mechanism.UP),
    )
    serial = fs.ccdf_batch(spec).to_csv()
    parallel = fs.ccdf_batch(spec, jobs=2).to_csv()
    assert serial == parallel
    assert serial == fs.ccdf_batch(spec).to_csv()
    report(capsys, 10, "repeated and parallel renders are byte-identical")
