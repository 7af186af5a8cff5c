"""Every public record compares and hashes by value.

Each case builds a record twice by different routes that must agree (input
in another order or type, keyword arguments, a round trip through the
topology format, a header stamped on with ``_replace``) and once with one
field changed.
"""

import pytest

import faultscope as fs
from faultscope import IntBounds, Mechanism, ReportMeta, SetBounds, Status
from faultscope.reports import AnalysisRow, MaxsetRow, SetRow

TEXT = "# monitors: a\na b\nb c\nc a\nc d\n"
ROW_BOUNDS = ((Mechanism.CAP, IntBounds(1, 1)),)
FAILURE = fs.CheckFailure("er-1", "cap", "b: closed form 1 != oracle 2")


def _topology(monitors=("a",)) -> fs.Topology:
    return fs.load_topology(TEXT, monitors)


def _report() -> fs.AnalysisReport:
    return fs.analyze(_topology(), ["up", "csp", "cap"], group=["b", "c"])


def _ccdf() -> fs.CcdfTable:
    return fs.ccdf(_topology(), ["csp"])


# (record, a construction, another construction of an equal record, one field changed)
CASES = [
    (
        "Graph",
        lambda: fs.Graph(("a", "b", "c"), (("a", "b"), ("b", "c"))),
        lambda: fs.Graph(nodes=["c", "b", "a"], edges=[("c", "b"), ("b", "a")]),
        lambda: fs.Graph(("a", "b", "c"), (("a", "b"), ("a", "c"))),
    ),
    (
        "Topology",
        _topology,
        lambda: fs.load_topology(fs.format_topology(_topology())),
        lambda: _topology(("a", "b")),
    ),
    (
        "PathSet",
        lambda: fs.PathSet((frozenset("b"), frozenset("bc")), ("b", "c")),
        lambda: fs.PathSet([["b"], ["c", "b"]], ["b", "c"]),
        lambda: fs.PathSet((frozenset("c"), frozenset("bc")), ("b", "c")),
    ),
    (
        "CutQueryResult",
        lambda: fs.CutQueryResult("a", "d", 1),
        lambda: fs.min_vertex_cut_size(_topology(), "a", "d"),
        lambda: fs.CutQueryResult("a", "d", 1, adjacent_case=True),
    ),
    (
        "TriState",
        lambda: fs.TriState(Status.IDENTIFIABLE, "single-failure-test"),
        lambda: fs.TriState(status=Status.IDENTIFIABLE, rule="single-failure-test"),
        lambda: fs.TriState(Status.NOT_IDENTIFIABLE, "single-failure-test"),
    ),
    ("IntBounds", lambda: IntBounds(1, 2), lambda: IntBounds(lo=1, hi=2), lambda: IntBounds(1, 3)),
    (
        "CspInternals",
        lambda: fs.CspInternals(3, 2),
        lambda: fs.CspInternals(delta_star=3, delta_min=2),
        lambda: fs.CspInternals(3, 1),
    ),
    (
        "SetBounds",
        lambda: SetBounds(frozenset("a"), frozenset("ab")),
        lambda: SetBounds(["a"], ["b", "a"]),
        lambda: SetBounds(frozenset("a"), frozenset("a")),
    ),
    (
        "ReportMeta",
        lambda: ReportMeta(1, "x"),
        lambda: ReportMeta(flags="x", seed=1),
        lambda: ReportMeta(2, "x"),
    ),
    (
        "AnalysisRow",
        lambda: AnalysisRow("b", 2, 1, 1, ROW_BOUNDS),
        lambda: AnalysisRow("b", 2, 1, 1, bounds=ROW_BOUNDS),
        lambda: AnalysisRow("b", 3, 1, 1, ROW_BOUNDS),
    ),
    (
        "SetRow",
        lambda: SetRow(Mechanism.CSP, ("b", "c"), IntBounds(0, 1)),
        lambda: SetRow(mechanism=Mechanism.CSP, members=("b", "c"), bounds=IntBounds(0, 1)),
        lambda: SetRow(Mechanism.UP, ("b", "c"), IntBounds(0, 1)),
    ),
    (
        "MaxsetRow",
        lambda: MaxsetRow(Mechanism.CAP, 1, SetBounds("b", "bc")),
        lambda: MaxsetRow(Mechanism.CAP, k=1, sets=SetBounds(["b"], ["c", "b"])),
        lambda: MaxsetRow(Mechanism.CAP, 2, SetBounds("b", "bc")),
    ),
    (
        "AnalysisReport",
        lambda: _report()._replace(meta=ReportMeta(1, "x")),
        lambda: fs.AnalysisReport(ReportMeta(1, "x"), *_report()[1:]),
        lambda: _report()._replace(meta=ReportMeta(2, "x")),
    ),
    (
        "CcdfTable",
        lambda: _ccdf()._replace(meta=ReportMeta(1, "x")),
        lambda: fs.CcdfTable(ReportMeta(1, "x"), _ccdf().rows),
        lambda: _ccdf(),
    ),
    (
        "CheckFailure",
        lambda: FAILURE,
        lambda: fs.CheckFailure(*FAILURE),
        lambda: FAILURE._replace(check="csp"),
    ),
    (
        "VerificationReport",
        lambda: fs.VerificationReport(3, 12, (FAILURE,)),
        lambda: fs.VerificationReport(instances=3, checks=12, failures=(FAILURE,)),
        lambda: fs.VerificationReport(3, 12, ()),
    ),
]


@pytest.mark.parametrize("name, build, rebuild, changed", CASES, ids=[c[0] for c in CASES])
def test_records_compare_and_hash_by_value(name, build, rebuild, changed):
    first, second = build(), rebuild()
    assert type(first) is type(second) is getattr(fs.reports if "Row" in name else fs, name)
    assert first == second
    assert hash(first) == hash(second)
    assert changed() != first
    for render in ("to_csv", "to_json"):
        if hasattr(first, render):
            assert getattr(first, render)() == getattr(second, render)()
