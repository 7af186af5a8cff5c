"""Report assembly and rendering: per-node tables, CCDF curves, batch averages.

Everything here is deterministic by construction: rows are built in sorted
or explicitly specified orders, floats are rendered with ``repr`` semantics,
and the CSV/JSON emitters never consult clocks or unordered containers, so a
fixed seed and flag set always reproduces a byte-identical report.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import os
import random
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .identify import (
    Analysis,
    IntBounds,
    Mechanism,
    SetBounds,
    _analysis,
    fold_bounds,
    threshold_sweep,
)
from .randomnet import (
    DEFAULT_MAX_NODES, _is_edge_probability, _is_int, _is_list_of, batch_topology, read_fields,
)
from .topology import Topology, check_k, check_members

VERSION = "0.1.0"
SCHEMA_ANALYSIS = "faultscope/analysis v1"
SCHEMA_CCDF = "faultscope/ccdf v1"

#: Flat column set shared by every analysis CSV section.
ANALYSIS_COLUMNS = (
    "section",
    "mechanism",
    "node",
    "k",
    "degree",
    "monitor_degree",
    "nonmonitor_degree",
    "lo",
    "hi",
    "exact",
    "inner",
    "outer",
)


class ReportMeta(NamedTuple):
    """Provenance stamped into every rendered report."""

    seed: int | None = None
    flags: str = ""


class AnalysisRow(NamedTuple):
    node: str
    degree: int
    monitor_degree: int
    nonmonitor_degree: int
    bounds: tuple[tuple[Mechanism, IntBounds], ...]

    def bound(self, mechanism: Mechanism) -> IntBounds:
        for m, b in self.bounds:
            if m is mechanism:
                return b
        raise KeyError(mechanism)


class SetRow(NamedTuple):
    mechanism: Mechanism
    members: tuple[str, ...]
    bounds: IntBounds


class MaxsetRow(NamedTuple):
    mechanism: Mechanism
    k: int
    sets: SetBounds


class AnalysisReport(NamedTuple):
    """Per-node index table plus optional per-set and per-k sections."""

    meta: ReportMeta
    sigma: int
    mechanisms: tuple[Mechanism, ...]
    rows: tuple[AnalysisRow, ...]
    set_rows: tuple[SetRow, ...] = ()
    maxset_rows: tuple[MaxsetRow, ...] = ()

    def to_csv(self, stream: TextIO | None = None) -> str | None:
        join = functools.cache(lambda s: "+".join(sorted(s)))  # max sets repeat across k
        # Positional rows in ANALYSIS_COLUMNS order; a section leaves the
        # columns it does not name empty.
        rows = itertools.chain(
            (
                ("node", m.value, row.node, "", row.degree, row.monitor_degree, row.nonmonitor_degree)
                + (b.lo, b.hi, _bool(b.exact), "", "")
                for row in self.rows
                for m, b in row.bounds
            ),
            (
                ("set", r.mechanism.value, "+".join(r.members), "", "", "", "")
                + (r.bounds.lo, r.bounds.hi, _bool(r.bounds.exact), "", "")
                for r in self.set_rows
            ),
            (
                ("maxset", r.mechanism.value, "", r.k, "", "", "", "", "", _bool(r.sets.exact))
                + (join(r.sets.inner), join(r.sets.outer))
                for r in self.maxset_rows
            ),
        )
        return _emit(_csv_lines(SCHEMA_ANALYSIS, self.meta, ANALYSIS_COLUMNS, rows), stream)

    def to_json(self, stream: TextIO | None = None) -> str | None:
        members = functools.cache(sorted)  # max sets repeat across k
        return json_document(
            SCHEMA_ANALYSIS,
            stream=stream,
            **self.meta._asdict(),
            sigma=self.sigma,
            mechanisms=self.mechanisms,
            nodes=[
                {**row._asdict(), "bounds": {m: _bounds(b) for m, b in row.bounds}}
                for row in self.rows
            ],
            sets=[
                {"mechanism": srow.mechanism, "members": srow.members, **_bounds(srow.bounds)}
                for srow in self.set_rows
            ],
            maxsets=[
                {
                    "mechanism": mrow.mechanism,
                    "k": mrow.k,
                    "inner": members(mrow.sets.inner),
                    "outer": members(mrow.sets.outer),
                    "exact": mrow.sets.exact,
                }
                for mrow in self.maxset_rows
            ],
        )


class CcdfRow(NamedTuple):
    k: int
    mechanism: Mechanism
    mu: int
    inner_fraction: float
    outer_fraction: float
    exact: bool


class CcdfTable(NamedTuple):
    """Fractions |S*(k)|/sigma per k, as inner/outer (or exact) curves."""

    meta: ReportMeta
    rows: tuple[CcdfRow, ...]

    def to_csv(self, stream: TextIO | None = None) -> str | None:
        rows = (r._replace(mechanism=r.mechanism.value, exact=_bool(r.exact)) for r in self.rows)
        return _emit(_csv_lines(SCHEMA_CCDF, self.meta, CcdfRow._fields, rows), stream)

    def to_json(self, stream: TextIO | None = None) -> str | None:
        rows = [row._asdict() for row in self.rows]
        return json_document(SCHEMA_CCDF, stream=stream, **self.meta._asdict(), rows=rows)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _bounds(b: IntBounds) -> dict:
    """The JSON object of an ``IntBounds``."""
    return {"lo": b.lo, "hi": b.hi, "exact": b.exact}


def json_document(schema: str, *, stream: TextIO | None = None, **body) -> str | None:
    """A JSON report: its schema, the package version and ``body``, keys sorted.
    A ``Mechanism`` is a ``str``, so it is written as its value."""
    doc = {"schema": schema, "version": VERSION, **body}
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)  # json.dumps' chunks
    # joined 64 at a time, as each is short; none is empty, so "" is the end
    groups = iter(lambda: "".join(itertools.islice(chunks, 64)), "")
    return _emit(itertools.chain(groups, "\n"), stream)


def _csv_lines(schema: str, meta: ReportMeta, columns: Sequence[str], rows: Iterable) -> Iterator[str]:
    """The comment lines, then the header row and each of ``rows``, one CSV line a chunk."""
    seed = meta.seed if meta.seed is not None else "-"
    yield f"# schema: {schema}\n# version: {VERSION}\n# seed: {seed}\n# flags: {meta.flags or '-'}\n"
    line: list[str] = []
    writer = csv.writer(SimpleNamespace(write=line.append), lineterminator="\n")
    for row in itertools.chain((columns,), rows):
        writer.writerow(row)
        yield line.pop()


def _emit(chunks: Iterable[str], stream: TextIO | None) -> str | None:
    """``chunks`` joined; or, given a ``stream``, written to it in blocks of about
    8 KB: on unbuffered stdout each write is a system call, and each block is held whole."""
    if stream is None:
        return "".join(chunks)
    block, size = [], 0
    for chunk in chunks:
        block.append(chunk)
        size += len(chunk)
        if size >= 8192:
            stream.write("".join(block))
            block, size = [], 0
    stream.write("".join(block))
    return None


def normalize_mechanisms(mechanisms: Iterable[Mechanism | str]) -> tuple[Mechanism, ...]:
    """Deduplicate while preserving the requested order."""
    out: list[Mechanism] = []
    for m in mechanisms:
        mech = Mechanism(m)
        if mech not in out:
            out.append(mech)
    if not out:
        raise ValueError("at least one mechanism is required")
    return tuple(out)


def _tables(
    a: Analysis,
    mechs: tuple[Mechanism, ...],
    *,
    refine_single: bool,
    exact: bool,
) -> dict[Mechanism, Mapping[str, IntBounds]]:
    """Per mechanism, the context's bound table, or oracle values if ``exact``."""
    if not exact:
        return a.tables(mechs, refine_single=refine_single)
    return {m: {v: IntBounds.exactly(w) for v, w in a.oracle(m).items()} for m in mechs}


def _sections(
    a: Analysis,
    mechs: tuple[Mechanism, ...],
    exact: bool,
    *,
    rows: Sequence[AnalysisRow] = (),
    members: tuple[str, ...] | None = None,
    ks: Iterable[int] = (),
) -> AnalysisReport:
    """A report of ``rows``, the set rows of ``members`` and the max-set rows
    of each k in ``ks``, all folded from one refined (or, with ``exact``,
    oracle) table per mechanism."""
    tables = _tables(a, mechs, refine_single=True, exact=exact)
    sweeps = {m: threshold_sweep(tables[m], a.t.sigma) for m in mechs}
    return AnalysisReport(
        meta=ReportMeta(),
        sigma=a.t.sigma,
        mechanisms=mechs,
        rows=tuple(rows),
        set_rows=tuple(
            SetRow(m, members, fold_bounds(tables[m], members)) for m in mechs if members is not None
        ),
        maxset_rows=tuple(MaxsetRow(m, k, sweeps[m][k - 1]) for k in ks for m in mechs),
    )


def analyze(
    t: Topology | Analysis,
    mechanisms: Sequence[Mechanism | str],
    *,
    group: Iterable[str] | None = None,
    exact: bool = False,
) -> AnalysisReport:
    """Full per-node report, sorted non-increasing by the first mechanism's
    index bounds (ties by node id).

    Per-node rows show the raw theorem bounds; the per-set and per-k
    sections fold in the exact single-failure test, and ``exact=True``
    replaces everything with oracle values (within the oracle caps).
    """
    a = _analysis(t)
    t = a.t
    mechs = normalize_mechanisms(mechanisms)
    members = None if group is None else check_members(t.non_monitor_set, group)
    raw = _tables(a, mechs, refine_single=False, exact=exact)
    first = raw[mechs[0]]
    nodes = sorted(t.non_monitors, key=lambda v: (-first[v].hi, -first[v].lo, v))
    rows = [
        AnalysisRow(
            node=v,
            degree=t.degree(v),
            monitor_degree=t.monitor_degree(v),
            nonmonitor_degree=t.nonmonitor_degree(v),
            bounds=tuple((m, raw[m][v]) for m in mechs),
        )
        for v in nodes
    ]
    return _sections(a, mechs, exact, rows=rows, members=members, ks=range(1, t.sigma + 1))


def maxset_report(
    t: Topology | Analysis,
    mechanisms: Sequence[Mechanism | str],
    ks: Sequence[int] | None = None,
    *,
    exact: bool = False,
) -> AnalysisReport:
    """Maximal k-identifiable sets only (all k by default)."""
    a = _analysis(t)
    mechs = normalize_mechanisms(mechanisms)
    sigma = a.t.sigma
    wanted = list(ks) if ks is not None else range(1, sigma + 1)
    for k in wanted:
        check_k(k, sigma)
    return _sections(a, mechs, exact, ks=wanted)


def set_report(
    t: Topology | Analysis,
    mechanisms: Sequence[Mechanism | str],
    group: Iterable[str],
    *,
    exact: bool = False,
) -> AnalysisReport:
    """Index bounds for one queried set, without the per-node table: the
    member-wise minimum of the per-node bounds, or of the oracle's per-node
    indices with ``exact=True`` (a set's exact index is that minimum too)."""
    a = _analysis(t)
    mechs = normalize_mechanisms(mechanisms)
    return _sections(a, mechs, exact, members=check_members(a.t.non_monitor_set, group))


# ---------------------------------------------------------------------------
# CCDF curves


def ccdf(
    t: Topology | Analysis,
    mechanisms: Sequence[Mechanism | str],
    *,
    exact: bool = False,
) -> CcdfTable:
    """Fraction of k-identifiable non-monitors for every k in 1..sigma."""
    a = _analysis(t)
    mechs = normalize_mechanisms(mechanisms)
    sigma = a.t.sigma
    rows: list[CcdfRow] = []
    for r in _sections(a, mechs, exact, ks=range(1, sigma + 1)).maxset_rows:
        inner, outer = len(r.sets.inner) / sigma, len(r.sets.outer) / sigma
        rows.append(CcdfRow(r.k, r.mechanism, a.t.mu, inner, outer, r.sets.exact))
    return CcdfTable(meta=ReportMeta(), rows=tuple(rows))


class BatchSpec(NamedTuple):
    """Declarative description of a seeded ER averaging experiment."""

    count: int
    n: int
    p: float
    mus: tuple[int, ...]
    seed: int
    mechanisms: tuple[Mechanism, ...]

    @classmethod
    def from_dict(cls, d: dict) -> "BatchSpec":
        """Parse a JSON batch spec; a missing or unknown field, or one of the
        wrong type or out of range, raises a ValueError that names it."""
        d = read_fields(d, _BATCH_FIELDS)
        d.update(p=float(d["p"]), mus=tuple(d["mus"]), mechanisms=normalize_mechanisms(d["mechanisms"]))
        return cls(**d)


#: Every mechanism name, in the order a spec that names none runs them.
_MECHANISM_NAMES = tuple(m.value for m in Mechanism)

#: (field, default, what it must be, test) for every BatchSpec field, in field
#: order. ``ccdf_batch`` checks ``mus`` against ``n`` once the rows pass.
_BATCH_FIELDS = (
    ("count", None, "an integer >= 1", lambda v: _is_int(v) and v >= 1),
    (
        "n",
        None,
        f"an integer in 2..{DEFAULT_MAX_NODES}",
        lambda v: _is_int(v) and 2 <= v <= DEFAULT_MAX_NODES,
    ),
    ("p", None, "a number in (0, 1]", _is_edge_probability),
    ("mus", None, "a list of integers", lambda v: _is_list_of(v, _is_int)),
    ("seed", None, "an integer", _is_int),
    (
        "mechanisms",
        _MECHANISM_NAMES,
        f"a non-empty list of names from {', '.join(_MECHANISM_NAMES)}",
        lambda v: _is_list_of(v, lambda m: m in _MECHANISM_NAMES) and len(v) > 0,
    ),
)


def _ccdf_topology(spec: BatchSpec, i: int) -> Topology:
    """The graph of instance ``i`` of a batch, drawn with seed ``spec.seed + i``."""
    return batch_topology(f"ccdf[{i}]", spec.n, spec.p, spec.seed + i, "set by batch spec field 'p'")


def _ccdf_instance(task: tuple[BatchSpec, int]) -> list[CcdfRow]:
    """Instance ``index`` of a batch, a (spec, index) task picklable for process pools.

    Monitor placements are nested across the mu values of one instance (a
    shared random node order is prefixed), so curves for different mu are
    comparable draw by draw.
    """
    spec, index = task
    base = _ccdf_topology(spec, index)
    rng = random.Random((spec.seed + index) * 1_000_003 + 17)
    order = rng.sample(sorted(base.nodes), len(base.nodes))
    rows: list[CcdfRow] = []
    for mu in spec.mus:
        rows += ccdf(base.with_monitors(frozenset(order[:mu])), spec.mechanisms).rows
    return rows


def ccdf_batch(spec: BatchSpec, *, jobs: int = 1) -> CcdfTable:
    """CCDF fractions averaged over ``count`` seeded ER instances.

    Instance i uses seed ``spec.seed + i``. Results are merged in instance
    order regardless of ``jobs``, so parallel runs are byte-identical to
    serial ones.
    """
    if not _is_int(jobs) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    spec = BatchSpec.from_dict(spec._asdict())  # a spec built in code passes the same rows
    # a repeated mu would print its curve twice
    mus = list(spec.mus)
    if not mus or len(set(mus)) < len(mus) or not all(1 <= mu < spec.n for mu in mus):
        raise ValueError(
            "batch spec field 'mus' must be a non-empty list of distinct integers"
            f" in 1..{spec.n - 1}, got {mus}"
        )
    for i in range(spec.count):  # drawn and dropped: a sparse p is refused before any instance runs
        _ccdf_topology(spec, i)
    tasks = [(spec, i) for i in range(spec.count)]
    workers = min(jobs, spec.count, os.cpu_count() or 1)
    if workers > 1:
        # imported here: only a parallel batch pays for the process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_ccdf_instance, tasks))
    else:
        results = [_ccdf_instance(task) for task in tasks]

    # every instance gives the same (mu, k, mechanism) rows in the same order;
    # a plain running sum in instance order (sum() of floats compensates on 3.12+)
    rows: list[CcdfRow] = []
    for column in zip(*results, strict=True):
        inner = outer = 0.0
        for row in column:
            inner, outer = inner + row.inner_fraction, outer + row.outer_fraction
        k, m, mu = column[0][:3]
        exact = all(row.exact for row in column)
        rows.append(CcdfRow(k, m, mu, inner / spec.count, outer / spec.count, exact))
    return CcdfTable(meta=ReportMeta(seed=spec.seed), rows=tuple(rows))
