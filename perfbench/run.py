"""faultscope benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the ``faultscope`` CLI runs as a subprocess,
one invocation at a time, each in a fresh interpreter, until ``--seconds``
have passed. Every report is checked: exit code, no traceback, the
workload's invariants, and bytes equal to the recorded reference for that
input (for an unrecorded input, equal to its first report in the run).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced invocations (``tracer.py``) and prints per-layer self
times and exact counts, plus the tracing overhead. The last stdout line is
one JSON object; a record with the machine state goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import harness

SETUP_SAMPLES = 11

AUX = (
    "topology.build_star",
    "topology.build_minus_monitor",
    "topology.build_extended",
    "topology.build_extended_minus",
)

#: Per-layer self times: metric -> the spans whose self time it sums.
LAYER_TIMES = {
    "topology.load_topology_s": ("topology.load_topology",),
    "topology.aux_build_s": AUX,
    "randomnet.gen_er_s": ("randomnet.gen_er",),
    "probing.route_up_s": ("probing.route_up",),
    "probing.enumerate_s": ("probing.enumerate_cap", "probing.enumerate_csp"),
    "cuts.min_vertex_cut_size_s": ("cuts.min_vertex_cut_size",),
    "cuts.biconnected_s": ("cuts.biconnected_components",),
    "identify.cap_values_s": ("identify.cap_values",),
    "identify.csp_internals_all_s": ("identify.csp_internals_all",),
    "identify.csp_single_failure_s": ("identify._csp_single_failure_nodes",),
    "identify.omega_csp_s": ("identify.omega_csp",),
    "identify.gsc_s": ("identify.gsc",),
    "identify.per_node_bounds_s": ("identify.per_node_bounds",),
    "identify.max_identifiable_set_s": ("identify.max_identifiable_set",),
    "oracle.omega_all_s": ("oracle.oracle_omega_all",),
    "oracle.msc_s": ("oracle.oracle_msc",),
    "reports.self_s": (
        "reports.analyze",
        "reports.ccdf",
        "reports.ccdf_batch",
        "reports.maxset_report",
        "reports.set_report",
    ),
    "reports.render_s": (
        "reports.AnalysisReport.to_csv",
        "reports.AnalysisReport.to_json",
        "reports.CcdfTable.to_csv",
        "reports.CcdfTable.to_json",
    ),
    "verify.self_s": ("verify.er_battery", "verify.verify_topologies", "verify.verify_batch_spec"),
    "cli.self_s": ("cli.main",),
}

#: Per-layer call counts: metric -> the spans it counts.
LAYER_CALLS = {
    "topology.aux_builds": AUX,
    "probing.route_up_calls": ("probing.route_up",),
    "cuts.queries": ("cuts.min_vertex_cut_size",),
    "cuts.biconnected_calls": ("cuts.biconnected_components",),
    "identify.omega_csp_calls": ("identify.omega_csp",),
    "identify.gsc_calls": ("identify.gsc",),
    "identify.per_node_bounds_calls": ("identify.per_node_bounds",),
    "identify.max_identifiable_set_calls": ("identify.max_identifiable_set",),
    "oracle.calls": ("oracle.oracle_omega_all", "oracle.oracle_msc"),
}

#: Counts the tracer reads off results (see ``tracer.RESULT_COUNTERS``).
LAYER_COUNTERS = ("cuts.flow_queries", "probing.paths_enumerated")

END_TO_END_UNITS = {
    "wall_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in (*LAYER_CALLS, *LAYER_COUNTERS)},
    "identify.tables_per_instance": "ratio",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# machine record


def _git_revision() -> str | None:
    head = harness.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = harness.ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = harness.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((harness.SRC / "faultscope").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_probe() -> float:
    """Seconds for a fixed pure-Python loop; it rises when the CPU is contended."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def machine_state() -> dict:
    return {"loadavg": list(os.getloadavg()), "cpu_probe_s": cpu_probe()}


def machine_record() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# per-layer profile of one traced invocation


def layer_profile(doc: dict, instances: int) -> tuple[dict[str, float], dict[str, float]]:
    """Self times and exact counts from one traced invocation's spans.

    A span's self time is its duration minus its child spans' durations;
    calls run one at a time, so the children never overlap.
    """
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name_index, start, end, _) in enumerate(spans):
        name = names[name_index]
        self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
        calls[name] = calls.get(name, 0) + 1
    times = {m: sum(self_time.get(s, 0.0) for s in spans_of) for m, spans_of in LAYER_TIMES.items()}
    counts: dict[str, float] = {
        m: sum(calls.get(s, 0) for s in spans_of) for m, spans_of in LAYER_CALLS.items()
    }
    counts.update({m: doc["counters"].get(m, 0) for m in LAYER_COUNTERS})
    counts["identify.tables_per_instance"] = counts["identify.per_node_bounds_calls"] / (
        instances * harness.MECHANISMS
    )
    return times, counts


# ---------------------------------------------------------------------------
# the run


class Checker:
    """Counts an invocation as failed on an unexpected exit code, a
    traceback on stderr, or report bytes other than the expected ones: the
    case's reference digest, else the case's first report in this run."""

    def __init__(self, workload: harness.Workload, reference: dict[str, str]) -> None:
        self.workload = workload
        self.reference = reference
        self.first: dict[str, str] = {}
        self.checked: dict[str, list[str]] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def __call__(self, inv: harness.Invocation, case: harness.Case, cwd: Path) -> bool:
        self.attempted += 1
        problem = self._problem(inv, case, cwd)
        if problem:
            self.failures.append(f"case {case.key}: {problem}")
        return problem is None

    def _problem(self, inv: harness.Invocation, case: harness.Case, cwd: Path) -> str | None:
        report = cwd / self.workload.report
        text = report.read_text() if report.is_file() else None
        report.unlink(missing_ok=True)
        if inv.returncode != 0:
            return f"exit code {inv.returncode}"
        if "Traceback" in inv.stderr:
            return "traceback on stderr"
        if text is None:
            return "no report written"
        found = harness.digest(text)
        if found not in self.checked:
            self.checked[found] = self.workload.check(text)
        if self.checked[found]:
            return "report invariant: " + "; ".join(self.checked[found][:3])
        if case.key in self.reference:
            if found != self.reference[case.key]:
                return f"report sha256 {found[:12]} differs from the reference"
        elif found != self.first.setdefault(case.key, found):
            return f"report sha256 {found[:12]} differs from the case's first report"
        return None


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it, if any
    lies above the median: (percent, value)."""
    ranked = sorted(values)
    k = len(ranked) - 10
    if k <= len(ranked) // 2:
        return None
    return round(100 * k / len(ranked)), ranked[k - 1]


def run(args: argparse.Namespace) -> dict:
    workload = harness.WORKLOADS[args.workload]
    reference = harness.load_reference(args.reference)
    record: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, serial, fresh interpreter per invocation",
        "machine": machine_record(),
        "before": machine_state(),
    }
    cwd = harness.work_dir(workload.name, args.seed)
    try:
        warm = harness.invoke(["-c", "import faultscope.cli; print(faultscope.cli.__file__)"], cwd)
        src_cli = (harness.SRC / "faultscope" / "cli.py").resolve()
        if warm.returncode != 0 or Path(warm.stdout.strip()).resolve() != src_cli:
            raise RuntimeError(f"faultscope does not import from {harness.SRC}: {warm.stderr}")
        setup = []
        for _ in range(SETUP_SAMPLES):
            inv = harness.run_cli(["--version"], cwd)
            if inv.returncode != 0 or not inv.stdout.startswith("faultscope "):
                raise RuntimeError(f"--version failed ({inv.returncode}): {inv.stderr}")
            setup.append(inv.wall_s)
        cases = workload.cases(args.seed)
        # The traced run compares traced and untraced invocations of the
        # seed's own case, so its counts are those of that one input.
        prepared = harness.prepare(cases[:1] if args.trace else cases, cwd)
        check = Checker(workload, reference.get(workload.name, {}))
        extra = ["--corrupt"] if args.corrupt else []
        spans_path = cwd / "spans.json"
        untraced: list[harness.Invocation] = []
        traced: list[harness.Invocation] = []
        profiles: list[tuple[dict, dict]] = []
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < args.seconds:
            case, case_dir = prepared[len(untraced) % len(prepared)]
            operation = [*case.operation, *extra]
            inv = harness.run_cli(operation, case_dir)
            check(inv, case, case_dir)
            untraced.append(inv)
            if args.trace:
                inv = harness.invoke([str(harness.TRACER), str(spans_path), *operation], case_dir)
                if check(inv, case, case_dir):
                    doc = json.loads(spans_path.read_text())
                    profiles.append(layer_profile(doc, workload.instances))
                spans_path.unlink(missing_ok=True)
                traced.append(inv)
        measured = time.perf_counter() - start
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    walls = [inv.wall_s for inv in untraced]
    record["after"] = machine_state()
    record["setup_s_samples"] = setup
    record["wall_s_samples"] = walls
    record["peak_rss_mb_samples"] = [inv.peak_rss_mb for inv in untraced]
    record["measured_s"] = measured
    record["cases"] = {
        case.key: "reference" if case.key in check.reference else "first report"
        for case, _ in prepared
    }
    record["failures"] = check.failures
    record["attempted"] = check.attempted
    record["end_to_end"] = {
        "wall_s": statistics.median(walls),
        "instances_per_s": workload.instances / statistics.median(walls),
        "peak_rss_mb": statistics.median(record["peak_rss_mb_samples"]),
        "setup_s": statistics.median(setup),
        "failed_ratio": len(check.failures) / check.attempted,
    }
    record["counts_repeat"] = True
    if args.trace:
        record["traced_wall_s_samples"] = [inv.wall_s for inv in traced]
        layers: dict[str, float] = {}
        if profiles:
            counts = [c for _, c in profiles]
            record["counts_repeat"] = all(c == counts[0] for c in counts)
            layers.update(counts[0])
            for name in LAYER_TIMES:
                layers[name] = statistics.median([t[name] for t, _ in profiles])
        traced_wall = statistics.median(record["traced_wall_s_samples"])
        layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
        record["per_layer"] = layers
    return record


def print_summary(record: dict) -> None:
    e2e = record["end_to_end"]
    n = len(record["wall_s_samples"])
    print(
        f"faultscope benchmark: {record['workload']} seed {record['seed']}, "
        f"{record['measured_s']:.1f} s measured, {record['loop']}"
    )
    tail = tail_percentile(record["wall_s_samples"])
    notes = {
        "wall_s": f"median of {n} invocations"
        + (f"; p{tail[0]} {tail[1]:.4g} s" if tail else ""),
        "instances_per_s": f"instances per invocation / median wall of {n}",
        "peak_rss_mb": f"median of {n} invocations (ru_maxrss)",
        "setup_s": f"median of {len(record['setup_s_samples'])} `--version` runs",
    }
    for name, value in e2e.items():
        unit = END_TO_END_UNITS.get(name, "ratio")
        note = notes.get(name, f"{len(record['failures'])} of {record['attempted']} failed")
        print(f"  {name:<16} {value:12.6g} {unit:<5} {note}")
    for failure in record["failures"][:5]:
        print(f"  failure: {failure}")
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<36} {value:14.6g} {LAYER_UNITS[name]}")
    machine, before, after = record["machine"], record["before"], record["after"]
    print(
        f"  machine: {machine['cpu_count']} CPUs, affinity {machine['affinity']}, "
        f"Python {machine['python']}, load {before['loadavg'][0]:.2f} -> "
        f"{after['loadavg'][0]:.2f}, cpu probe {before['cpu_probe_s']:.4f} -> "
        f"{after['cpu_probe_s']:.4f} s"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", type=Path, default=harness.REFERENCE,
        help="reference digests (negative control: a tampered copy)",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="pass --corrupt to the operation (negative control: verify exits 3)",
    )
    args = parser.parse_args()
    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (harness.SRC / "faultscope" / "cli.py").is_file():
        print(f"error: no faultscope sources under {harness.SRC}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    harness.RESULTS.mkdir(exist_ok=True)
    out = harness.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(record)
    if args.trace:
        values, names = record["per_layer"], LAYER_UNITS
    else:
        values, names = record["end_to_end"], END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    correct = not record["failures"] and record["counts_repeat"]
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
