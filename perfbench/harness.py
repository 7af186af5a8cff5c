"""Shared pieces of the faultscope benchmark: the workloads, one CLI
invocation with its wall time and peak memory, and the report checks.

Every operation runs ``python -m faultscope.cli`` from the checkout's
``src`` in a fresh interpreter, so module caches start cold each time, as
they do for a CLI user.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"
TRACER = BENCH_DIR / "tracer.py"
LAUNCHER = BENCH_DIR / "launch.py"

#: A single invocation that runs longer than this is killed and counted failed.
INVOCATION_TIMEOUT_S = 60.0

MECHANISMS = 3


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(args: list[str], cwd: Path, *, timeout: float = INVOCATION_TIMEOUT_S) -> Invocation:
    """Run one interpreter with ``args``, timed from spawn to exit.

    ``launch.py`` spawns it and reads its peak memory, ``ru_maxrss`` from
    ``os.wait4`` (the process and the children it waited for). The launcher
    leads its own process group, so a timeout or an interrupt kills both.
    """
    out_path, err_path, result_path = (cwd / n for n in ("stdout.txt", "stderr.txt", "launch.txt"))
    result_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCHER), str(result_path), sys.executable, *args],
            cwd=cwd, env=child_env(), stdout=out, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
    if proc.returncode == 0:
        wall, maxrss_kib, returncode = result_path.read_text().split()
    else:  # the launcher itself failed or was killed
        wall, maxrss_kib, returncode = time.perf_counter() - start, 0, proc.returncode
    return Invocation(
        wall_s=float(wall),
        peak_rss_mb=int(maxrss_kib) / 1024.0,
        returncode=int(returncode),
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def run_cli(args: list[str], cwd: Path) -> Invocation:
    return invoke(["-m", "faultscope.cli", *args], cwd)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Case:
    """One input of a workload run, in a directory of its own.

    ``key`` names it in ``reference.json``; ``prepare`` lists the CLI
    invocations that make its input files (set-up, not timed); ``operation``
    is the CLI arguments of the timed invocation.
    """

    key: str
    prepare: tuple[tuple[str, ...], ...]
    operation: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    """One seeded CLI workload.

    ``cases`` gives the inputs of a run at a seed, which the run cycles
    through; ``instances`` counts the topologies one operation analyses;
    ``report`` is the file an operation writes and ``check`` validates that
    report for any seed.
    """

    name: str
    cases: Callable[[int], list[Case]]
    instances: int
    report: str
    check: Callable[[str], list[str]]


ER200 = {"n": 200, "p": 0.03, "mu": 10}
#: A run at seed S cycles through the inputs of seeds S, S+1, ... (the gen
#: instances of analyze-er200, the batteries of verify-er), about one per
#: invocation of a 55-second run: the cost and memory of one input move by
#: tens of percent with its seed, a median over many much less.
ER200_SEEDS_PER_RUN = 12
VERIFY_SEEDS_PER_RUN = 40
CCDF_COUNT = 50
CCDF_N = 20
CCDF_MUS = (2, 10)
VERIFY_COUNT = 200


def _ccdf_spec(seed: int) -> str:
    spec = {"count": CCDF_COUNT, "n": CCDF_N, "p": 0.27, "mus": list(CCDF_MUS), "seed": seed}
    return json.dumps(spec, separators=(",", ":"))


def _comment_free(text: str) -> list[list[str]]:
    body = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    return list(csv.reader(io.StringIO(body)))


def check_analysis(text: str) -> list[str]:
    """Invariants of an ``analyze`` CSV over all three mechanisms.

    The max-set rows must nest (inner within outer), shrink as k grows,
    match the exact CAP node values, and stay within the raw node bounds.
    """
    sigma = ER200["n"] - ER200["mu"]
    errors: list[str] = []
    if not text.startswith("# schema: faultscope/analysis v1\n"):
        return ["analysis schema line missing"]
    rows = _comment_free(text)
    header, body = rows[0], rows[1:]
    if header[:4] != ["section", "mechanism", "node", "k"]:
        return [f"unexpected analysis header {header}"]
    col = {name: i for i, name in enumerate(header)}
    lo: dict[str, dict[str, int]] = {}
    hi: dict[str, dict[str, int]] = {}
    maxsets: dict[str, dict[int, tuple[set[str], set[str]]]] = {}
    for row in body:
        mech = row[col["mechanism"]]
        if row[col["section"]] == "node":
            b_lo, b_hi = int(row[col["lo"]]), int(row[col["hi"]])
            if not 0 <= b_lo <= b_hi <= sigma:
                errors.append(f"{mech} {row[col['node']]}: bounds [{b_lo}, {b_hi}]")
            if mech == "cap" and b_lo != b_hi:
                errors.append(f"cap {row[col['node']]}: not exact")
            lo.setdefault(mech, {})[row[col["node"]]] = b_lo
            hi.setdefault(mech, {})[row[col["node"]]] = b_hi
        elif row[col["section"]] == "maxset":
            inner = set(filter(None, row[col["inner"]].split("+")))
            outer = set(filter(None, row[col["outer"]].split("+")))
            maxsets.setdefault(mech, {})[int(row[col["k"]])] = (inner, outer)
    if sorted(lo) != ["cap", "csp", "up"] or any(len(v) != sigma for v in lo.values()):
        return errors + ["node rows do not cover sigma nodes under cap, csp and up"]
    for mech, by_k in maxsets.items():
        if sorted(by_k) != list(range(1, sigma + 1)):
            errors.append(f"{mech}: max-set rows do not cover k = 1..{sigma}")
            continue
        for k in range(1, sigma + 1):
            inner, outer = by_k[k]
            if not inner <= outer:
                errors.append(f"{mech} k={k}: inner not within outer")
            if k > 1 and not (inner <= by_k[k - 1][0] and outer <= by_k[k - 1][1]):
                errors.append(f"{mech} k={k}: sets grow with k")
            if not {v for v, b in lo[mech].items() if b >= k} <= inner:
                errors.append(f"{mech} k={k}: inner misses a node whose lower bound reaches k")
            if not outer <= {v for v, b in hi[mech].items() if b >= k}:
                errors.append(f"{mech} k={k}: outer holds a node whose upper bound is below k")
    if sorted(maxsets) != ["cap", "csp", "up"]:
        errors.append("max-set rows do not cover cap, csp and up")
    return errors


def check_ccdf(text: str) -> list[str]:
    """Invariants of a batch CCDF CSV: one row per (mu, k, mechanism),
    fractions in [0, 1] with inner <= outer, non-increasing in k."""
    if not text.startswith("# schema: faultscope/ccdf v1\n"):
        return ["ccdf schema line missing"]
    rows = _comment_free(text)
    if rows[0] != ["k", "mechanism", "mu", "inner_fraction", "outer_fraction", "exact"]:
        return [f"unexpected ccdf header {rows[0]}"]
    errors: list[str] = []
    seen: dict[tuple[int, str], list[tuple[int, float, float]]] = {}
    for k, mech, mu, inner, outer, exact in rows[1:]:
        f_in, f_out = float(inner), float(outer)
        if not 0.0 <= f_in <= f_out <= 1.0:
            errors.append(f"mu={mu} {mech} k={k}: fractions {f_in}, {f_out}")
        if exact == "true" and f_in != f_out:
            errors.append(f"mu={mu} {mech} k={k}: exact but inner != outer")
        seen.setdefault((int(mu), mech), []).append((int(k), f_in, f_out))
    for mu in CCDF_MUS:
        for mech in ("cap", "csp", "up"):
            curve = seen.get((mu, mech), [])
            if [k for k, _, _ in curve] != list(range(1, CCDF_N - mu + 1)):
                errors.append(f"mu={mu} {mech}: rows do not cover k = 1..{CCDF_N - mu}")
            for (_, a_in, a_out), (k, b_in, b_out) in zip(curve, curve[1:]):
                if b_in > a_in or b_out > a_out:
                    errors.append(f"mu={mu} {mech} k={k}: curve rises")
    return errors


def check_verify(text: str) -> list[str]:
    """The battery's own oracle agreement: ``ok`` with no failures."""
    doc = json.loads(text)
    errors = []
    if doc.get("schema") != "faultscope/verify v1":
        errors.append("verify schema missing")
    if doc.get("instances") != VERIFY_COUNT:
        errors.append(f"verify ran {doc.get('instances')} instances, not {VERIFY_COUNT}")
    if doc.get("ok") is not True or doc.get("failures"):
        errors.append(f"verify reported {len(doc.get('failures', []))} failures")
    return errors


def _er200_case(seed: int) -> Case:
    gen = ("gen", "--n", str(ER200["n"]), "--p", str(ER200["p"]), "--mu", str(ER200["mu"]),
           "--seed", str(seed), "--out", "er200.edges")
    return Case(str(seed), (gen,), ("analyze", "--topology", "er200.edges", "--out", "report.csv"))


def _verify_case(seed: int) -> Case:
    return Case(str(seed), (), ("verify", "--kind", "er", "--count", str(VERIFY_COUNT),
                                "--seed", str(seed), "--out", "report.json"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analyze-er200",
            cases=lambda s: [_er200_case(s + j) for j in range(ER200_SEEDS_PER_RUN)],
            instances=1,
            report="report.csv",
            check=check_analysis,
        ),
        Workload(
            name="ccdf-er20",
            cases=lambda s: [
                Case(str(s), (), ("ccdf", "--batch", _ccdf_spec(s), "--out", "report.csv"))
            ],
            instances=CCDF_COUNT * len(CCDF_MUS),
            report="report.csv",
            check=check_ccdf,
        ),
        Workload(
            name="verify-er",
            cases=lambda s: [_verify_case(s + j) for j in range(VERIFY_SEEDS_PER_RUN)],
            instances=VERIFY_COUNT,
            report="report.json",
            check=check_verify,
        ),
    )
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(path: Path = REFERENCE) -> dict[str, dict[str, str]]:
    return json.loads(path.read_text())


def work_dir(workload: str, tag: int | str) -> Path:
    path = WORK / f"{workload}-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def prepare(cases: list[Case], cwd: Path) -> list[tuple[Case, Path]]:
    """Make each case's directory and inputs; a failure here means no run is possible."""
    prepared = []
    for case in cases:
        case_dir = cwd / case.key
        case_dir.mkdir(exist_ok=True)
        for args in case.prepare:
            inv = run_cli(list(args), case_dir)
            if inv.returncode != 0:
                raise RuntimeError(
                    f"input generation failed ({inv.returncode}): {inv.stderr.strip()}"
                )
        prepared.append((case, case_dir))
    return prepared
