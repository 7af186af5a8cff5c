"""Tests of the benchmark itself: negative controls, exact counts, contract.

    python3 -m pytest perfbench -q

They run the benchmark as it is meant to be run (``run.py`` in a subprocess,
from the repository root) with short ``--seconds``; the file takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402


def bench(workload: str, seed: int = 1, trace: int = 0, *extra: str, cwd=harness.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def metric(res: dict, name: str) -> float:
    return res["metrics"][name]["value"]


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_clean_run_has_no_failures():
    res = result(bench("verify-er"))
    assert res["correct"] is True and res["failed"] == 0
    assert set(res["metrics"]) == set(run.END_TO_END_UNITS)


def test_corrupt_verify_counts_as_failed():
    proc = bench("verify-er", 1, 0, "--corrupt")
    res = result(proc)
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] >= 1
    assert "exit code 3" in proc.stdout


def test_tampered_reference_counts_as_failed(tmp_path):
    reference = harness.load_reference()
    reference["verify-er"]["1"] = "0" * 64
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))
    proc = bench("verify-er", 1, 0, "--reference", str(tampered))
    res = result(proc)
    assert res["correct"] is False and res["failed"] >= 1
    assert "differs from the reference" in proc.stdout


def test_report_checks_reject_a_changed_report(tmp_path):
    workload = harness.WORKLOADS["ccdf-er20"]
    inv = harness.run_cli(list(workload.cases(1)[0].operation), tmp_path)
    assert inv.returncode == 0
    text = (tmp_path / workload.report).read_text()
    assert workload.check(text) == []
    lines = text.splitlines(keepends=True)
    row = lines[-1].split(",")
    row[3] = "1.5"
    assert workload.check("".join(lines[:-1]) + ",".join(row))


@pytest.mark.parametrize(
    ("workload", "expected"),
    [
        (
            "analyze-er200",
            {
                "identify.max_identifiable_set_calls": 570,
                "identify.omega_csp_calls": 36290,
                "probing.route_up_calls": 191,
                "cuts.queries": 2090,
                "cuts.biconnected_calls": 191,
                "identify.tables_per_instance": 191,
                "probing.paths_enumerated": 0,
            },
        ),
        (
            "ccdf-er20",
            {
                "cuts.queries": 8200,
                "cuts.biconnected_calls": 1500,
                "identify.tables_per_instance": 1,
                "probing.paths_enumerated": 0,
            },
        ),
    ],
)
def test_seed_one_counts_are_exact(workload, expected):
    res = result(bench(workload, 1, 1))
    assert res["correct"] is True
    assert set(res["metrics"]) == set(run.LAYER_UNITS)
    assert {name: metric(res, name) for name in expected} == expected


def test_traced_counts_repeat_across_runs():
    first, second = (result(bench("verify-er", 3, 1)) for _ in range(2))
    counts = [n for n, unit in run.LAYER_UNITS.items() if unit == "count"]
    assert [metric(first, n) for n in counts] == [metric(second, n) for n in counts]
    assert metric(first, "probing.paths_enumerated") > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = bench("verify-er", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
