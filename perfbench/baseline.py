"""Time the ROADMAP baseline table once, with the benchmark's harness.

    python3 perfbench/baseline.py [--repeat 1]

Each row is one CLI invocation in a fresh interpreter on a seed-1
instance; with ``--repeat N`` the row reports the median of N. The table is
printed and written, with the machine record, to
``perfbench/results/baseline.json``. The n=100 and n=400 rows are not
benchmark workloads: n=400 takes tens of seconds per invocation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys

import harness
import run

ROWS = (
    ("analyze n=100 p=0.06 mu=10", (100, 0.06, 10)),
    ("analyze n=200 p=0.03 mu=10", (200, 0.03, 10)),
    ("analyze n=400 p=0.015 mu=20", (400, 0.015, 20)),
    ("ccdf --batch count=50 n=20 p=0.27 mus=[2,10] seed=1", "ccdf"),
    ("verify --kind er --count 50 --seed 1", "verify"),
)


def _operation(spec) -> tuple[list[list[str]], list[str]]:
    if spec == "ccdf":
        batch = '{"count":50,"n":20,"p":0.27,"mus":[2,10],"seed":1}'
        return [], ["ccdf", "--batch", batch, "--out", "report.csv"]
    if spec == "verify":
        return [], ["verify", "--kind", "er", "--count", "50", "--seed", "1",
                    "--out", "report.json"]
    n, p, mu = spec
    gen = ["gen", "--n", str(n), "--p", str(p), "--mu", str(mu), "--seed", "1", "--out", "in.edges"]
    return [gen], ["analyze", "--topology", "in.edges", "--out", "report.csv"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    record = {"machine": run.machine_record(), "before": run.machine_state(), "rows": []}
    cwd = harness.work_dir("baseline", 1)
    try:
        for label, spec in ROWS:
            prepare, operation = _operation(spec)
            for gen in prepare:
                if harness.run_cli(gen, cwd).returncode != 0:
                    print(f"error: input generation failed for {label}", file=sys.stderr)
                    return 1
            runs = [harness.run_cli(operation, cwd) for _ in range(args.repeat)]
            if any(inv.returncode != 0 for inv in runs):
                print(f"error: {label} failed: {runs[0].stderr.strip()}", file=sys.stderr)
                return 1
            wall = statistics.median(inv.wall_s for inv in runs)
            rss = statistics.median(inv.peak_rss_mb for inv in runs)
            row = {"run": label, "wall_s": wall, "peak_rss_mb": rss, "n": len(runs)}
            record["rows"].append(row)
            print(f"| {label} | {wall:.2f} s | {rss:.1f} MB |")
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    record["after"] = run.machine_state()
    harness.RESULTS.mkdir(exist_ok=True)
    (harness.RESULTS / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
