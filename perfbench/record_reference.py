"""Record the reference report digests the benchmark compares against.

    python3 perfbench/record_reference.py [--seeds 0-99]

Runs the operation of every case a run at these seeds uses once through the
CLI and stores the SHA-256 of its report in ``perfbench/reference.json``,
keyed by the case: the gen seed of an ``analyze-er200`` instance, the battery
or batch seed otherwise. Inputs already recorded are kept; delete the file to
record afresh. Run it only on a commit whose reports are known good: a later
commit must reproduce these bytes exactly. A report that fails its
workload's checks is not recorded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import harness


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=range(0, 100))
    args = parser.parse_args()
    reference = harness.load_reference() if harness.REFERENCE.exists() else {}
    for name, workload in sorted(harness.WORKLOADS.items()):
        table = reference.setdefault(name, {})
        cases = {case.key: case for seed in args.seeds for case in workload.cases(seed)}
        for key, case in cases.items():
            if key in table:
                continue
            cwd = harness.work_dir(name, key)
            try:
                [(_, case_dir)] = harness.prepare([case], cwd)
                inv = harness.run_cli(list(case.operation), case_dir)
                text = (case_dir / workload.report).read_text()
                errors = workload.check(text)
            finally:
                shutil.rmtree(cwd)
            if inv.returncode != 0 or errors:
                print(f"{name} case {key}: not recorded: exit {inv.returncode} {errors[:3]}",
                      file=sys.stderr)
                return 1
            table[key] = harness.digest(text)
            print(f"{name} case {key}: {inv.wall_s:.2f} s", file=sys.stderr)
    harness.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
