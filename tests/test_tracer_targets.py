"""The benchmark tracer wraps library functions by name, so a rename in the
library must show here rather than as a crash of the benchmark.

``perfbench/tracer.py`` lists its targets in ``TARGETS`` as (module,
attribute) pairs, a dotted attribute naming a method. The list is read with
``ast``, so the test does not import the benchmark script. One more test
runs the tracer on the golden fixture, as the benchmark runs it.
"""

import ast
import importlib
import json
import subprocess
import sys

from conftest import FIXTURES, ROOT, src_env

TRACER = ROOT / "perfbench" / "tracer.py"


def _targets() -> tuple[tuple[str, str], ...]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    for module_name, attr in targets:
        owner = importlib.import_module(f"faultscope.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"faultscope.{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"faultscope.{module_name}.{attr}"


def test_tracer_runs_an_analysis(tmp_path):
    # The tracer reads every target module right after importing the CLI, so
    # a module the CLI stops importing fails here, not in the benchmark.
    golden = FIXTURES / "golden"
    spans = tmp_path / "spans.json"
    argv = ["analyze", "--topology", str(golden / "net.edges"), "--paths", str(golden / "up.paths")]
    command = [sys.executable, str(TRACER), str(spans), *argv]
    proc = subprocess.run(command, env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text(encoding="utf-8"))
    assert doc["returncode"] == 0
    assert "reports.analyze" in {doc["names"][span[0]] for span in doc["spans"]}
