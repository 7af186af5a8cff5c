"""The benchmark tracer wraps library functions by name, so a rename in the
library must show here rather than as a crash of the benchmark.

``perfbench/tracer.py`` lists its targets in ``TARGETS`` as (module,
attribute) pairs, a dotted attribute naming a method. The list is read with
``ast``, so the test does not import the benchmark script.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
