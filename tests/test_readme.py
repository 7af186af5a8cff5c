"""The README's library quickstart runs, and its documented values hold."""

import re
from pathlib import Path

import faultscope as fs

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_values():
    # Every ``expr  # value`` line whose value evaluates in faultscope's
    # namespace must equal the expression; == compares sets and mappings by
    # value, not by repr.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        try:
            expr = compile(code.strip(), "<README.md>", "eval")
            expected = eval(comment.strip(), vars(fs))
        except SyntaxError:
            continue
        assert eval(expr, namespace) == expected, line
        checked += 1
    assert checked == 8
