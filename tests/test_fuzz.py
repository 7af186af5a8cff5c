"""Arbitrary input through the CLI: every case exits 0 or 2, and a failure is
one ``error:`` line on stderr, never a traceback.

The inputs are files (``analyze --topology``, ``analyze --paths``,
``analyze --monitors @FILE``) and inline batch specs (``ccdf --batch=``,
``verify --batch=``, in the one-token form so a spec that starts with "-" is
not read as an option); each gets unstructured text and text built from the
format's own tokens, so the parsers and the checks behind them are both
reached, and each file also gets bytes that are not UTF-8. ``main`` runs in
process, so an exception escaping it fails the test with its traceback.
"""

import json

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from faultscope.cli import EXIT_OK, EXIT_VALIDATION, main

from conftest import read_fixture

FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

NAMES = ("m1", "m2", "m3", "v1", "v2", "v3", "v4", "x", "__m'", "#", ",", "m1,m2")

#: Lines of an edge list or a path file, mostly well formed.
lines = st.one_of(
    st.lists(st.sampled_from(NAMES), min_size=0, max_size=5).map(" ".join),
    st.lists(st.sampled_from(NAMES[:7]), min_size=0, max_size=3).map(
        lambda ms: "# monitors: " + " ".join(ms)
    ),
    st.text(max_size=12),
)
documents = st.one_of(st.text(), st.lists(lines, max_size=14).map("\n".join))
#: ...and with a lone surrogate in it, which ``write`` makes bytes that are not UTF-8.
documents |= st.tuples(documents, st.characters(categories=["Cs"]), documents).map("".join)

#: JSON values of every type. Integers stay small and ``count`` at most 2, so
#: a spec that happens to be valid runs in milliseconds.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-1.0, 2.0) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
SPEC_KEYS = ("n", "p", "mus", "seed", "mechanisms", "kind", "n_range", "p_range",
             "monitor_counts", "checks")
specs = st.one_of(
    st.text(),
    st.fixed_dictionaries(
        {"count": st.integers(-1, 2) | json_values},
        optional={key: json_values for key in SPEC_KEYS},
    ).map(json.dumps),
)


def write(path, text: str) -> str:
    # lone surrogates become undecodable bytes, so decoding errors are fuzzed too
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return str(path)


def check(capsys, *argv: str, flag: str | None = None, text: str = "") -> None:
    """Run ``argv``; ``text`` is the fuzzed content of the file ``--flag`` names,
    which, if it is not UTF-8, must be refused in a line that names the flag."""
    rc = main(list(argv))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert rc in (EXIT_OK, EXIT_VALIDATION), err
    if rc == EXIT_OK:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        assert err.startswith(f"error: --{flag}: 'utf-8' codec can't decode"), err


@FUZZ
@given(text=documents)
def test_analyze_topology_text(tmp_path, capsys, text):
    net = write(tmp_path / "net.edges", text)
    check(capsys, "analyze", "--topology", net, flag="topology", text=text)


@FUZZ
@given(text=documents)
def test_analyze_paths_text(tmp_path, capsys, text):
    net = write(tmp_path / "net.edges", read_fixture("golden/net.edges"))
    paths = write(tmp_path / "p.paths", text)
    check(capsys, "analyze", "--topology", net, "--paths", paths, flag="paths", text=text)


@FUZZ
@given(text=documents)
def test_analyze_monitor_file_text(tmp_path, capsys, text):
    net = write(tmp_path / "net.edges", read_fixture("golden/net.edges"))
    monitors = "@" + write(tmp_path / "mons.txt", text)
    check(capsys, "analyze", "--topology", net, "--monitors", monitors, flag="monitors", text=text)


@FUZZ
@given(spec=specs)
def test_ccdf_batch_text(capsys, spec):
    check(capsys, "ccdf", f"--batch={spec}")


@FUZZ
@given(spec=specs)
def test_verify_batch_text(capsys, spec):
    # a battery that finds a violation exits 3, which fails here too
    check(capsys, "verify", f"--batch={spec}")
