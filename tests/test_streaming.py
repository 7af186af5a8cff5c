"""Reports stream to their destination: every stream form writes exactly the
bytes of its string form, in blocks of about 8 KB, and a refused run never
touches its ``--out`` file."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

import faultscope as fs
from faultscope.cli import EXIT_OK, EXIT_VALIDATION, EXIT_VERIFY, main
from faultscope.reports import json_document

from conftest import read_fixture, src_env

#: Node names that need CSV quoting (quote, comma) or JSON escaping (quote,
#: backslash, non-ASCII); the monitors' header cannot hold a comma.
ODD_EDGES = """\
# monitors: m1 m2
m1 a"x
a"x b\\y
b\\y m2
m1 c,z
c,z é
é m2
a"x é
"""

ALL = tuple(fs.Mechanism)


@pytest.fixture(scope="module")
def odd() -> fs.Topology:
    return fs.load_topology(ODD_EDGES)


@pytest.fixture(scope="module")
def odd_many() -> fs.Topology:
    """n=60 with every name made odd: its reports span many blocks."""
    base = fs.place_monitors(fs.gen_er(60, 0.1, 3).topology, 4, 3)
    name = {v: v if v in base.monitors else f'q"{v}\\é,' for v in base.nodes}
    edges = "".join(f"{name[u]} {name[v]}\n" for u, v in base.edges)
    return fs.load_topology(edges, monitors=sorted(base.monitors))


def _renders(t: fs.Topology, group: list[str]) -> dict:
    """Every renderer of every report on ``t``, the set and max-set sections included."""
    batch = fs.ccdf_batch(fs.BatchSpec.from_dict({"count": 3, "n": 12, "p": 0.4, "mus": [2], "seed": 5}))
    reports = {
        "analyze": fs.analyze(t, ALL, group=group),
        "maxset": fs.maxset_report(t, ALL),
        "set": fs.set_report(t, ALL, group),
        "ccdf": fs.ccdf(t, ALL),
        "ccdf-batch": batch,
    }
    renders = {
        f"{key}.{fmt}": getattr(report, f"to_{fmt}")
        for key, report in reports.items()
        for fmt in ("csv", "json")
    }
    if t.sigma <= 10:
        failing = fs.verify_topologies([t], corrupt=True)
        assert not failing.ok  # its failures name nodes
        renders["verify.json"] = failing.to_json
    body = {"set": sorted(group), "omega": 1, "names": list(t.nodes)}
    renders["json_document"] = lambda stream=None: json_document("x", stream=stream, **body)
    return renders


class _Writes(io.StringIO):
    """A StringIO that records the length of every write."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[int] = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("which", ["odd", "odd_many"])
def test_every_renderer_streams_its_string_bytes(which, request):
    t = request.getfixturevalue(which)
    group = list(t.non_monitors[:2])
    for key, render in _renders(t, group).items():
        text = render()
        assert isinstance(text, str)
        stream = io.StringIO()
        assert render(stream) is None, key
        assert stream.getvalue() == text, key
        with contextlib.redirect_stdout(io.StringIO()) as redirected:
            render(sys.stdout)
        assert redirected.getvalue() == text, key


def test_odd_names_are_quoted_and_escaped(odd):
    text = fs.analyze(odd, ALL, group=['a"x', "c,z"]).to_csv()
    assert '"a""x+c,z"' in text and '"c,z"' in text and "b\\y" in text and "é" in text
    doc = fs.analyze(odd, ALL).to_json()
    assert '"a\\"x"' in doc and '"b\\\\y"' in doc and '"\\u00e9"' in doc
    assert {row["node"] for row in json.loads(doc)["nodes"]} == set(odd.non_monitors)


def test_streams_write_blocks_of_about_8_kb(odd_many):
    for key, render in _renders(odd_many, list(odd_many.non_monitors[:2])).items():
        stream = _Writes()
        render(stream)
        text = stream.getvalue()
        assert max(map(len, text.splitlines())) < 8192
        # one write a block: never one a row or a JSON chunk, never a large block
        assert all(8192 <= size < 2 * 8192 for size in stream.sizes[:-1]), key
        assert stream.sizes[-1] < 2 * 8192, key


#: CLI runs on the odd-name topology, with the sha256 of their reports as the
#: string-form renderers wrote them.
CLI_RUNS = [
    (
        ["analyze", "--set", 'a"x,b\\y'],
        EXIT_OK,
        "09f1e7fa1ea777463404d99b966bd48fb7931b152a8158e8be758a3da3e15458",
    ),
    (
        ["analyze", "--set", 'a"x,b\\y', "--format", "json"],
        EXIT_OK,
        "09bd77af40dbb433d7c484e1169eed2b01c443030d9119aea9535dfe9405ba94",
    ),
    (
        ["maxset"],
        EXIT_OK,
        "3ef22226867a5405a694429912cbe157dc7cc3e52155f9e5924021118c8a34bb",
    ),
    (
        ["maxset", "--format", "json"],
        EXIT_OK,
        "30e5031a77e071f2cd487cb727c872fb6ce5c751fa3bc322b6d78a2d7bd7b3df",
    ),
    (
        ["maxset", "--set", 'é,b\\y', "--format", "json"],
        EXIT_OK,
        "9cf760b4ea51a8bb44ee4b569f2b4c977e0a81895537ae330668a743cc379bda",
    ),
    (
        ["ccdf", "--format", "json"],
        EXIT_OK,
        "8dbcb12d2c0071d9ab4166523d10bad2fd9cb7fd2dfa6842ea43f412aedc099b",
    ),
    (
        ["verify", "--corrupt"],
        EXIT_VERIFY,
        "2b19a749c33ffb1728b4dab7e08f8560723eddef1dd9c563dc2b31a87491499a",
    ),
    (
        ["oracle", "--paths", "odd.paths", "--set", 'a"x,é'],
        EXIT_OK,
        "2aef97ddc5b2af637fbdb838b80cd8796cdb6d447e3b596f014d4db6d8b9237f",
    ),
    (
        ["oracle", "--paths", "odd.paths"],
        EXIT_OK,
        "98ac337cda508c860b6d67521579e2db4fce309ec3f730640f6cf0e4f480ce0a",
    ),
]


CLI_IDS = [
    "analyze-set-csv", "analyze-set-json", "maxset-csv", "maxset-json", "maxset-set-json",
    "ccdf-json", "verify-corrupt", "oracle-set", "oracle",
]


@pytest.mark.parametrize(("argv", "code", "digest"), CLI_RUNS, ids=CLI_IDS)
def test_cli_destinations_get_the_same_bytes(argv, code, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "odd.edges").write_text(ODD_EDGES, encoding="utf-8")
    (tmp_path / "odd.paths").write_text('m1 a"x b\\y m2\nm1 c,z é m2\nm1 a"x é m2\n', encoding="utf-8")
    argv = [argv[0], "--topology", "odd.edges", *argv[1:]]
    assert main(argv) == code
    out = capsys.readouterr().out
    with contextlib.redirect_stdout(io.StringIO()) as redirected:
        assert main(argv) == code
    assert main([*argv, "--out", "report.txt"]) == code
    assert capsys.readouterr().out == ""
    assert redirected.getvalue() == out
    assert (tmp_path / "report.txt").read_bytes() == out.encode("utf-8")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--topology", "net.edges", "--set", "v1,zz"],
        ["verify", "--batch", '{"count": 2, "checks": ["bogus"]}'],
    ],
    ids=["analyze-bad-set", "verify-bad-spec"],
)
@pytest.mark.parametrize("exists", [True, False], ids=["existing", "missing"])
def test_refused_run_leaves_out_file_alone(argv, exists, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "net.edges").write_text(read_fixture("golden/net.edges"))
    target = tmp_path / "report.txt"
    if exists:
        target.write_text("an earlier report\n")
    assert main([*argv, "--out", str(target)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    if exists:
        assert target.read_text() == "an earlier report\n"
    else:
        assert not target.exists()


#: Runs one command and prints its peak RSS in KiB. A small launcher spawns
#: it: a child's ``ru_maxrss`` starts from the size of the process that
#: spawned it, and the test process is large.
_LAUNCH = (
    "import os, sys; pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
    "_, status, usage = os.wait4(pid, 0); "
    "print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))"
)


def _peak_rss_mb(tmp_path, *argv: str) -> float:
    command = [sys.executable, "-S", "-c", _LAUNCH, sys.executable, "-m", "faultscope.cli", *argv]
    proc = subprocess.run(command, cwd=tmp_path, env=src_env(), capture_output=True, text=True, check=True)
    kib, code = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(kib) / 1024


def test_json_report_peaks_near_the_csv_report(tmp_path):
    # n=800, sigma 760: the JSON report is 6.6 MB and its max-set section
    # holds 2,280 member lists; streamed, neither the text nor the encoder's
    # chunks are held whole, so JSON costs about what CSV costs
    gen = ["gen", "--n", "800", "--p", "0.0075", "--mu", "40", "--seed", "1"]
    assert main([*gen, "--out", str(tmp_path / "big.edges")]) == EXIT_OK
    analyze = ["analyze", "--topology", "big.edges", "--out", "report"]
    csv_mb = _peak_rss_mb(tmp_path, *analyze)
    json_mb = _peak_rss_mb(tmp_path, *analyze, "--format", "json")
    assert json_mb <= csv_mb + 10, (csv_mb, json_mb)
