import hashlib
import json
import subprocess
import sys

import pytest

import faultscope as fs
from faultscope.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_VERIFY, build_parser, main

from conftest import read_fixture, src_env


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "net.edges").write_text(read_fixture("golden/net.edges"))
    (tmp_path / "up.paths").write_text(read_fixture("golden/up.paths"))
    return tmp_path


@pytest.fixture()
def no_instance(monkeypatch):
    """Fail the test if a verify battery draws or loads an instance."""

    def never(*args, **kwargs):
        raise AssertionError("an instance was drawn or loaded")

    for target in ("randomnet.gen_er", "verify.random_graph", "cli.load_topology"):
        monkeypatch.setattr(f"faultscope.{target}", never)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGen:
    def test_writes_monitored_topology(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        rc, _, _ = run(capsys, "gen", "--n", "8", "--p", "0.4", "--seed", "7", "--mu", "2", "--out", str(out))
        assert rc == EXIT_OK
        t = fs.load_topology(out.read_text())
        assert len(t.nodes) == 8 and t.mu == 2

    def test_deterministic(self, capsys):
        rc1, out1, _ = run(capsys, "gen", "--n", "8", "--p", "0.4", "--seed", "7")
        rc2, out2, _ = run(capsys, "gen", "--n", "8", "--p", "0.4", "--seed", "7")
        assert rc1 == rc2 == EXIT_OK
        assert out1 == out2

    def test_rejects_bad_p(self, capsys):
        rc, _, err = run(capsys, "gen", "--n", "8", "--p", "1.5", "--seed", "7")
        assert rc == EXIT_VALIDATION
        assert "error:" in err

    @pytest.mark.parametrize(
        ("flags", "line"),
        [
            (["--p", "0"], "edge probability p must be in (0, 1], got 0.0"),
            (["--p", "0.9", "--mu", "9"], "monitor count mu must be in 1..5, got 9"),
        ],
    )
    def test_refusal_names_the_flag_and_value(self, flags, line, capsys):
        rc, out, err = run(capsys, "gen", "--n", "5", "--seed", "1", *flags)
        assert rc == EXIT_VALIDATION and out == ""
        assert err == f"error: {line}\n"

    def test_node_cap_refused_before_any_label(self, monkeypatch, capsys):
        def never(n):
            raise AssertionError("node labels built past the node cap")

        monkeypatch.setattr("faultscope.randomnet._node_labels", never)
        n = str(fs.randomnet.DEFAULT_MAX_NODES + 1)
        rc, out, err = run(capsys, "gen", "--n", n, "--p", "0.5", "--seed", "1", "--mu", "1")
        assert rc == EXIT_VALIDATION and out == ""
        assert err == f"error: node count n must be in 2..10000, got {n}\n"


class TestAnalyze:
    def test_csv_table(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
            "--mechanism", "up",
        )
        assert rc == EXIT_OK
        assert out.splitlines()[0] == "# schema: faultscope/analysis v1"
        assert "node,up,v2,,4,1,3,0,1,false,," in out

    def test_flags_recorded(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
            "--mechanism", "up",
        )
        assert rc == EXIT_OK
        flags = next(line for line in out.splitlines() if line.startswith("# flags:"))
        assert "mechanism=up" in flags and "paths=" in flags

    def test_json_format(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
            "--format", "json",
        )
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["sigma"] == 4

    def test_exact_mode(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
            "--mechanism", "up", "--exact",
        )
        assert rc == EXIT_OK
        assert "node,up,v2,,4,1,3,1,1,true,," in out

    def test_exact_cap_on_dense_instance(self, tmp_path, capsys):
        # 12 nodes and 36 links: enumeration is bounded by the node count alone
        net = str(tmp_path / "g.edges")
        run(capsys, "gen", "--n", "12", "--p", "0.5", "--seed", "1", "--mu", "3", "--out", net)
        assert fs.load_topology((tmp_path / "g.edges").read_text()).xi == 36
        rc, exact, _ = run(capsys, "analyze", "--topology", net, "--mechanism", "cap", "--exact")
        assert rc == EXIT_OK
        rc, bounds, _ = run(capsys, "analyze", "--topology", net, "--mechanism", "cap")
        assert rc == EXIT_OK
        # the CAP closed form is exact, so the oracle rows repeat it
        rows = [line for line in exact.splitlines() if line.startswith("node,")]
        assert len(rows) == 9
        assert rows == [line for line in bounds.splitlines() if line.startswith("node,")]

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--exact"),
            ("analyze", "--exact", "--mechanism", "csp"),
            ("maxset", "--exact"),
            ("ccdf", "--exact"),
        ],
    )
    def test_exact_over_oracle_cap_refused_before_enumeration(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # 14 nodes, 2 monitors: sigma 12 is past the oracle's cap of 10
        net = str(tmp_path / "over.edges")
        run(capsys, "gen", "--n", "14", "--p", "0.6", "--seed", "1", "--mu", "2", "--out", net)

        def never(*args, **kwargs):
            raise AssertionError("paths enumerated for an instance the oracle refuses")

        monkeypatch.setattr("faultscope.identify.enumerate_cap", never)
        monkeypatch.setattr("faultscope.identify.enumerate_csp", never)
        rc, out, err = run(capsys, argv[0], "--topology", net, *argv[1:])
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: universe size 12 exceeds the oracle cap 10")

    def test_exact_under_the_caps_enumerates_paths(self, workspace, monkeypatch, capsys):
        # the names the refusal tests above replace are the ones that run
        calls = []
        for name in ("enumerate_cap", "enumerate_csp"):
            original = getattr(fs.identify, name)

            def spy(t, _name=name, _original=original):
                calls.append(_name)
                return _original(t)

            monkeypatch.setattr(f"faultscope.identify.{name}", spy)
        rc, out, _ = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"), "--exact",
        )
        assert rc == EXIT_OK
        assert sorted(calls) == ["enumerate_cap", "enumerate_csp"]

    def test_set_query(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
            "--mechanism", "up", "--set", "v1,v2,v4",
        )
        assert rc == EXIT_OK
        assert "set,up,v1+v2+v4,,,,,1,1,true,," in out

    def test_inline_monitors_override(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--monitors", "m1,m2,m3,v3",
            "--mechanism", "cap",
        )
        assert rc == EXIT_OK
        assert "node,cap,v3" not in out
        assert "node,cap,v2" in out

    @pytest.mark.parametrize("monitors", ["", " , ", "@empty", "@latin", "@absent"])
    def test_empty_monitor_list_refused(self, monitors, workspace, capsys):
        # so is a monitor file that is not UTF-8, or that is missing
        (workspace / "empty").write_text("# no names\n")
        (workspace / "latin").write_bytes(b"\xff\xfe")
        reason = {
            "@latin": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            "@absent": f"[Errno 2] No such file or directory: '{workspace}/absent'",
        }.get(monitors, "empty node list")
        rc, out, err = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--monitors", monitors.replace("@", f"@{workspace}/"),
        )
        assert rc == EXIT_VALIDATION and out == ""
        assert err == f"error: --monitors: {reason}\n"

    def test_monitor_file(self, workspace, capsys):
        mons = workspace / "mons.txt"
        mons.write_text("m1 m2\nm3\n")
        rc, out, _ = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--monitors", f"@{mons}",
            "--mechanism", "cap",
        )
        assert rc == EXIT_OK
        assert "node,cap,v2,,4,1,3,4,4,true,," in out

    def test_out_file_matches_stdout(self, workspace, capsys):
        target = workspace / "report.csv"
        rc, out, _ = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
            "--mechanism", "up",
        )
        rc2, _, _ = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
            "--mechanism", "up", "--out", str(target),
        )
        assert rc == rc2 == EXIT_OK
        assert target.read_text() == out

    def test_missing_topology_file(self, workspace, capsys):
        rc, _, err = run(capsys, "analyze", "--topology", str(workspace / "absent.edges"))
        assert rc == EXIT_VALIDATION
        assert "error:" in err

    def test_bad_path_file(self, workspace, capsys):
        bad = workspace / "bad.paths"
        bad.write_text("v1 v2 v4\n")
        rc, _, err = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"), "--paths", str(bad),
        )
        assert rc == EXIT_VALIDATION
        assert "endpoints must be monitors" in err

    def test_monitor_in_set_rejected(self, workspace, capsys):
        rc, _, err = run(
            capsys,
            "analyze", "--topology", str(workspace / "net.edges"),
            "--mechanism", "cap", "--set", "m1",
        )
        assert rc == EXIT_VALIDATION


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE
        assert "usage:" in capsys.readouterr().err

    def test_unknown_mechanism(self, workspace, capsys):
        # a flag's value is an input, not syntax: one line and exit 2
        argv = ["maxset", "--topology", str(workspace / "net.edges"), "--mechanism", "cap,zz"]
        line = "error: --mechanism: 'zz' is not a valid Mechanism\n"
        assert run(capsys, *argv) == (EXIT_VALIDATION, "", line)

    @pytest.mark.parametrize(
        ("flag", "value", "reason"),
        [
            ("mechanism", "zz", "'zz' is not a valid Mechanism"),
            ("mechanism", " ", "at least one mechanism is required"),
            ("set", " , ", "empty node list"),
        ],
        ids=["mechanism", "empty-mechanism", "set"],
    )
    def test_bad_flag_value_gives_its_reason(self, flag, value, reason, workspace, monkeypatch, capsys):
        # a bad name list is refused before any file is read: the reader runs
        # for the list alone, though topology and path files are given
        monkeypatch.chdir(workspace)
        read, real = [], fs.cli._read_text
        monkeypatch.setattr(fs.cli, "_read_text", lambda f, *a: read.append(f) or real(f, *a))
        argv = ["analyze", "--topology", "net.edges", "--paths", "up.paths", f"--{flag}", value]
        assert run(capsys, *argv) == (EXIT_VALIDATION, "", f"error: --{flag}: {reason}\n")
        assert read == [flag]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "abc", "--p", "0.5", "--seed", "1"],
            ["analyze", "--topology", "net.edges", "--format", "xml"],
            ["analyze", "--topology", "net.edges", "--bogus"],
            ["analyze"],
        ],
        ids=["not-an-integer", "not-a-choice", "unknown-flag", "missing-topology"],
    )
    def test_syntax_error_is_a_usage_error(self, argv, workspace, monkeypatch, capsys):
        # argparse judges the command line's syntax alone: usage and exit 1
        monkeypatch.chdir(workspace)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and ": error: " in err.splitlines()[-1]


class TestMaxset:
    def test_single_k(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "maxset", "--topology", str(workspace / "net.edges"),
            "--mechanism", "csp", "--k", "4",
        )
        assert rc == EXIT_OK
        assert "maxset,csp,,4,,,,,,true,v1+v3+v4,v1+v3+v4" in out

    def test_set_query(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "maxset", "--topology", str(workspace / "net.edges"),
            "--mechanism", "csp", "--set", "v1,v2,v3,v4",
        )
        assert rc == EXIT_OK
        assert "set,csp,v1+v2+v3+v4,,,,,3,3,true,," in out

    def test_set_query_refuses_k(self, workspace, capsys):
        argv = ("maxset", "--topology", str(workspace / "net.edges"), "--set", "v1,v2")
        rc, out, err = run(capsys, *argv, "--k", "99")
        assert rc == EXIT_VALIDATION and out == ""
        assert err == "error: --k does not apply with --set\n"
        rc, out, _ = run(capsys, *argv)
        assert rc == EXIT_OK
        assert "# flags: mechanism=cap,csp,up set=v1,v2 topology=" in out

    def test_k_without_non_monitors_names_the_cause(self, tmp_path, capsys):
        (tmp_path / "pair.edges").write_text("# monitors: a b\na b\n")
        rc, out, err = run(capsys, "maxset", "--topology", str(tmp_path / "pair.edges"), "--k", "1")
        assert rc == EXIT_VALIDATION and out == ""
        assert err == "error: k must be in 1..sigma, but the topology has no non-monitors\n"


#: A small valid ccdf batch spec.
SPEC = '{"count": 1, "n": 8, "p": 0.4, "mus": [2], "seed": 5, "mechanisms": ["cap"]}'


class TestCcdf:
    def test_fixture_table(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "ccdf", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
            "--mechanism", "up",
        )
        assert rc == EXIT_OK
        assert "1,up,3,0.75,0.75,true" in out

    def test_batch_inline(self, capsys):
        spec = '{"count": 2, "n": 8, "p": 0.4, "mus": [2], "seed": 5, "mechanisms": ["cap"]}'
        rc, out, _ = run(capsys, "ccdf", "--batch", spec)
        assert rc == EXIT_OK
        assert out.splitlines()[0] == "# schema: faultscope/ccdf v1"

    def test_batch_jobs_byte_identical(self, capsys):
        spec = '{"count": 2, "n": 8, "p": 0.4, "mus": [2], "seed": 5, "mechanisms": ["cap"]}'
        rc1, out1, _ = run(capsys, "ccdf", "--batch", spec, "--jobs", "1")
        rc2, out2, _ = run(capsys, "ccdf", "--batch", spec, "--jobs", "2")
        assert rc1 == rc2 == EXIT_OK
        assert out1 == out2

    def test_batch_file(self, workspace, capsys):
        spec = workspace / "batch.json"
        spec.write_text('{"count": 2, "n": 8, "p": 0.4, "mus": [2], "seed": 5}')
        rc, out, _ = run(capsys, "ccdf", "--batch", f"@{spec}")
        assert rc == EXIT_OK

    def test_batch_excludes_topology(self, workspace, capsys):
        spec = '{"count": 1, "n": 8, "p": 0.4, "mus": [2], "seed": 5}'
        rc, _, err = run(
            capsys,
            "ccdf", "--batch", spec, "--topology", str(workspace / "net.edges"),
        )
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize(
        ("field", "spec"),
        [
            ("mus", {"count": 2, "n": 10, "p": 0.4, "mus": 5, "seed": 1}),
            ("mus", {"count": 2, "n": 10, "p": 0.4, "mus": ["2"], "seed": 1}),
            ("count", {"count": "2", "n": 10, "p": 0.4, "mus": [2], "seed": 1}),
            ("n", {"count": 2, "n": [10], "p": 0.4, "mus": [2], "seed": 1}),
            ("p", {"count": 2, "n": 10, "p": "x", "mus": [2], "seed": 1}),
            ("seed", {"count": 2, "n": 10, "p": 0.4, "mus": [2], "seed": 1.5}),
            (
                "mechanisms",
                {"count": 2, "n": 10, "p": 0.4, "mus": [2], "seed": 1, "mechanisms": "cap"},
            ),
            ("mus", {"count": 2, "n": 5, "p": 0.5, "mus": [], "seed": 1}),
            ("jobs", {"count": 1, "n": 5, "p": 0.5, "mus": [1], "seed": 1, "jobs": 4}),
            ("p", {"count": 1, "n": 5, "p": float("nan"), "mus": [1], "seed": 1}),
            ("p", {"count": 1, "n": 5, "p": 2, "mus": [1], "seed": 1}),
            ("mus", {"count": 1, "n": 5, "p": 0.5, "mus": [1, 1], "seed": 1}),
            ("n", {"count": 1, "n": 10001, "p": 0.5, "mus": [1], "seed": 1}),
            (
                "mechanisms",
                {"count": 1, "n": 5, "p": 0.5, "mus": [1], "seed": 1, "mechanisms": ["bogus"]},
            ),
            (
                "mechanisms",
                {"count": 1, "n": 5, "p": 0.5, "mus": [1], "seed": 1, "mechanisms": []},
            ),
        ],
    )
    def test_batch_field_of_wrong_type(self, field, spec, capsys):
        rc, out, err = run(capsys, "ccdf", "--batch", json.dumps(spec))
        assert rc == EXIT_VALIDATION
        assert out == ""
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert f"{field!r}" in line

    @pytest.mark.parametrize(
        ("spec", "line"),
        [
            ({"n": 0}, "'n' must be an integer in 2..10000, got 0"),
            ({"n": -5}, "'n' must be an integer in 2..10000, got -5"),
            ({"mus": [0]}, "'mus' must be a non-empty list of distinct integers in 1..4, got [0]"),
            ({"count": 0}, "'count' must be an integer >= 1, got 0"),
        ],
    )
    def test_batch_field_out_of_range_named(self, spec, line, capsys):
        spec = {"count": 1, "n": 5, "p": 0.5, "mus": [1], "seed": 1, **spec}
        rc, out, err = run(capsys, "ccdf", "--batch", json.dumps(spec))
        assert rc == EXIT_VALIDATION and out == ""
        assert err == f"error: batch spec field {line}\n"

    @pytest.mark.parametrize(
        ("flag", "argv"),
        [
            ("--jobs", ["--topology", "net.edges", "--jobs", "2"]),
            ("--jobs", ["--topology", "net.edges", "--jobs", "0"]),
            ("--paths", ["--batch", SPEC, "--paths", "absent.paths"]),
            ("--monitors", ["--batch", SPEC, "--monitors", "m1,m2"]),
            ("--exact", ["--batch", SPEC, "--exact"]),
            # SPEC sets its mechanisms: a --mechanism given is refused, even every one
            ("--mechanism", ["--batch", SPEC, "--mechanism", "up"]),
            ("--mechanism", ["--batch", SPEC, "--mechanism", "cap,csp,up"]),
            # SPEC sets its seed too
            ("--seed", ["--batch", SPEC, "--seed", "7"]),
        ],
    )
    def test_flag_that_does_not_apply_refused(self, flag, argv, workspace, monkeypatch, capsys):
        monkeypatch.chdir(workspace)
        rc, out, err = run(capsys, "ccdf", *argv)
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: {flag} does not apply")

    @pytest.mark.parametrize("mechanisms", [["cap"], ["cap", "cap"]])
    def test_batch_header_stamps_the_mechanisms_that_ran(self, mechanisms, capsys):
        spec = json.dumps({"count": 1, "n": 5, "p": 0.5, "mus": [1], "seed": 1, "mechanisms": mechanisms})
        rc, out, _ = run(capsys, "ccdf", "--batch", spec)
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert lines[3] == f"# flags: batch={spec} mechanism=cap"
        # a repeated mechanism runs once
        assert lines[5:] == [f"{k},cap,1,{f},{f},true" for k, f in enumerate((1.0, 1.0, 0.5, 0.5), 1)]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_draw_that_never_connects_refused_naming_instance_and_field(self, jobs, capsys):
        # instance 2 draws at seed 1 + 2, a seed the spec never gave
        spec = '{"count": 40, "n": 30, "p": 0.05, "mus": [1], "seed": 1}'
        rc, out, err = run(capsys, "ccdf", "--batch", spec, "--jobs", jobs)
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        assert line == (
            "error: ccdf[2]: no connected graph on 30 nodes at p=0.05, set by batch spec field 'p'"
        )

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, jobs, capsys):
        spec = '{"count": 2, "n": 8, "p": 0.4, "mus": [2], "seed": 5, "mechanisms": ["cap"]}'
        rc, out, err = run(capsys, "ccdf", "--batch", spec, "--jobs", jobs)
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        assert "jobs" in line


class TestVerify:
    def test_cut_battery(self, capsys):
        rc, out, _ = run(capsys, "verify", "--kind", "cuts", "--count", "5", "--seed", "3")
        assert rc == EXIT_OK
        assert json.loads(out)["ok"] is True

    def test_er_battery(self, capsys):
        rc, out, _ = run(capsys, "verify", "--kind", "er", "--count", "2", "--seed", "4")
        assert rc == EXIT_OK

    def test_topology_file(self, workspace, capsys):
        rc, out, _ = run(capsys, "verify", "--topology", str(workspace / "net.edges"))
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["instances"] == 1 and doc["ok"] is True

    @pytest.mark.parametrize(
        ("field", "what", "spec"),
        [
            ("n_range", "two integers", {"kind": "er", "count": 2, "n_range": [5]}),
            ("p_range", "two numbers", {"kind": "er", "count": 2, "p_range": [0.3]}),
            ("n_range", "two integers", {"kind": "cuts", "count": 2, "n_range": 5}),
            ("p_range", "two numbers", {"kind": "cuts", "count": 2, "p_range": [0.1, "x"]}),
            ("count", "an integer", {"kind": "er", "count": [1]}),
            ("seed", "an integer", {"kind": "cuts", "count": 2, "seed": "1"}),
            ("monitor_counts", "integers", {"kind": "er", "count": 2, "monitor_counts": 5}),
            ("checks", "check names", {"kind": "er", "count": 2, "checks": "cap"}),
            ("monitor_counts", "non-empty", {"kind": "er", "count": 2, "monitor_counts": []}),
            ("count", "an integer >= 0", {"kind": "cuts", "count": -2}),
            ("n_range", "low to high", {"kind": "er", "count": 2, "n_range": [5, 2]}),
            ("n_range", "low >= 2", {"kind": "er", "count": 1, "n_range": [-3, -1]}),
            ("n_range", "low >= 1", {"kind": "cuts", "count": 1, "n_range": [-3, -1]}),
            ("n_range", "high <= 8", {"kind": "cuts", "count": 1, "n_range": [2, 9]}),
            ("checks", "non-empty", {"kind": "er", "count": 2, "checks": []}),
            ("cout", "unknown field", {"cout": 3}),
            ("checks", "unknown field", {"kind": "cuts", "count": 2, "checks": ["cap"]}),
            ("p_range", "(0, 1]", {"kind": "er", "count": 2, "p_range": [0, 0]}),
            ("p_range", "(0, 1]", {"kind": "er", "count": 2, "p_range": [float("nan"), 0.5]}),
            ("p_range", "[0, 1]", {"kind": "cuts", "count": 2, "p_range": [1.5, 2]}),
            ("monitor_counts", ">= 1", {"kind": "er", "count": 2, "monitor_counts": [0]}),
            ("p_range", "low to high", {"kind": "er", "count": 1, "p_range": [0.9, 0.1]}),
            ("p_range", "low to high", {"kind": "cuts", "count": 1, "p_range": [0.9, 0.1]}),
            ("kind", "one of er, cuts", {"kind": "zz"}),
            ("kind", "one of er, cuts", {"kind": ["er"], "count": 2}),
        ],
    )
    def test_batch_field_of_wrong_type(self, field, what, spec, no_instance, capsys):
        rc, out, err = run(capsys, "verify", "--batch", json.dumps(spec))
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        assert f"{field!r}" in line and what in line

    def test_draw_that_never_connects_refused_naming_instance_and_field(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("an instance was checked before the refusal")

        monkeypatch.setattr("faultscope.verify.Analysis", never)
        spec = '{"count": 3, "seed": 5, "p_range": [0.0001, 0.0001]}'
        rc, out, err = run(capsys, "verify", "--batch", spec)
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        assert "er[0]" in line and "'p_range'" in line
        assert "seed=" not in line and "155" not in line

    def test_oversized_battery_refused_before_enumeration(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("paths enumerated for an instance the oracle refuses")

        monkeypatch.setattr("faultscope.identify.enumerate_cap", never)
        monkeypatch.setattr("faultscope.identify.enumerate_csp", never)
        spec = '{"kind": "er", "count": 2, "n_range": [14, 14], "monitor_counts": [2]}'
        rc, out, err = run(capsys, "verify", "--batch", spec)
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        assert "universe size 12 exceeds the oracle cap 10" in line

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_battery_that_can_pass_the_oracle_cap_refused_for_every_seed(self, seed, capsys):
        # n=14 with two monitors would give 12 non-monitors: refused whatever
        # the seed draws
        spec = json.dumps({"count": 3, "n_range": [5, 14], "seed": seed})
        rc, out, err = run(capsys, "verify", "--batch", spec)
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        assert "universe size 12 exceeds the oracle cap 10" in line

    def test_battery_over_node_cap_refused_before_enumeration(self, monkeypatch, capsys):
        # sigma 9 passes the oracle cap, but 22 nodes pass the enumerators'
        # 14-node cap: the spec is refused before any instance is drawn
        def never(*args, **kwargs):
            raise AssertionError("paths enumerated for an instance past the node cap")

        monkeypatch.setattr("faultscope.identify.enumerate_cap", never)
        monkeypatch.setattr("faultscope.identify.enumerate_csp", never)
        spec = '{"count": 1, "n_range": [22, 22], "monitor_counts": [13], "seed": 1}'
        rc, out, err = run(capsys, "verify", "--batch", spec)
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        assert "'n_range'" in line and "high <= 14" in line

    def test_no_flags_is_the_default_spec(self, capsys):
        rc, out, _ = run(capsys, "verify")
        assert rc == EXIT_OK
        flags = ("--kind", "er", "--count", "50", "--seed", "0", "--checks", "cap,csp,up,sets")
        assert run(capsys, "verify", *flags) == (rc, out, "")
        assert json.loads(out)["instances"] == 50

    @pytest.mark.parametrize(
        ("flag", "argv"),
        [
            ("--checks", ["--kind", "cuts", "--checks", "cap"]),
            ("--corrupt", ["--kind", "cuts", "--count", "1", "--corrupt"]),
            ("--corrupt", ["--batch", '{"kind": "cuts", "count": 1}', "--corrupt"]),
            ("--kind", ["--batch", '{"count": 2}', "--count", "9", "--kind", "cuts"]),
            ("--count", ["--batch", '{"count": 1}', "--count", "3"]),
            ("--seed", ["--batch", '{"count": 1}', "--seed", "3"]),
            ("--checks", ["--batch", '{"count": 1}', "--checks", "cap"]),
            ("--batch", ["--topology", "net.edges", "--batch", '{"count": 1}']),
            ("--count", ["--topology", "net.edges", "--count", "2"]),
            ("--seed", ["--topology", "net.edges", "--seed", "2"]),
            ("--monitors", ["--monitors", "m1,m2", "--count", "1"]),
        ],
    )
    def test_flag_that_does_not_apply_refused(self, flag, argv, workspace, monkeypatch, capsys):
        monkeypatch.chdir(workspace)
        rc, out, err = run(capsys, "verify", *argv)
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: {flag} does not apply")

    @pytest.mark.parametrize(
        ("flag", "argv"),
        [
            ("--count", ["--count", "-1"]),
            ("--count", ["--kind", "cuts", "--count", "-2", "--seed", "3"]),
            ("--checks", ["--checks", "foo"]),
            ("--checks", ["--checks", ","]),
            ("--checks", ["--count", "2", "--checks", "cap,bogus"]),
            ("--kind", ["--kind", "bogus"]),
            ("--checks", ["--topology", "net.edges", "--checks", "foo"]),
        ],
    )
    def test_bad_flag_value_refused_in_flag_words(
        self, flag, argv, workspace, monkeypatch, no_instance, capsys
    ):
        # each value is judged by the battery spec row of its flag's name,
        # before any instance is drawn or loaded
        monkeypatch.chdir(workspace)
        rc, out, err = run(capsys, "verify", *argv)
        assert rc == EXIT_VALIDATION
        assert out == ""
        (line,) = err.splitlines()
        what = {
            "--count": "an integer >= 0, got -",
            "--checks": "a non-empty list of check names from cap, csp, up, sets, got (",
            "--kind": "one of er, cuts, got 'bogus'",
        }[flag]
        assert line.startswith(f"error: {flag} must be {what}")
        assert "batch spec" not in line

    def test_corruption_exits_nonzero(self, capsys):
        rc, out, _ = run(
            capsys,
            "verify", "--kind", "er", "--count", "2", "--seed", "4", "--corrupt",
        )
        assert rc == EXIT_VERIFY
        assert json.loads(out)["ok"] is False


class TestOracle:
    def test_omega(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "oracle", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
            "--set", "v1,v2,v4",
        )
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["omega"] == 1

    def test_k_query(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "oracle", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
            "--set", "v2", "--k", "2",
        )
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["identifiable"] is False

    def test_default_set_without_non_monitors_names_the_cause(self, tmp_path, capsys):
        # refused before the path file is read
        (tmp_path / "pair.edges").write_text("# monitors: a b\na b\n")
        argv = ["--topology", str(tmp_path / "pair.edges"), "--paths", str(tmp_path / "absent")]
        rc, out, err = run(capsys, "oracle", *argv)
        assert rc == EXIT_VALIDATION and out == ""
        cause = "--set defaults to all non-monitors, but the topology has no non-monitors"
        assert err == f"error: {cause}\n"

    def test_defaults_to_all_nodes(self, workspace, capsys):
        rc, out, _ = run(
            capsys,
            "oracle", "--topology", str(workspace / "net.edges"),
            "--paths", str(workspace / "up.paths"),
        )
        assert rc == EXIT_OK
        assert json.loads(out)["omega"] == 0


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "faultscope" in capsys.readouterr().out


class TestGoldenReports:
    """Report bytes pinned to files recorded from the CLI (tests/fixtures/reports).

    The flags comment names the input files, so each command runs from the
    directory holding them, under the names the fixtures were recorded with.
    """

    @pytest.mark.parametrize(
        ("fixture", "argv"),
        [
            ("analyze_golden_up.csv", ["--set", "v1,v2,v4"]),
            ("analyze_golden_up.json", ["--set", "v1,v2,v4", "--format", "json"]),
        ],
    )
    def test_analyze_golden_net_with_up_paths(self, fixture, argv, workspace, monkeypatch, capsys):
        monkeypatch.chdir(workspace)
        argv = ["analyze", "--topology", "net.edges", "--paths", "up.paths", *argv]
        rc, out, _ = run(capsys, *argv)
        assert rc == EXIT_OK
        assert out == read_fixture(f"reports/{fixture}")

    @pytest.mark.parametrize("command", ["maxset", "ccdf"])
    def test_generated_instance(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        gen = ["gen", "--n", "30", "--p", "0.2", "--seed", "3", "--mu", "4", "--out", "er30.edges"]
        assert run(capsys, *gen)[0] == EXIT_OK
        assert (tmp_path / "er30.edges").read_text() == read_fixture("reports/er30.edges")
        rc, out, _ = run(capsys, command, "--topology", "er30.edges")
        assert rc == EXIT_OK
        assert out == read_fixture(f"reports/{command}_er30.csv")

    @pytest.mark.parametrize(
        ("seed", "digest"),
        [
            (1, "47019f870939918b754d004880a9a2d07af1dc76cf67f72fad2dd79208b036cd"),
            (2, "52ca6350a677565adcdfe3421678ef428ad200773cbd09b7e81b0a6a6112a918"),
            (3, "dcc407abc0af092bf0b8eeba9eec4d6e12f7176388e45f3c62742d6c6425df6e"),
        ],
    )
    def test_analyze_bytes_at_n200(self, seed, digest, tmp_path, monkeypatch, capsys):
        # sigma 190: the cut tables' shortcuts run here as they do at scale,
        # beyond the 30-node fixtures; the digests pin the whole CSV
        monkeypatch.chdir(tmp_path)
        gen = ["gen", "--n", "200", "--p", "0.03", "--seed", str(seed), "--mu", "10", "--out", "er200.edges"]
        assert run(capsys, *gen)[0] == EXIT_OK
        rc, out, _ = run(capsys, "analyze", "--topology", "er200.edges")
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        ("spec", "fmt", "digest"),
        [
            # the README's batch
            (
                '{"count": 50, "n": 20, "p": 0.27, "mus": [2, 10], "seed": 1}',
                "csv",
                "e622ccf272d8d12108bbb7a50e5d9bef17314eef536141bacb09e9b25c5912dd",
            ),
            (
                '{"count": 20, "n": 15, "p": 0.3, "mus": [3, 5], "seed": 4, "mechanisms": ["up", "cap"]}',
                "json",
                "434e0f719dea305a09af7c6dbaeca8ec6390012d8a02d41709d1c6583e4b0512",
            ),
        ],
    )
    def test_ccdf_batch_bytes(self, spec, fmt, digest, capsys):
        # the averages over instances, pinned byte for byte
        rc, out, _ = run(capsys, "ccdf", "--batch", spec, "--format", fmt)
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCliDigests:
    """Report bytes at n=800 (sigma 760), from one in-process analysis."""

    @pytest.fixture(scope="class")
    def report(self):
        t = fs.place_monitors(fs.gen_er(800, 0.0075, 1).topology, 40, 1)
        return fs.analyze(t, ("cap", "csp", "up"))

    def test_csv_bytes_at_n800(self, report):
        digest = "ea05673d9ba5d75e02ce03f1aec79a03203737c5fbd6717412027ff48ca17043"
        assert hashlib.sha256(report.to_csv().encode()).hexdigest() == digest

    def test_json_bytes_at_n800(self, report):
        digest = "51bc1a55bfb4d920254aeefad70dad3027521b8af82f90e906c3fefda664a073"
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    ("argv", "flags"),
    [
        (
            ["analyze", "--topology", "net.edges", "--paths", "up.paths", "--set", "v1,v2"],
            "mechanism=cap,csp,up paths=up.paths set=v1,v2 topology=net.edges",
        ),
        (
            ["maxset", "--topology", "net.edges", "--mechanism", "csp,cap", "--k", "2", "--exact"],
            "exact k=2 mechanism=csp,cap topology=net.edges",
        ),
        (
            ["maxset", "--topology", "net.edges", "--set", "v2,v4"],
            "mechanism=cap,csp,up set=v2,v4 topology=net.edges",
        ),
        (
            ["ccdf", "--topology", "net.edges", "--paths", "up.paths", "--mechanism", "up"],
            "mechanism=up paths=up.paths topology=net.edges",
        ),
        (
            ["ccdf", "--batch", '{"count":1,"n":5,"p":0.5,"mus":[1]}', "--jobs", "1"],
            'batch={"count":1,"n":5,"p":0.5,"mus":[1]} mechanism=cap,csp,up',
        ),
    ],
    ids=["analyze", "maxset", "maxset --set", "ccdf --topology", "ccdf --batch"],
)
def test_header_stamps_the_report_flags(argv, flags, workspace, monkeypatch, capsys):
    # the seed has a header line of its own (a batch spec without one takes
    # --seed); monitors, format, out and jobs are never stamped, and a batch
    # refuses --monitors
    monkeypatch.chdir(workspace)
    if argv[0] != "ccdf" or "--batch" not in argv:
        argv = [*argv, "--monitors", "m1,m2,m3"]
    rc, _, _ = run(capsys, *argv, "--seed", "7", "--format", "csv", "--out", "report.csv")
    assert rc == EXIT_OK
    header = (workspace / "report.csv").read_text().splitlines()[2:4]
    assert header == ["# seed: 7", f"# flags: {flags}"]


@pytest.mark.parametrize("command", ["analyze", "maxset", "ccdf"])
@pytest.mark.parametrize("mechanism", ["cap", "csp", "cap,csp"])
def test_paths_without_up_refused_before_any_file(
    command, mechanism, tmp_path, monkeypatch, capsys
):
    # a path file is read by the up mechanism alone; neither file exists, so
    # the refusal comes before either is read
    monkeypatch.chdir(tmp_path)
    argv = ["--topology", "absent.edges", "--paths", "absent.paths", "--mechanism", mechanism]
    rc, out, err = run(capsys, command, *argv)
    assert rc == EXIT_VALIDATION and out == ""
    assert err == "error: --paths does not apply without the up mechanism\n"


@pytest.mark.parametrize(
    ("flag", "argv"),
    [
        ("topology", ["analyze", "--topology", ""]),
        ("paths", ["analyze", "--topology", "net.edges", "--paths", ""]),
        ("monitors", ["analyze", "--topology", "net.edges", "--monitors", "@"]),
        ("batch", ["ccdf", "--batch", "@"]),
        ("batch", ["verify", "--batch", "@"]),
        ("paths", ["oracle", "--topology", "net.edges", "--paths", ""]),
        ("out", ["verify", "--count", "100000", "--out", ""]),
        ("out", ["gen", "--n", "8", "--p", "0.4", "--seed", "7", "--out", ""]),
    ],
    ids=["analyze-topology", "analyze-paths", "analyze-monitors", "ccdf-batch", "verify-batch",
         "oracle-paths", "verify-out", "gen-out"],
)
def test_empty_file_name_refused_at_its_flag(flag, argv, workspace, no_instance, monkeypatch, capsys):
    # an empty name would read as the working folder, or fail only once the
    # report is built; it is refused before any file is read or work is done
    monkeypatch.chdir(workspace)
    ran = []
    for target in ("_read_text", "gen_er", "verify_batch_spec", "ccdf_batch"):
        monkeypatch.setattr(f"faultscope.cli.{target}", lambda *a, _t=target, **k: ran.append(_t))
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (EXIT_VALIDATION, "", f"error: --{flag}: empty file name\n")
    assert ran == []


@pytest.mark.parametrize("target", [".", "missing/report.out"], ids=["directory", "missing-directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "8", "--p", "0.4", "--seed", "7"],
        ["analyze", "--topology", "net.edges"],
        ["maxset", "--topology", "net.edges"],
        ["ccdf", "--batch", '{"count":1,"n":5,"p":0.5,"mus":[1],"seed":1}'],
        ["verify", "--count", "100000"],
        ["oracle", "--topology", "net.edges", "--paths", "up.paths"],
    ],
    ids=lambda argv: argv[0],
)
def test_unusable_out_refused_before_any_work(argv, target, workspace, no_instance, monkeypatch, capsys):
    # a directory, or a file in a directory that does not exist, would fail
    # only once the report is built; it is refused before any input is read
    # or any instance drawn, and no file is made
    monkeypatch.chdir(workspace)
    before = sorted(workspace.iterdir())
    ran = []
    for name in ("_read_text", "gen_er", "analyze", "maxset_report", "ccdf_batch",
                 "verify_batch_spec", "oracle_omega"):
        monkeypatch.setattr(f"faultscope.cli.{name}", lambda *a, _n=name, **k: ran.append(_n))
    rc, out, err = run(capsys, *argv, "--out", target)
    line = f"error: --out: not a file in an existing directory: {target}\n"
    assert (rc, out, err) == (EXIT_VALIDATION, "", line)
    assert ran == [] and sorted(workspace.iterdir()) == before


@pytest.mark.parametrize(
    ("files", "argv"),
    [
        # the monitors header first, and a path file
        (
            {"net.edges": read_fixture("golden/net.edges"), "up.paths": read_fixture("golden/up.paths")},
            ["analyze", "--topology", "net.edges", "--paths", "up.paths", "--mechanism", "up"],
        ),
        # a link first: its first node is a monitor named in the last line
        ({"t.edges": "a b\nb c\n# monitors: a c\n"}, ["analyze", "--topology", "t.edges"]),
        # a link first, monitors given inline: the first node is analysed
        ({"t.edges": "a b\nb c\nc d\n"}, ["analyze", "--topology", "t.edges", "--monitors", "b,d"]),
        (
            {"t.edges": "b a\nb c\nc d\n", "mon.txt": "a d\n"},
            ["maxset", "--topology", "t.edges", "--monitors", "@mon.txt"],
        ),
        ({"spec.json": '{"count": 3, "seed": 2}'}, ["verify", "--batch", "@spec.json"]),
        # a path file whose name starts with "@" is read under that name
        (
            {"net.edges": read_fixture("golden/net.edges"), "@up.paths": read_fixture("golden/up.paths")},
            ["oracle", "--topology", "net.edges", "--paths", "@up.paths"],
        ),
        (
            {"spec.json": '{"count": 2, "n": 8, "p": 0.4, "mus": [2], "seed": 1}'},
            ["ccdf", "--batch", "@spec.json", "--format", "json"],
        ),
    ],
    ids=["topology-and-paths", "topology", "inline-monitors", "monitor-file", "verify-batch",
         "at-named-paths", "ccdf-batch"],
)
def test_byte_order_mark_is_not_part_of_the_text(files, argv, tmp_path, monkeypatch, capsys):
    # a file saved with a UTF-8 byte-order mark reads as the same text without it
    outputs = []
    for mark in ("", "\ufeff"):
        folder = tmp_path / f"mark{len(mark)}"
        folder.mkdir()
        for name, text in files.items():
            (folder / name).write_text(mark + text, encoding="utf-8")
        monkeypatch.chdir(folder)
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (EXIT_OK, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "\ufeff" not in outputs[1]


def test_cli_import_loads_no_process_pool():
    # only a parallel ccdf batch needs the pool; every other run skips its import.
    # The records are built without code generation, so start-up loads neither
    # dataclasses nor the inspect module it pulls in.
    code = "import json, sys, faultscope.cli; print(json.dumps(sorted(sys.modules)))"
    argv = [sys.executable, "-c", code]
    proc = subprocess.run(argv, env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "faultscope.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")] == []
    assert [m for m in loaded if m in ("dataclasses", "inspect")] == []


@pytest.mark.parametrize(
    ("flag", "argv"),
    [
        ("--set", ["analyze", "--topology", "net.edges", "--set"]),
        ("--mechanism", ["analyze", "--topology", "net.edges", "--mechanism"]),
        ("--checks", ["verify", "--topology", "net.edges", "--checks"]),
    ],
    ids=["set", "mechanism", "checks"],
)
def test_list_flags_split_at_whitespace_as_at_commas(flag, argv, workspace, monkeypatch, capsys):
    # every name list reads as a monitor list does: commas and whitespace alike
    monkeypatch.chdir(workspace)
    names = {"--set": ("v1", "v2"), "--mechanism": ("cap", "up"), "--checks": ("cap", "sets")}[flag]
    outputs = []
    for value in (",".join(names), " ".join(names), f" {names[0]},\t{names[1]} "):
        rc, out, err = run(capsys, *argv, value)
        assert (rc, err) == (EXIT_OK, "")
        outputs.append(out)
    assert outputs[1] == outputs[2] == outputs[0]


@pytest.mark.parametrize("command", ["analyze", "maxset", "ccdf", "oracle"])
def test_path_file_refusal_names_its_flag(command, workspace, monkeypatch, capsys):
    # a line error of the path file names its flag, as does a path file that
    # is not UTF-8 or is missing; a line error of the topology file keeps its
    # own text, so the two cannot be confused
    monkeypatch.chdir(workspace)
    (workspace / "bad.paths").write_text("# probes\nm1 zz m2\n")
    (workspace / "latin.paths").write_bytes(b"\xff\xfe")
    (workspace / "bad.edges").write_text("m1 v1\nv1 v2 m2\n")
    for name, reason in [
        ("bad.paths", "line 2: unknown node 'zz'"),
        ("latin.paths", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("absent.paths", "[Errno 2] No such file or directory: 'absent.paths'"),
    ]:
        rc, out, err = run(capsys, command, "--topology", "net.edges", "--paths", name)
        assert (rc, out, err) == (EXIT_VALIDATION, "", f"error: --paths: {reason}\n")
    rc, out, err = run(capsys, command, "--topology", "bad.edges", "--paths", "up.paths")
    assert (rc, out, err) == (EXIT_VALIDATION, "", "error: line 2: expected 'u v', got 'v1 v2 m2'\n")


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
@pytest.mark.parametrize("command", ["ccdf", "verify"])
def test_batch_json_refusal_names_its_flag(command, inline, workspace, monkeypatch, capsys):
    # text that is not JSON, or a spec file that is not UTF-8 or is missing
    monkeypatch.chdir(workspace)
    (workspace / "bad.json").write_text("{bad")
    (workspace / "latin.json").write_bytes(b"\xff\xfe")
    cases = [
        ("bad.json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("latin.json", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("absent.json", "[Errno 2] No such file or directory: 'absent.json'"),
    ]
    for name, reason in cases[:1] if inline else cases:
        rc, out, err = run(capsys, command, "--batch", "{bad" if inline else f"@{name}")
        assert (rc, out, err) == (EXIT_VALIDATION, "", f"error: --batch: {reason}\n")


def _gen_file(n: int, p: float, mu: int) -> dict[str, str]:
    t = fs.place_monitors(fs.gen_er(n, p, 1).topology, mu, 1)
    return {"net.edges": fs.format_topology(t)}


@pytest.mark.parametrize(
    ("error", "files", "argv", "says"),
    [
        (
            fs.TopologyError,
            {"net.edges": "# monitors: m1 m2\nm1 a+b\na+b m2\n"},
            ["analyze"],
            "line 2: node name 'a+b' may not hold '+' or ','",
        ),
        # 16 nodes pass the enumerators' cap of 14; 12 non-monitors the oracle's of 10
        (fs.EnumerationCapError, _gen_file(16, 0.5, 8), ["analyze", "--exact"], "cap of 14"),
        (fs.OracleCapError, _gen_file(14, 0.6, 2), ["analyze", "--exact"], "oracle cap 10"),
        (
            fs.GenerationError,
            {},
            ["gen", "--n", "40", "--p", "0.001", "--seed", "1"],
            "no connected graph within 1000 retries",
        ),
    ],
    ids=["topology", "enumeration-cap", "oracle-cap", "generation"],
)
def test_every_refusal_is_a_value_error_and_exits_2(error, files, argv, says, tmp_path, monkeypatch, capsys):
    # main catches ValueError and OSError alone: each refusal the library
    # raises is a ValueError, and one raised from a subcommand exits 2 with one line
    assert issubclass(error, ValueError)
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    if files:
        argv = [argv[0], "--topology", "net.edges", *argv[1:]]
    args = build_parser().parse_args(argv)
    with pytest.raises(error):
        args.func(args)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_VALIDATION, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and says in line


def test_import_time_lists_every_module():
    # python -X importtime reports a module imported by a statement, not one
    # loaded through importlib.import_module
    argv = [sys.executable, "-X", "importtime", "-c", "import faultscope"]
    proc = subprocess.run(argv, env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {f"faultscope.{name}" for name in fs._EXPORTS} <= listed
    assert len(fs._EXPORTS) == 9
