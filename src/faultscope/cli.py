"""Command line front end.

Subcommands: gen, analyze, maxset, ccdf, verify, oracle. Exit codes:
0 success, 1 usage error, 2 validation or input error, 3 verification
failure. All reports are deterministic for fixed flags and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    EnumerationCapError,
    GenerationError,
    OracleCapError,
    TopologyError,
)
from .identify import Analysis, Mechanism
from .oracle import oracle_k_identifiable, oracle_omega
from .probing import PathSet, parse_paths
from .randomnet import check_field, gen_er, place_monitors
from .reports import (
    VERSION,
    BatchSpec,
    ReportMeta,
    analyze,
    ccdf,
    ccdf_batch,
    json_document,
    maxset_report,
    normalize_mechanisms,
    set_report,
)
from .topology import Topology, format_topology, load_topology, parse_monitor_names
from .verify import _CHECKS_ROW, _COMMON_FIELDS, ALL_CHECKS, verify_batch_spec, verify_topologies

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFY = 3

SCHEMA_ORACLE = "faultscope/oracle v1"

#: Parsed values a report header does not stamp: the subcommand, where and in
#: what format the report goes, the seed (a header line of its own), the
#: monitors (the topology's own) and the worker count (the bytes are the same
#: for any). Every other value given is stamped.
_UNSTAMPED = frozenset({"command", "func", "out", "format", "seed", "monitors", "jobs"})

#: Every mechanism, the parser's default: a --mechanism given is a new tuple.
_ALL_MECHANISMS = tuple(Mechanism)

#: Each flag that names a file, and the value that names none: an empty name,
#: or a bare "@" for a flag that takes inline text or @FILE.
_NO_FILE = {"topology": "", "monitors": "@", "paths": "", "batch": "@", "out": ""}


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (1, not argparse's 2)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _split(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _mechanism_list(value: str) -> tuple[Mechanism, ...]:
    try:
        return normalize_mechanisms(_split(value))
    except ValueError as exc:  # argparse would print this function's name instead
        raise argparse.ArgumentTypeError(str(exc)) from None


def _name_list(value: str) -> tuple[str, ...]:
    names = _split(value)
    if not names:
        raise argparse.ArgumentTypeError("empty node list")
    return names


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8-sig")


def _write_output(render, out: str | None) -> None:
    """Call ``render`` with stdout, or with ``out`` opened now that the report is built."""
    if out is None:
        render(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as stream:
            render(stream)


def _load_cli_topology(args: argparse.Namespace) -> Topology:
    text = _read_text(args.topology)
    monitors = None
    if args.monitors is not None:
        spec = args.monitors
        monitors = parse_monitor_names(_read_text(spec[1:]) if spec.startswith("@") else spec)
        if not monitors:
            raise ValueError("--monitors: empty node list")
    return load_topology(text, monitors=monitors)


def _load_cli_paths(args: argparse.Namespace, t: Topology) -> PathSet | None:
    if getattr(args, "paths", None) is None:
        return None
    return parse_paths(_read_text(args.paths), t)


def _load_batch_dict(raw: str) -> dict:
    text = _read_text(raw[1:]) if raw.startswith("@") else raw
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ValueError("batch spec must be a JSON object")
    return spec


def _meta(args: argparse.Namespace) -> ReportMeta:
    tokens: list[str] = []
    for name, value in vars(args).items():
        if name in _UNSTAMPED or value is None or value is False:
            continue
        if value is True:
            tokens.append(name)
        elif isinstance(value, tuple):
            rendered = ",".join(
                item.value if isinstance(item, Mechanism) else str(item) for item in value
            )
            tokens.append(f"{name}={rendered}")
        else:
            tokens.append(f"{name}={value}")
    return ReportMeta(seed=args.seed, flags=" ".join(sorted(tokens)))


def _refuse(args: argparse.Namespace, flags: tuple[str, ...], context: str) -> None:
    """Refuse the first of ``flags`` given on the command line: it does not apply."""
    for flag in flags:
        if getattr(args, flag) is not None and getattr(args, flag) is not False:
            raise ValueError(f"--{flag} does not apply {context}")


def _report(args: argparse.Namespace, build, **options) -> int:
    """Load the topology and paths, build the report, stamp its header and write it."""
    if Mechanism.UP not in args.mechanism:
        _refuse(args, ("paths",), "without the up mechanism")
    t = _load_cli_topology(args)
    a = Analysis(t, _load_cli_paths(args, t))
    return _write_report(build(a, args.mechanism, exact=args.exact, **options), args)


def _write_report(report, args: argparse.Namespace) -> int:
    report = report._replace(meta=_meta(args))
    _write_output(report.to_csv if args.format == "csv" else report.to_json, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    result = gen_er(args.n, args.p, args.seed)
    t = result.topology
    if args.mu is not None:
        t = place_monitors(t, args.mu, args.seed)
    _write_output(lambda stream: stream.write(format_topology(t)), args.out)
    if result.retries:
        print(f"note: {result.retries} disconnected draws rejected", file=sys.stderr)
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    return _report(args, analyze, group=args.set)


def _cmd_maxset(args: argparse.Namespace) -> int:
    if args.set is not None:
        _refuse(args, ("k",), "with --set")
        return _report(args, set_report, group=args.set)
    return _report(args, maxset_report, ks=None if args.k is None else [args.k])


def _cmd_ccdf(args: argparse.Namespace) -> int:
    if args.batch is None:
        _refuse(args, ("jobs",), "without --batch")
        if args.topology is None:
            raise ValueError("a topology file or a batch spec is required")
        return _report(args, ccdf)
    _refuse(args, ("topology", "monitors", "paths", "exact"), "with --batch")
    spec_dict = _load_batch_dict(args.batch)
    if "mechanisms" in spec_dict and args.mechanism is not _ALL_MECHANISMS:
        raise ValueError("--mechanism does not apply with a batch spec that sets 'mechanisms'")
    spec_dict.setdefault("mechanisms", [m.value for m in args.mechanism])
    if "seed" in spec_dict:
        _refuse(args, ("seed",), "with a batch spec that sets 'seed'")
    elif args.seed is not None:
        spec_dict["seed"] = args.seed
    spec = BatchSpec.from_dict(spec_dict)
    args.mechanism, args.seed = spec.mechanisms, spec.seed  # the header stamps what ran
    jobs = 1 if args.jobs is None else args.jobs
    return _write_report(ccdf_batch(spec, jobs=jobs), args)


def _cmd_verify(args: argparse.Namespace) -> int:
    # The battery is a topology, a spec, or the spec the given flags spell. A
    # flag that does not apply to the battery is refused, not dropped; then
    # each flag given must pass the battery spec row of its name.
    if args.topology is not None:
        _refuse(args, ("batch", "kind", "count", "seed"), "with --topology")
    else:
        _refuse(args, ("monitors",), "without --topology")
    given = [row for row in _COMMON_FIELDS + (_CHECKS_ROW,) if getattr(args, row[0]) is not None]
    flags = {row[0]: getattr(args, row[0]) for row in given}
    if args.batch is not None:
        _refuse(args, ("kind", "count", "seed", "checks"), "with --batch")
    spec = flags if args.batch is None else _load_batch_dict(args.batch)
    if spec.get("kind") == "cuts":
        _refuse(args, ("checks", "corrupt"), "to a cuts battery")
    for row in given:
        check_field(row, flags[row[0]], f"--{row[0]}")
    if args.topology is not None:
        t = _load_cli_topology(args)
        report = verify_topologies([t], flags.get("checks", ALL_CHECKS), corrupt=args.corrupt)
    else:
        report = verify_batch_spec(spec, corrupt=args.corrupt)
    _write_output(report.to_json, args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_oracle(args: argparse.Namespace) -> int:
    t = _load_cli_topology(args)
    if args.set is None and not t.non_monitors:
        raise ValueError("--set defaults to all non-monitors, but the topology has no non-monitors")
    ps = parse_paths(_read_text(args.paths), t)
    members = tuple(args.set) if args.set is not None else t.non_monitors
    if args.k is not None:
        answer = {"k": args.k, "identifiable": oracle_k_identifiable(ps, members, args.k)}
    else:
        answer = {"omega": oracle_omega(ps, members)}
    answer["set"] = sorted(set(members))
    _write_output(lambda stream: json_document(SCHEMA_ORACLE, stream=stream, **answer), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _add_common_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the report to this file instead of stdout")
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="report format (default csv)",
    )


def _add_topology_args(sub: argparse.ArgumentParser, *, required: bool = True) -> None:
    sub.add_argument(
        "--topology",
        required=required,
        help="edge-list file (one 'u v' per line; optional '# monitors:' header)",
    )
    sub.add_argument(
        "--monitors",
        help="monitor names, inline comma/space separated or @FILE",
    )


def _add_probing_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--paths", help="measurement path file (used by the up mechanism)")
    sub.add_argument(
        "--mechanism",
        type=_mechanism_list,
        default=_ALL_MECHANISMS,
        help="comma separated subset of cap,csp,up (default all)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="faultscope",
        description=(
            "Quantify how well a monitored network can localize node failures "
            "from boolean end-to-end path measurements."
        ),
    )
    parser.add_argument("--version", action="version", version=f"faultscope {VERSION}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a seeded connected random topology")
    gen.add_argument("--n", type=int, required=True, help="node count")
    gen.add_argument("--p", type=float, required=True, help="edge probability")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--mu", type=int, help="also place this many random monitors")
    gen.add_argument("--out", help="write the edge list here instead of stdout")
    gen.set_defaults(func=_cmd_gen)

    an = subs.add_parser("analyze", help="per-node identifiability report")
    _add_topology_args(an)
    _add_probing_args(an)
    an.add_argument("--set", type=_name_list, help="also report bounds for this node set")
    an.add_argument("--exact", action="store_true", help="oracle-exact values (small instances)")
    an.add_argument("--seed", type=int, help="stamped into the report header")
    _add_common_output(an)
    an.set_defaults(func=_cmd_analyze)

    mx = subs.add_parser("maxset", help="maximal k-identifiable sets")
    _add_topology_args(mx)
    _add_probing_args(mx)
    mx.add_argument("--k", type=int, help="single k (default: every k in 1..sigma)")
    mx.add_argument("--set", type=_name_list, help="report the index bounds of this set instead")
    mx.add_argument("--exact", action="store_true", help="oracle-exact sets (small instances)")
    mx.add_argument("--seed", type=int, help="stamped into the report header")
    _add_common_output(mx)
    mx.set_defaults(func=_cmd_maxset)

    cc = subs.add_parser("ccdf", help="fraction of k-identifiable nodes per k")
    _add_topology_args(cc, required=False)
    _add_probing_args(cc)
    cc.add_argument(
        "--batch",
        help="JSON batch spec (inline or @FILE): count, n, p, mus, seed[, mechanisms]",
    )
    cc.add_argument("--jobs", type=int, help="parallel workers for batch mode (default 1)")
    cc.add_argument("--exact", action="store_true", help="oracle-exact curve (small instances)")
    cc.add_argument("--seed", type=int, help="batch seed fallback / report header")
    _add_common_output(cc)
    cc.set_defaults(func=_cmd_ccdf)

    vf = subs.add_parser("verify", help="closed-form results vs brute-force oracle")
    _add_topology_args(vf, required=False)
    vf.add_argument("--batch", help="JSON battery spec (inline or @FILE)")
    vf.add_argument("--kind", help="battery kind, er or cuts, without topology/batch (default er)")
    vf.add_argument("--count", type=int, help="battery instance count (default 50)")
    vf.add_argument("--seed", type=int, help="battery seed (default 0)")
    vf.add_argument(
        "--checks", type=_split, help="comma separated subset of cap,csp,up,sets (default all)"
    )
    vf.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    vf.add_argument("--out", help="write the JSON report here instead of stdout")
    vf.set_defaults(func=_cmd_verify)

    orc = subs.add_parser("oracle", help="definitional brute-force answers on a path file")
    _add_topology_args(orc)
    orc.add_argument("--paths", required=True, help="measurement path file")
    orc.add_argument("--set", type=_name_list, help="node set (default: all non-monitors)")
    orc.add_argument("--k", type=int, help="test k-identifiability instead of computing omega")
    orc.add_argument("--out", help="write the JSON answer here instead of stdout")
    orc.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, no_file in _NO_FILE.items():  # refused before any file is read or written
            if getattr(args, flag, None) == no_file:
                raise ValueError(f"--{flag}: empty file name")
        if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
            raise ValueError(f"--out: not a file in an existing directory: {args.out}")
        return args.func(args)
    except (
        TopologyError,
        GenerationError,
        EnumerationCapError,
        OracleCapError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
