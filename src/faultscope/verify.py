"""Oracle-vs-theorem verification batteries.

Every battery draws seeded random instances, computes the closed-form
results, and checks them against the definitional brute-force oracle. A
battery never hides a violation: each mismatch is recorded with the
instance's generation parameters so it can be replayed exactly.
"""

from __future__ import annotations

import math
import random
from itertools import permutations
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .cuts import CutNetwork, two_connected
from .errors import GenerationError
from .identify import Analysis, Mechanism, threshold_sweep
from .oracle import DEFAULT_MAX_CUT_NODES, brute_vertex_cut, check_universe_size, oracle_msc
from .probing import DEFAULT_MAX_ENUM_NODES
from .randomnet import (
    DEFAULT_MAX_NODES, _is_edge_probability, _is_int, _is_list_of, _is_number, check_field,
    gen_er, place_monitors, random_graph, read_fields,
)
from .reports import json_document
from .topology import Topology

SCHEMA_VERIFY = "faultscope/verify v1"

ALL_CHECKS = ("cap", "csp", "up", "sets")


def _range_row(name: str, default: tuple, what: str, ok) -> tuple:
    return (
        name,
        default,
        f"a list of two {what}",
        lambda v: _is_list_of(v, ok) and len(v) == 2 and v[0] <= v[1],
    )


def _n_range_row(default: tuple[int, int], least: int, most: int) -> tuple:
    what = f"integers, low to high, low >= {least}, high <= {most}"
    return _range_row("n_range", default, what, lambda n: _is_int(n) and least <= n <= most)


#: (field, default, what it must be, test) for every field a battery spec of
#: each kind may set, in field order. ``kind`` is read first: it selects the
#: table. The ``verify`` flags of the same names are judged by these rows too.
_COMMON_FIELDS = (
    ("kind", "er", "one of er, cuts", lambda v: v in ("er", "cuts")),
    ("count", 50, "an integer >= 0", lambda v: _is_int(v) and v >= 0),
    ("seed", 0, "an integer", _is_int),
)
_CHECKS_ROW = (
    "checks",
    ALL_CHECKS,
    f"a non-empty list of check names from {', '.join(ALL_CHECKS)}",
    lambda v: _is_list_of(v, lambda c: c in ALL_CHECKS) and len(v) > 0,
)
_BATTERY_FIELDS = {
    "cuts": _COMMON_FIELDS + (
        _n_range_row((2, 8), 1, DEFAULT_MAX_CUT_NODES),
        _range_row(
            "p_range",
            (0.1, 0.9),
            "numbers in [0, 1], low to high",
            lambda p: _is_number(p) and 0 <= p <= 1,
        ),
    ),
    "er": _COMMON_FIELDS + (
        _n_range_row((5, 10), 2, DEFAULT_MAX_ENUM_NODES),
        _range_row("p_range", (0.3, 0.55), "numbers in (0, 1], low to high", _is_edge_probability),
        (
            "monitor_counts",
            (2, 3),
            "a non-empty list of integers >= 1",
            lambda v: _is_list_of(v, lambda m: _is_int(m) and m >= 1) and len(v) > 0,
        ),
        _CHECKS_ROW,
    ),
}


class CheckFailure(NamedTuple):
    instance: str
    check: str
    detail: str


class VerificationReport(NamedTuple):
    instances: int
    checks: int
    failures: tuple[CheckFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self, stream: TextIO | None = None) -> str | None:
        return json_document(
            SCHEMA_VERIFY,
            stream=stream,
            instances=self.instances,
            checks=self.checks,
            ok=self.ok,
            failures=[f._asdict() for f in self.failures],
        )


def er_battery(
    count: int,
    seed: int,
    *,
    n_range: tuple[int, int] = (5, 10),
    p_range: tuple[float, float] = (0.3, 0.55),
    monitor_counts: Sequence[int] = (2, 3),
) -> list[Topology]:
    """Seeded list of small connected monitored ER instances. Each argument
    must pass its ``er`` spec row, but n may reach ``gen_er``'s cap."""
    rows = list(_BATTERY_FIELDS["er"][1:6])
    rows[2] = _n_range_row((5, 10), 2, DEFAULT_MAX_NODES)
    for row, value in zip(rows, (count, seed, n_range, p_range, monitor_counts), strict=True):
        check_field(row, value, row[0])
    return list(_er_instances(count, seed, n_range, p_range, monitor_counts))


def _er_instances(count: int, seed: int, n_range, p_range, monitor_counts) -> Iterator[Topology]:
    """The instances of ``er_battery``, each drawn when the one before it is done with."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(*n_range)
        p = rng.uniform(*p_range)
        mu = rng.choice(list(monitor_counts))
        try:
            base = gen_er(n, p, seed * 31 + i).topology
        except GenerationError:
            what = f"no connected graph on {n} nodes at p={p}, drawn from batch spec field 'p_range'"
            raise GenerationError(f"er[{i}]: {what}") from None
        yield place_monitors(base, min(mu, n - 1), seed * 37 + i)


def _instance_name(index: int, t: Topology) -> str:
    return f"er[{index}] n={len(t.nodes)} mu={t.mu} xi={t.xi}"


def verify_topologies(
    tops: Iterable[Topology],
    checks: Sequence[str] = ALL_CHECKS,
    *,
    corrupt: bool = False,
) -> VerificationReport:
    """Run the closed-form-vs-oracle checks on every given topology.

    ``cap``: the cut formula equals the oracle index exactly.
    ``csp``: the bound interval contains the oracle index; exact branches
    match it; the general case is never wider than one.
    ``up``: the oracle index sits in [MSC-1, MSC] and the greedy cover obeys
    its logarithmic guarantee.
    ``sets``: for every k and mechanism, the inner/outer maximal-set
    approximations sandwich the oracle's exact set.

    ``corrupt`` deliberately breaks the first CAP value; a battery that
    does not report that as a failure is itself broken (self-test hook).
    ``checks`` must pass the battery spec's ``checks`` row.
    """
    check_field(_CHECKS_ROW, checks, "checks")
    failures: list[CheckFailure] = []
    nchecks = 0
    ninstances = 0
    for index, t in enumerate(tops):
        ninstances += 1
        name = _instance_name(index, t)
        a = Analysis(t)

        def fail(check: str, detail: str) -> None:
            failures.append(CheckFailure(name, check, detail))

        wanted = [m for m in Mechanism if m.value in checks]
        for mech, table in a.tables(wanted, refine_single=False).items():
            target = a.oracle(mech)
            for v in t.non_monitors:
                nchecks += 1
                omega, got = target[v], table[v]
                if mech is Mechanism.CSP:
                    if not got.contains(omega):
                        fail("csp-sandwich", f"{v}: oracle {omega} outside [{got.lo}, {got.hi}]")
                    elif not got.exact and got.hi - got.lo > 1:
                        fail(
                            "csp-width",
                            f"{v}: general-case interval [{got.lo}, {got.hi}] wider than one",
                        )
                elif mech is Mechanism.CAP:
                    cut = got.lo
                    if corrupt and index == 0 and v == t.non_monitors[0]:
                        cut += 1
                    if cut != omega:
                        fail("cap-exact", f"{v}: closed form {cut} != oracle {omega}")
                else:
                    # omega_up's upper bound is the greedy cover size
                    ps, greedy = a.paths, got.hi
                    msc = oracle_msc(ps, v)
                    if not max(msc - 1, 0) <= omega <= msc:
                        fail("up-sandwich", f"{v}: oracle {omega} outside [{msc - 1}, {msc}]")
                    pv = ps.incidence_masks[v].bit_count()
                    limit = (
                        msc
                        if pv == 0 or v in ps.directly_measured
                        else math.ceil((math.log(pv) + 1.0) * msc)
                    )
                    if not msc <= greedy <= limit:
                        fail(
                            "up-greedy",
                            f"{v}: GSC {greedy} outside [MSC {msc}, guarantee {limit}]",
                        )

        if "sets" in checks:
            for mech in Mechanism:
                omega = a.oracle(mech)
                for k, bounds in enumerate(threshold_sweep(a.table(mech), t.sigma), start=1):
                    nchecks += 1
                    exact_set = frozenset(v for v, w in omega.items() if w >= k)
                    if not (bounds.inner <= exact_set <= bounds.outer):
                        fail(
                            f"sets-{mech.value}",
                            f"k={k}: inner {sorted(bounds.inner)} / oracle "
                            f"{sorted(exact_set)} / outer {sorted(bounds.outer)}",
                        )
    return VerificationReport(ninstances, nchecks, tuple(failures))


def verify_cut_engine(
    count: int,
    seed: int,
    *,
    n_range: tuple[int, int] = (2, 8),
    p_range: tuple[float, float] = (0.1, 0.9),
) -> VerificationReport:
    """Max-flow cut engine vs exhaustive cut search on all node pairs.

    Each graph gets one :class:`CutNetwork`, and every ordered pair runs
    through it twice: unbounded, against the brute-force cut, and bounded by
    a limit cycling through 0..|V|-1, against min(brute, limit). The queries
    interleave on the one network, so residual flow leaking from one query
    into the next, or a bounded query stopping at a wrong value, fails a
    check. ``two_connected`` (a 2-bounded query on a network of its own)
    must agree with brute cut >= 2. Each argument must pass its ``cuts`` spec row.
    """
    for row, value in zip(_BATTERY_FIELDS["cuts"][1:], (count, seed, n_range, p_range)):
        check_field(row, value, row[0])
    rng = random.Random(seed)
    failures: list[CheckFailure] = []
    nchecks = 0
    for i in range(count):
        n = rng.randint(*n_range)
        p = rng.uniform(*p_range)
        g = random_graph(n, p, seed * 101 + i)
        name = f"graph[{i}] n={n} p={p:.3f}"
        net = CutNetwork(g)

        def fail(check: str, detail: str) -> None:
            failures.append(CheckFailure(name, check, detail))

        for j, (s, t) in enumerate(permutations(g.nodes, 2)):
            nchecks += 3
            slow = brute_vertex_cut(g, s, t)
            fast = net.cut_size(s, t)
            if fast != slow:
                fail("cut-equal", f"({s},{t}): flow {fast} != brute {slow}")
            limit = j % n
            bounded = net.cut_size(s, t, limit)
            if bounded != min(slow, limit):
                fail("cut-bounded", f"({s},{t}): flow limited to {limit} gave {bounded}, brute {slow}")
            if two_connected(g, s, t) != (slow >= 2):
                fail("two-connected", f"({s},{t}): biconnectivity disagrees with cut {slow}")
    return VerificationReport(count, nchecks, tuple(failures))


def verify_batch_spec(spec: dict, *, corrupt: bool = False) -> VerificationReport:
    """Run the battery described by a small declarative dict.

    ``kind`` selects the battery: ``er`` (default) draws monitored connected
    instances and runs the closed-form-vs-oracle checks; ``cuts`` exercises
    the cut engine alone. Its ``_BATTERY_FIELDS`` rows give every field.
    An unknown field, or one of the wrong JSON type or out of range, raises
    a ValueError that names it, as does ``corrupt`` (the self-test hook that
    breaks a CAP value) for a ``cuts`` battery. An ``er`` spec whose largest
    universe would pass the oracle's cap raises OracleCapError before any
    instance is drawn.
    """
    kind = check_field(_COMMON_FIELDS[0], spec.get("kind", "er"), "batch spec field 'kind'")
    f = read_fields(spec, _BATTERY_FIELDS[kind])
    p_range = (float(f["p_range"][0]), float(f["p_range"][1]))
    if kind == "cuts":
        if corrupt:
            raise ValueError("corrupt does not apply to a cuts battery")
        return verify_cut_engine(f["count"], f["seed"], n_range=f["n_range"], p_range=p_range)
    # er_battery places min(mu, n - 1) monitors: the top of n_range and the
    # fewest monitors give the largest universe, refused before any draw
    hi = f["n_range"][1]
    check_universe_size(hi - min(min(f["monitor_counts"]), hi - 1))
    tops = _er_instances(f["count"], f["seed"], f["n_range"], p_range, tuple(f["monitor_counts"]))
    return verify_topologies(tops, tuple(f["checks"]), corrupt=corrupt)
