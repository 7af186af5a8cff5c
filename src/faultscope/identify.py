"""Identifiability indices, k-identifiability tests and maximal identifiable sets.

A set S of non-monitors is k-identifiable when any two failure scenarios of
at most k nodes that differ inside S disrupt different measurement paths;
its index Omega(S) is the largest such k, and Omega(S) is always the minimum
of its members' per-node indices. This module computes those quantities per
probing mechanism without enumerating failure sets:

* CAP: exact. The per-node index equals the minimum vertex cut between the
  node and the virtual monitor in the star graph (build_star).
* CSP: cut conditions on the star graph and on each minus-monitor graph give
  a sufficient and a necessary bound one apart, with the two near-full-failure
  regimes resolved exactly (see :func:`omega_csp` for why the paper's other
  special cases need no rule of their own).
* UP: set-cover bounds. The minimum cover of a node's paths by the other
  nodes' paths brackets the index within one; the greedy cover size with the
  standard logarithmic guarantee gives computable bounds at any scale.

Each instance's per-node tables live in one :class:`Analysis`, built on
first use: the bounds per mechanism and the exact single-failure verdicts
per mechanism. A set index is a minimum over a bounds table, a maximal set a
threshold of one, and :func:`k_identifiable` holds the members' folded raw
bounds against k, or at k == 1 under CSP and UP reads their single-failure
verdicts. The functions take an :class:`Analysis`, whose tables they read,
or a topology, analysed afresh; nothing is cached across calls. A UP query
reads the path set the :class:`Analysis` was built with or, without one, the
paths the routing protocol picks (:func:`~faultscope.probing.route_up`).

The brute-force oracle (:mod:`faultscope.oracle`) is the ground truth these
results are validated against. Its per-node indices are one more table of
the :class:`Analysis`, built only when asked for (exact reports and the
verification batteries); nothing else here consults the oracle.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from . import oracle as _oracle
from .cuts import CutNetwork
from .probing import PathSet, enumerate_cap, enumerate_csp, route_up
from .topology import (
    VIRTUAL_MONITOR,
    Record,
    Topology,
    build_extended,
    build_star,
    check_k,
    check_members,
)


class Mechanism(str, enum.Enum):
    """The three probing regimes, ordered most to least capable."""

    CAP = "cap"
    CSP = "csp"
    UP = "up"


class Status(enum.Enum):
    IDENTIFIABLE = "identifiable"
    NOT_IDENTIFIABLE = "not-identifiable"
    UNDETERMINED = "undetermined"


class TriState(NamedTuple):
    """A yes/no/unknown verdict plus the rule that decided it."""

    status: Status
    rule: str

    @property
    def is_identifiable(self) -> bool:
        return self.status is Status.IDENTIFIABLE

    @property
    def is_undetermined(self) -> bool:
        return self.status is Status.UNDETERMINED


class IntBounds(Record):
    """An integer interval [lo, hi] around an identifiability index."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        if not (0 <= lo <= hi):
            raise ValueError(f"invalid bounds [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    @classmethod
    def exactly(cls, value: int) -> "IntBounds":
        return cls(value, value)


class CspInternals(Record):
    """The two cut quantities the CSP results are stated in.

    ``delta_star``: cut to the virtual monitor in the star graph.
    ``delta_min``: the worst such cut over the minus-monitor graphs.
    ``pi``: the combined bound min(delta_min, delta_star - 1).
    """

    __slots__ = _fields = ("delta_star", "delta_min")

    def __init__(self, delta_star: int, delta_min: int) -> None:
        if delta_min > delta_star:
            raise ValueError("delta_min can never exceed delta_star")
        self.delta_star, self.delta_min = delta_star, delta_min

    @property
    def pi(self) -> int:
        return min(self.delta_min, self.delta_star - 1)


class SetBounds(Record):
    """Inner/outer approximations of a maximal k-identifiable set."""

    __slots__ = _fields = ("inner", "outer")

    def __init__(self, inner: Iterable[str], outer: Iterable[str]) -> None:
        self.inner, self.outer = frozenset(inner), frozenset(outer)
        if not self.inner <= self.outer:
            raise ValueError("inner approximation must be contained in the outer one")

    @property
    def exact(self) -> bool:
        return self.inner == self.outer


def fold_bounds(table: Mapping[str, IntBounds], members: Iterable[str]) -> IntBounds:
    """Index bounds of a set: the member-wise minimum of a per-node table."""
    bounds = [table[v] for v in members]
    return IntBounds(min(b.lo for b in bounds), min(b.hi for b in bounds))


def threshold_sweep(table: Mapping[str, IntBounds], sigma: int) -> tuple[SetBounds, ...]:
    """Maximal k-identifiable set approximations for every k in 1..sigma,
    entry k - 1 for k: the nodes whose lower (inner) or upper (outer) bound
    reaches k. The sets only grow as k falls, so one sweep from k = sigma
    down adds each node at its own bound; a k at which no node joins shares
    the previous entry."""
    by_lo: list[list[str]] = [[] for _ in range(sigma + 1)]
    by_hi: list[list[str]] = [[] for _ in range(sigma + 1)]
    for v, b in table.items():
        by_lo[min(b.lo, sigma)].append(v)
        by_hi[min(b.hi, sigma)].append(v)
    sets, out = SetBounds(frozenset(), frozenset()), []
    for k in range(sigma, 0, -1):
        if by_lo[k] or by_hi[k]:
            sets = SetBounds(sets.inner.union(by_lo[k]), sets.outer.union(by_hi[k]))
        out.append(sets)
    return tuple(reversed(out))


def _verdict(bounds: IntBounds, k: int, rules: str | tuple[str, str, str]) -> TriState:
    # A folded bound held against k. ``rules`` names the identifiable,
    # not-identifiable and undetermined verdicts, or is one name for all three.
    yes, no, gap = (rules,) * 3 if isinstance(rules, str) else rules
    if bounds.lo >= k:
        return TriState(Status.IDENTIFIABLE, yes)
    if bounds.hi < k:
        return TriState(Status.NOT_IDENTIFIABLE, no)
    return TriState(Status.UNDETERMINED, gap)


# ---------------------------------------------------------------------------
# the analysis context


class Analysis:
    """The per-node tables of one (topology, UP path set), each built once in
    any query order: the CAP and CSP cut tables, the single-failure verdicts,
    the raw bounds per mechanism (refined too for CSP and UP) and, only when
    asked for, the oracle's exact indices. Pass it wherever a function takes
    a topology; every reader shares the tables, which it hands out read-only.
    """

    def __init__(self, t: Topology, ps: PathSet | None = None) -> None:
        t.require_monitored()
        if ps is not None and ps.universe != t.non_monitors:
            raise ValueError("path set universe does not match the topology's non-monitors")
        self.t = t
        self.ps = ps
        self._tables: dict[tuple[Mechanism, bool], dict[str, IntBounds]] = {}
        self._single: dict[Mechanism, Mapping[str, TriState]] = {}
        self._oracle: dict[Mechanism, dict[str, int]] = {}

    @property
    def paths(self) -> PathSet:
        """The UP path set: the one given, else :func:`route_up`'s, routed on first use."""
        if self.ps is None:
            self.ps = route_up(self.t)
        return self.ps

    @cached_property
    def cap(self) -> Mapping[str, int]:
        """The CAP cut table (see :func:`cap_values`), or the ``delta_star``
        column of the CSP table when that is built: the same star cuts."""
        if "csp" in self.__dict__:
            return MappingProxyType({v: c.delta_star for v, c in self.csp.items()})
        return cap_values(self)

    @cached_property
    def csp(self) -> Mapping[str, CspInternals]:
        """The CSP cut table (see :func:`csp_internals_all`)."""
        return csp_internals_all(self)

    def single(self, mechanism: Mechanism) -> Mapping[str, TriState]:
        """Per non-monitor, whether the mechanism localizes its single failure,
        built on first use; a failing verdict's rule names the witness."""
        mechanism = Mechanism(mechanism)
        if mechanism not in self._single:
            if mechanism is Mechanism.CAP:
                table = dict.fromkeys(self.t.non_monitors, _ANY_MONITOR)
            elif mechanism is Mechanism.CSP:
                table = _csp_single_failure_nodes(self)
            else:
                table = _single_failure_by_mask(self.paths)
            self._single[mechanism] = table
        return MappingProxyType(self._single[mechanism])

    def table(self, mechanism: Mechanism, *, refine_single: bool = True) -> Mapping[str, IntBounds]:
        """The per-node bounds table, built by :func:`per_node_bounds` on first
        use. CAP has one table: no single-failure test refines it."""
        mechanism = Mechanism(mechanism)
        key = (mechanism, refine_single and mechanism is not Mechanism.CAP)
        if key not in self._tables:
            self._tables[key] = per_node_bounds(self, mechanism, refine_single=key[1])
        return MappingProxyType(self._tables[key])

    def tables(
        self, mechanisms: Iterable[Mechanism], *, refine_single: bool = True
    ) -> dict[Mechanism, Mapping[str, IntBounds]]:
        """Each mechanism's :meth:`table`, in the order given. CSP's is built
        before CAP's: the CSP star pass gives the CAP cuts too."""
        mechs = tuple(map(Mechanism, mechanisms))
        for m in sorted(mechs, key=Mechanism.CAP.__eq__):
            self.table(m, refine_single=refine_single)
        return {m: self.table(m, refine_single=refine_single) for m in mechs}

    def oracle(self, mechanism: Mechanism) -> Mapping[str, int]:
        """Per-node exact indices from the brute-force oracle, over the paths
        the mechanism is judged on: the UP path set, or every achievable CSP
        or CAP trace, kept as bitmasks (no name set is made). The oracle's
        universe cap is checked before any path is enumerated."""
        mechanism = Mechanism(mechanism)
        if mechanism not in self._oracle:
            _oracle.check_universe_size(self.t.sigma)
            if mechanism is Mechanism.UP:
                ps = self.paths
            elif mechanism is Mechanism.CSP:
                ps = enumerate_csp(self.t)
            else:
                ps = enumerate_cap(self.t)
            self._oracle[mechanism] = _oracle.oracle_omega_all(ps)
        return MappingProxyType(self._oracle[mechanism])


def _node(t: Topology | Analysis, v: str) -> Analysis:
    """The context of a single-node query, with ``v`` checked against it."""
    a = _analysis(t)
    check_members(a.t.non_monitor_set, [v])
    return a


def _analysis(t: Topology | Analysis) -> Analysis:
    return t if isinstance(t, Analysis) else Analysis(t)


def cap_values(t: Topology | Analysis) -> Mapping[str, int]:
    """Per-node CAP index: cut to the virtual monitor in the star graph."""
    a = _analysis(t)
    star = CutNetwork(build_star(a.t))
    return MappingProxyType({v: star.cut_size(v, VIRTUAL_MONITOR) for v in a.t.non_monitors})


def csp_internals_all(t: Topology | Analysis) -> Mapping[str, CspInternals]:
    """CSP cut quantities for every non-monitor at once, on one star network.

    The minus-monitor graph of m is the star graph with the links to N_m, the
    nodes whose only monitor neighbor is m, closed. A node off the virtual
    monitor runs its star flow once; its minus cut differs from delta_star
    only if a flow path enters through N_m, and is then continued from that
    residual, up to the running minimum. A monitor neighbor's cut is |V| - 1
    except in its only monitor's graph, one query of its own.
    """
    a = _analysis(t)
    vm, adj, monitors = VIRTUAL_MONITOR, a.t.adjacency, a.t.monitors
    only = {
        w: ms[0]
        for w in sorted(a.t.monitor_neighbors)
        if len(ms := [m for m in adj[w] if m in monitors]) == 1
    }
    closed: dict[str, list[str]] = {}  # m -> N_m
    for w, m in only.items():
        closed.setdefault(m, []).append(w)
    star = CutNetwork(build_star(a.t))
    out: dict[str, CspInternals] = {}
    for v in a.t.non_monitors:
        if v in a.t.monitor_neighbors:
            delta_star = delta_min = a.t.sigma
            if v in only:
                delta_min = star.max_flow(v, vm, closed=closed[only[v]])[0]
        else:
            delta_star, residual = star.max_flow(v, vm)
            delta_min = delta_star
            for m in sorted({only[w] for w in star.inflow(residual, vm) if w in only}):
                flow = star.max_flow(v, vm, delta_min, residual=residual, closed=closed[m])[0]
                delta_min = min(delta_min, flow)
        out[v] = CspInternals(delta_star, delta_min)
    return MappingProxyType(out)


_ANY_MONITOR = TriState(Status.IDENTIFIABLE, "any-monitor-reachable")
_SINGLE_FAILURE = TriState(Status.IDENTIFIABLE, "single-failure-test")


def _not_single(reason: str) -> TriState:
    return TriState(Status.NOT_IDENTIFIABLE, f"single-failure-test:{reason}")


def _csp_single_failure_nodes(t: Topology | Analysis) -> dict[str, TriState]:
    # Exact single-failure identifiability under CSP, from the extended graph:
    # v qualifies when (a) v is two-connected to the virtual monitor and (b)
    # for every other non-monitor w, v stays two-connected with w removed or
    # w stays two-connected with v removed (otherwise {v} and {w} can disrupt
    # identical path sets: the first such w is the witness). A 3-bounded flow
    # per node sorts them: below 2 fails (a), 3 survives any single removal
    # and passes (b). For a node of cut 2 the flow's residual names the nodes
    # whose removal cuts it (those in some minimum cut), so (b) fails exactly
    # for the w in v's set with v in w's.
    a = _analysis(t)
    net = CutNetwork(build_extended(a.t))
    cut: dict[str, int] = {}
    cutters: dict[str, set[str]] = {}
    for v in a.t.non_monitors:
        cut[v], residual = net.max_flow(v, VIRTUAL_MONITOR, 3)
        if cut[v] == 2:
            cutters[v] = net.cut_nodes(residual, v, VIRTUAL_MONITOR)
    table: dict[str, TriState] = {}
    for v in a.t.non_monitors:
        if cut[v] < 2:
            table[v] = _not_single(f"not-two-connected:{v}")
            continue
        w = next((w for w in cutters if w in cutters.get(v, ()) and v in cutters[w]), None)
        table[v] = _SINGLE_FAILURE if w is None else _not_single(f"confusable-pair:{v}~{w}")
    return table


def _single_failure_by_mask(ps: PathSet) -> dict[str, TriState]:
    # v's single failure is localizable iff some path sees v and no other
    # node disrupts exactly the same paths; the first such node is the witness.
    masks = ps.incidence_masks
    alike: dict[int, list[str]] = {}
    for v in ps.universe:
        alike.setdefault(masks[v], []).append(v)
    table: dict[str, TriState] = {}
    for v in ps.universe:
        if masks[v] == 0:
            table[v] = _not_single(f"no-path:{v}")
            continue
        w = next((w for w in alike[masks[v]] if w != v), None)
        table[v] = _SINGLE_FAILURE if w is None else _not_single(f"confusable-pair:{v}~{w}")
    return table


# ---------------------------------------------------------------------------
# CAP


def omega_cap(t: Topology | Analysis, v: str) -> IntBounds:
    """Exact per-node index under unconstrained walk probing."""
    return IntBounds.exactly(_node(t, v).cap[v])


# ---------------------------------------------------------------------------
# CSP


def csp_internals(t: Topology | Analysis, v: str) -> CspInternals:
    """The cut pair (delta_star, delta_min) behind the CSP results for ``v``."""
    return _node(t, v).csp[v]


def omega_csp(t: Topology | Analysis, v: str) -> IntBounds:
    """Per-node index under simple-path probing, in three cases: (1) two
    monitor neighbors give sigma; (2) delta_min == sigma - 1 and delta_star
    == sigma give sigma - 1 if every other non-monitor has two monitor
    neighbors (the near-complete neighborhood), else sigma - 2; (3)
    otherwise the index is pinned to [pi - 1, pi].

    A monitor neighbor's star cut is |V| - 1 = sigma, any other node's at
    most its sigma - 1 non-monitor neighbors. So the paper's other two cases
    add nothing: delta_min == sigma only with two monitor neighbors, (1);
    a star cut of 1 makes pi = 0, so (3) gives [0, 0]. And (2) needs a
    monitor neighbor and, that link closed, a link to every other non-monitor.
    """
    a = _node(t, v)
    ints, t, sigma = a.csp[v], a.t, a.t.sigma
    if t.monitor_degree(v) >= 2:
        return IntBounds.exactly(sigma)
    if ints.delta_min == sigma - 1 and ints.delta_star == sigma:
        near = all(t.monitor_degree(w) >= 2 for w in t.non_monitors if w != v)
        return IntBounds.exactly(sigma - 1 if near else sigma - 2)
    return IntBounds(max(ints.pi - 1, 0), ints.pi)


# ---------------------------------------------------------------------------
# single-failure exact tests


def one_identifiable(
    t: Topology | Analysis, group: Iterable[str], mechanism: Mechanism
) -> TriState:
    """Exact 1-identifiability of ``group`` under the given mechanism.

    Never undetermined. Under CAP any connected monitored topology
    qualifies; under CSP the answer comes from flows in the extended graph
    and the minimum cuts their residuals hold; under UP it compares path
    incidence over :attr:`Analysis.paths`. Each member's verdict is read off
    :meth:`Analysis.single`; the first failing one decides, but one not
    two-connected to the monitors decides before any confusable pair.
    """
    a = _analysis(t)
    members = check_members(a.t.non_monitor_set, group)
    return _single_group(a, members, Mechanism(mechanism))


def _single_group(a: Analysis, members: tuple[str, ...], mechanism: Mechanism) -> TriState:
    table = a.single(mechanism)
    verdicts = (table[v] for v in members)
    return min(verdicts, key=lambda r: (r.is_identifiable, ":not-two-connected:" not in r.rule))


# ---------------------------------------------------------------------------
# UP


def gsc(ps: PathSet, v: str) -> int:
    """Greedy cover size of v's paths by the other nodes' path sets.

    Each round picks the node covering the most still-uncovered paths, ties
    broken by name. By convention the result is sigma when some path sees
    only v (covering infeasible) and 0 when no path sees v. Only a node on
    one of v's paths can cover any, so only those are scanned, one per path set.
    """
    masks = ps.incidence_masks
    check_members(masks, [v])
    mask = masks[v]
    if mask == 0:
        return 0
    if v in ps.directly_measured:
        return len(ps.universe)
    uncovered = mask
    count = 0
    sharing = 0
    while mask:
        sharing |= ps.trace_masks[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
    found = ps.names(sharing)
    found.remove(v)
    # nodes with one path set score alike, and max keeps the first maximal
    candidates = dict.fromkeys(map(masks.__getitem__, found))
    while uncovered:
        best = max(candidates, key=lambda w_mask: (w_mask & uncovered).bit_count())
        assert best & uncovered, "every remaining path must carry another node"
        uncovered &= ~best
        count += 1
    return count


def omega_up(ps: PathSet, v: str) -> IntBounds:
    """Per-node index under routing-determined probing.

    A node no path sees has index 0; a node some path sees alone has the
    full index sigma. Otherwise the index sits within one of the minimum
    cover size, and the bounds derive it from the greedy cover and its
    logarithmic guarantee.
    """
    greedy = gsc(ps, v)
    if greedy == 0 or v in ps.directly_measured:
        return IntBounds.exactly(greedy)
    lo = math.ceil(greedy / (math.log(ps.incidence_masks[v].bit_count()) + 1.0)) - 1
    return IntBounds(max(lo, 0), greedy)


def k_identifiable(
    t: Topology | Analysis, group: Iterable[str], k: int, mechanism: Mechanism
) -> TriState:
    """k-identifiability of ``group``: its members' folded raw bounds against k.

    CAP bounds are exact, so the verdict is definite. CSP bounds are exact at
    k == sigma and sigma - 1, UP bounds at k == sigma; below those, k == 1
    reads the exact single-failure verdicts (as :func:`one_identifiable`),
    and in between the cut or cover bounds can leave the verdict undetermined.
    """
    a = _analysis(t)
    members = check_members(a.t.non_monitor_set, group)
    mechanism = Mechanism(mechanism)
    sigma = a.t.sigma
    check_k(k, sigma)
    if mechanism is Mechanism.CAP:
        rules: str | tuple[str, str, str] = "star-cut"
    elif mechanism is Mechanism.CSP and k == sigma:
        rules = "all-two-monitor-neighbors"
    elif mechanism is Mechanism.CSP and k == sigma - 1:
        rules = "near-complete-neighborhood"
    elif k == 1 and sigma > 1:
        return _single_group(a, members, mechanism)
    elif mechanism is Mechanism.CSP:
        rules = ("cut-sufficient", "cut-necessary", "cut-gap")
    elif k == sigma:
        rules = "all-directly-measured"
    else:
        rules = ("cover-sufficient", "cover-necessary", "cover-gap")
    return _verdict(fold_bounds(a.table(mechanism, refine_single=False), members), k, rules)


# ---------------------------------------------------------------------------
# per-node tables, set queries, maximal sets


def per_node_bounds(
    t: Topology | Analysis, mechanism: Mechanism, *, refine_single: bool = True
) -> dict[str, IntBounds]:
    """Index bounds for every non-monitor under one mechanism.

    With ``refine_single`` (the default for set-level queries) any bound of
    the form [0, hi>=1] is settled by the exact single-failure test: the
    node either is 1-identifiable (lower bound lifts to 1) or is not (the
    index is exactly 0). Per-node report rows use ``refine_single=False`` to
    show the raw theorem bounds. The result is always a fresh dict.
    """
    a = _analysis(t)
    mechanism = Mechanism(mechanism)
    if refine_single and mechanism is not Mechanism.CAP:
        out = dict(a.table(mechanism, refine_single=False))
        single = a.single(mechanism)
        for v, b in out.items():
            if b.lo == 0 and b.hi >= 1:
                out[v] = IntBounds(1, b.hi) if single[v].is_identifiable else IntBounds.exactly(0)
        return out
    if mechanism is Mechanism.CAP:
        return {v: IntBounds.exactly(value) for v, value in a.cap.items()}
    if mechanism is Mechanism.CSP:
        return {v: omega_csp(a, v) for v in a.t.non_monitors}
    return {v: omega_up(a.paths, v) for v in a.t.non_monitors}


def omega_set(t: Topology | Analysis, group: Iterable[str], mechanism: Mechanism) -> IntBounds:
    """Index bounds for a set: the member-wise minimum of the per-node bounds."""
    a = _analysis(t)
    members = check_members(a.t.non_monitor_set, group)
    return fold_bounds(a.table(mechanism), members)


def max_identifiable_set(t: Topology | Analysis, k: int, mechanism: Mechanism) -> SetBounds:
    """Inner/outer approximations of the maximal k-identifiable set.

    Thresholding the per-node bounds reproduces every special exact case:
    CAP is always exact, CSP is exact at k of sigma and sigma-1 (the
    two-monitor-neighbor and near-complete-neighborhood rules live in the
    per-node values), UP is exact at sigma, and the folded single-failure
    test makes k = 1 exact for every mechanism.
    """
    a = _analysis(t)
    check_k(k, a.t.sigma)
    return threshold_sweep(a.table(mechanism), a.t.sigma)[k - 1]
