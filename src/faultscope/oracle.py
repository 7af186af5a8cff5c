"""Definitional ground truth by exhaustive enumeration.

Everything here works straight from the definitions, with no graph theory:
two failure sets are distinguishable iff they disrupt different paths, a set
S is k-identifiable iff every pair of failure sets of size <= k that differ
inside S is distinguishable, and the identifiability index is the largest
such k. These routines exist to validate the scalable analyses, so they are
deliberately simple and refuse instances beyond small caps.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import OracleCapError
from .probing import PathSet
from .topology import Graph, check_k, check_members

DEFAULT_MAX_SIGMA = 10
DEFAULT_MAX_CUT_NODES = 8


def _guard(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise OracleCapError(
            f"{what} {value} exceeds the oracle cap {cap}; "
            "the brute-force check is for small instances only"
        )


def check_universe_size(sigma: int) -> None:
    """Raise OracleCapError when a universe of ``sigma`` non-monitors is past
    the cap. ``Analysis.oracle`` checks it before enumerating any path, and
    ``verify_batch_spec`` before drawing any instance."""
    _guard(sigma, DEFAULT_MAX_SIGMA, "universe size")


def oracle_k_identifiable(ps: PathSet, group: Iterable[str], k: int) -> bool:
    """Whether ``group`` is k-identifiable, for any k in 1..sigma: by
    definition, whether its exact index (:func:`oracle_omega`) reaches k.
    The universe cap bounds the cost."""
    members = check_members(ps.incidence_masks, group)
    check_k(k, len(ps.universe))
    return oracle_omega(ps, members) >= k


def _projection_groups(ps: PathSet) -> list[list[int]]:
    """All failure sets as index bitmasks, grouped by disrupted-path fingerprint."""
    sigma = len(ps.universe)
    check_universe_size(sigma)
    node_masks = [ps.incidence_masks[v] for v in ps.universe]
    # a failure set's fingerprint is that of the set without its lowest
    # node, plus that node's paths: one OR per set
    fps = [0] * (1 << sigma)
    groups: dict[int, list[int]] = {0: [0]}
    for fmask in range(1, 1 << sigma):
        low = fmask & -fmask
        fp = fps[fmask ^ low] | node_masks[low.bit_length() - 1]
        fps[fmask] = fp
        groups.setdefault(fp, []).append(fmask)
    return list(groups.values())


def _omega_from_groups(groups: list[list[int]], smask: int, sigma: int) -> int:
    # A pair of same-fingerprint failure sets that differ inside S rules out
    # every k >= max(|F1|, |F2|); the index is the smallest such threshold
    # minus one. Minimizing max(|F1|, |F2|) over cross-projection pairs means
    # pairing the two projections with the smallest minimal sizes.
    best: int | None = None
    for group in groups:
        if len(group) < 2:
            continue
        min_sizes: dict[int, int] = {}
        for fmask in group:
            proj = fmask & smask
            size = fmask.bit_count()
            if proj not in min_sizes or size < min_sizes[proj]:
                min_sizes[proj] = size
        if len(min_sizes) < 2:
            continue
        first, second = sorted(min_sizes.values())[:2]
        threshold = max(first, second)
        if best is None or threshold < best:
            best = threshold
    return sigma if best is None else best - 1


def oracle_omega(ps: PathSet, group: Iterable[str]) -> int:
    """Exact identifiability index of ``group``: the largest k (0..sigma) for
    which the set is k-identifiable. 0 means two single-failure scenarios
    differing on the group already look identical."""
    members = check_members(ps.incidence_masks, group)
    sigma = len(ps.universe)
    index = {v: i for i, v in enumerate(ps.universe)}
    smask = 0
    for v in members:
        smask |= 1 << index[v]
    groups = _projection_groups(ps)
    return _omega_from_groups(groups, smask, sigma)


def oracle_omega_all(ps: PathSet) -> dict[str, int]:
    """Per-node exact indices, sharing one enumeration across all nodes."""
    sigma = len(ps.universe)
    groups = _projection_groups(ps)
    return {
        v: _omega_from_groups(groups, 1 << i, sigma)
        for i, v in enumerate(ps.universe)
    }


def oracle_max_identifiable_set(ps: PathSet, k: int) -> frozenset[str]:
    """Exact maximal k-identifiable set: the nodes whose index reaches k."""
    sigma = len(ps.universe)
    check_k(k, sigma)
    values = oracle_omega_all(ps)
    return frozenset(v for v, omega in values.items() if omega >= k)


def oracle_msc(ps: PathSet, v: str) -> int:
    """Exact minimum set cover of v's paths by the other nodes' path sets.

    By convention the answer is sigma when some path traverses v and no
    other non-monitor (covering is infeasible, and that path pins v's state
    directly), and 0 when no path traverses v at all.
    """
    (member,) = check_members(ps.incidence_masks, [v])
    sigma = len(ps.universe)
    check_universe_size(sigma)
    target = ps.incidence_masks[member]
    if target == 0:
        return 0
    if member in ps.directly_measured:
        return sigma
    candidates = [w for w in ps.universe if w != member and ps.incidence_masks[w] & target]
    for size in range(1, len(candidates) + 1):
        for combo in combinations(candidates, size):
            cover = 0
            for w in combo:
                cover |= ps.incidence_masks[w]
            if cover & target == target:
                return size
    raise AssertionError("cover must exist when no path traverses only v")


def brute_vertex_cut(g: Graph, s: str, t: str) -> int:
    """Minimum vertex cut by trying every candidate node subset.

    Mirrors the engine's convention: adjacent pairs return |V| - 1, and a
    pair with no connecting path returns 0.
    """
    if not g.has_node(s) or not g.has_node(t):
        raise ValueError("unknown node in cut query")
    if s == t:
        raise ValueError("source and sink must differ")
    _guard(len(g.nodes), DEFAULT_MAX_CUT_NODES, "node count")
    if g.has_edge(s, t):
        return len(g.nodes) - 1

    def reachable(removed: frozenset[str]) -> bool:
        if s in removed or t in removed:
            return False
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.adjacency[u]:
                    if w not in seen and w not in removed:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return t in seen

    others = [n for n in g.nodes if n != s and n != t]
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            if not reachable(frozenset(combo)):
                return size
    raise AssertionError("removing every other node must separate a non-adjacent pair")
