"""Definitional ground truth by exhaustive enumeration.

Everything here works straight from the definitions, with no graph theory:
two failure sets are distinguishable iff they disrupt different paths, a set
S is k-identifiable iff every pair of failure sets of size <= k that differ
inside S is distinguishable, and the identifiability index is the largest
such k. The indices come from one walk over the 2^sigma failure sets
(:func:`oracle_omega_all`), the other answers from trying every subset.
They exist to validate the scalable analyses and refuse past small caps.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import OracleCapError
from .probing import PathSet
from .topology import Graph, check_k, check_members, hops

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


def oracle_omega(ps: PathSet, group: Iterable[str]) -> int:
    """Exact identifiability index of ``group``: the largest k (0..sigma) for
    which the set is k-identifiable, the smallest of its members' indices.
    0 means two single-failure scenarios differing on the group already
    look identical."""
    members = check_members(ps.incidence_masks, group)
    omega = oracle_omega_all(ps)
    return min(omega[v] for v in members)


def oracle_omega_all(ps: PathSet) -> dict[str, int]:
    """Exact per-node indices from the path masks alone, in one walk over the failure sets.

    Two same-fingerprint failure sets rule out every k >= the larger size
    for the nodes where they differ. Walking the failure sets in
    nondecreasing size, the first with a fingerprint is its representative
    m0, and a later F with it settles each unsettled node of F ^ m0 at
    |F| - 1. That is exact: any colliding pair differing at a node has a
    member, no larger than the pair, that differs there from m0. Unsettled
    nodes get sigma; the walk ends once every node is settled.
    """
    node_masks = list(ps.incidence_masks.values())
    sigma = len(node_masks)
    check_universe_size(sigma)
    unsettled = (1 << sigma) - 1
    omega = [sigma] * sigma
    # a failure set's fingerprint is that of the set without its lowest
    # node, plus that node's paths: one OR per set, the smaller set first
    fps = [0] * (1 << sigma)
    first: dict[int, int] = {}
    for fmask in sorted(range(1 << sigma), key=int.bit_count):
        if not unsettled:
            break
        if fmask:
            low = fmask & -fmask
            fps[fmask] = fps[fmask ^ low] | node_masks[low.bit_length() - 1]
        m0 = first.setdefault(fps[fmask], fmask)
        settled = (fmask ^ m0) & unsettled
        if settled:
            unsettled ^= settled
            size = fmask.bit_count() - 1
            while settled:
                low = settled & -settled
                settled ^= low
                omega[low.bit_length() - 1] = size
    return dict(zip(ps.universe, omega))


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

    others = [n for n in g.nodes if n != s and n != t]
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            # a removed node may be reached but leads nowhere
            if t not in hops({**g.adjacency, **dict.fromkeys(combo, ())}, s):
                return size
    raise AssertionError("removing every other node must separate a non-adjacent pair")
