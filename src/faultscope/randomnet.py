"""Seeded random topologies for batteries and experiments, and the spec field checks."""

from __future__ import annotations

import random
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import GenerationError
from .topology import Graph, Topology


DEFAULT_MAX_RETRIES = 1000
#: Node cap of the generators, checked before any label is built.
DEFAULT_MAX_NODES = 10_000


class GenResult(NamedTuple):
    topology: Topology
    retries: int


def _node_labels(n: int) -> tuple[str, ...]:
    width = len(str(n - 1))
    return tuple(f"n{i:0{width}d}" for i in range(n))


def _sample_edges(
    nodes: tuple[str, ...], p: float, rng: random.Random
) -> tuple[tuple[str, str], ...]:
    edges = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if rng.random() < p:
                edges.append((nodes[i], nodes[j]))
    return tuple(edges)


def gen_er(n: int, p: float, seed: int) -> GenResult:
    """Seeded Erdos-Renyi topology, resampled until connected.

    Every unordered node pair gets an edge independently with probability
    ``p``. The driving generator persists across resamples, so a fixed seed
    yields one reproducible outcome together with the number of rejected
    disconnected draws, at most ``DEFAULT_MAX_RETRIES`` of them.
    """
    if not 2 <= n <= DEFAULT_MAX_NODES:
        raise ValueError(f"node count n must be in 2..{DEFAULT_MAX_NODES}, got {n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability p must be in (0, 1], got {p}")
    nodes = _node_labels(n)
    rng = random.Random(seed)
    for attempt in range(DEFAULT_MAX_RETRIES + 1):
        candidate = Graph(nodes=nodes, edges=_sample_edges(nodes, p, rng))
        if candidate.is_connected():
            return GenResult(Topology(candidate.nodes, candidate.edges), attempt)
    raise GenerationError(
        f"no connected graph within {DEFAULT_MAX_RETRIES} retries (n={n}, p={p}, seed={seed})"
    )


def place_monitors(t: Topology, mu: int, seed: int) -> Topology:
    """Re-monitor ``t`` with a uniform random seeded choice of ``mu`` nodes."""
    if not 1 <= mu <= len(t.nodes):
        raise ValueError(f"monitor count mu must be in 1..{len(t.nodes)}, got {mu}")
    rng = random.Random(seed)
    chosen = rng.sample(sorted(t.nodes), mu)
    return t.with_monitors(frozenset(chosen))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """One seeded ER draw with no connectivity requirement (cut batteries)."""
    if not 1 <= n <= DEFAULT_MAX_NODES:
        raise ValueError(f"node count n must be in 1..{DEFAULT_MAX_NODES}, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability p must be in [0, 1], got {p}")
    nodes = _node_labels(n)
    rng = random.Random(seed)
    return Graph(nodes=nodes, edges=_sample_edges(nodes, p, rng))


def read_fields(spec: Mapping, fields: Sequence[tuple[str, object, str, Callable]]) -> dict:
    """Every field of a spec, by (name, default, what it must be, test) rows:
    the test is the field's whole rule, and a default of None marks a field the
    spec must set. A ValueError names the first field no row has, else the
    first row missing or failing its test."""
    names = [name for name, _, _, _ in fields]
    for name in spec:
        if name not in names:
            raise ValueError(
                f"batch spec has an unknown field {name!r}; the fields are {', '.join(names)}"
            )
    out = {}
    for row in fields:
        name, default = row[:2]
        if name not in spec and default is None:
            raise ValueError(f"batch spec is missing the {name!r} field")
        out[name] = check_field(row, spec.get(name, default), f"batch spec field {name!r}")
    return out


def check_field(row: tuple[str, object, str, Callable], value, label: str):
    """``value`` if it passes the test of its (name, default, what, test) row,
    else a ValueError that says ``label`` must be what the row says."""
    if not row[3](value):
        raise ValueError(f"{label} must be {row[2]}, got {value!r}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_edge_probability(value) -> bool:
    return _is_number(value) and 0 < value <= 1


def _is_list_of(value, ok: Callable[[object], bool]) -> bool:
    return isinstance(value, (list, tuple)) and all(ok(v) for v in value)
