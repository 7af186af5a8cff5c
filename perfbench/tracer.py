"""Run the faultscope CLI with a span around each public layer function.

    python3 perfbench/tracer.py SPANS_FILE CLI_ARG...

Each target is wrapped at every ``faultscope`` module attribute that holds
it, because callers resolve it through their own module globals (``identify``
calls ``min_vertex_cut_size`` as ``faultscope.identify.min_vertex_cut_size``).
Spans (name, start, end, parent) and counters stay in memory and are written
as JSON when the CLI returns; ``run.py`` turns them into self times.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import faultscope.cli

#: (module, attribute) of every wrapped function; a dotted attribute names a
#: method. The span is named ``<module>.<attribute>``.
TARGETS = (
    ("cli", "main"),
    ("topology", "load_topology"),
    ("topology", "build_star"),
    ("topology", "build_minus_monitor"),
    ("topology", "build_extended"),
    ("topology", "build_extended_minus"),
    ("randomnet", "gen_er"),
    ("probing", "route_up"),
    ("probing", "enumerate_cap"),
    ("probing", "enumerate_csp"),
    ("cuts", "min_vertex_cut_size"),
    ("cuts", "biconnected_components"),
    ("identify", "cap_values"),
    ("identify", "csp_internals_all"),
    ("identify", "_csp_single_failure_nodes"),
    ("identify", "omega_csp"),
    ("identify", "gsc"),
    ("identify", "per_node_bounds"),
    ("identify", "max_identifiable_set"),
    ("oracle", "oracle_omega_all"),
    ("oracle", "oracle_msc"),
    ("reports", "analyze"),
    ("reports", "ccdf"),
    ("reports", "ccdf_batch"),
    ("reports", "maxset_report"),
    ("reports", "set_report"),
    ("reports", "AnalysisReport.to_csv"),
    ("reports", "AnalysisReport.to_json"),
    ("reports", "CcdfTable.to_csv"),
    ("reports", "CcdfTable.to_json"),
    ("verify", "er_battery"),
    ("verify", "verify_topologies"),
    ("verify", "verify_batch_spec"),
)

#: Counters read off a wrapped function's result.
RESULT_COUNTERS = {
    "cuts.min_vertex_cut_size": ("cuts.flow_queries", lambda r: 0 if r.adjacent_case else 1),
    "probing.enumerate_cap": ("probing.paths_enumerated", lambda r: len(r.paths)),
    "probing.enumerate_csp": ("probing.paths_enumerated", lambda r: len(r.paths)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span index]
        self.counters: Counter[str] = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name_index, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "faultscope"]
        for module_name, attr in TARGETS:
            module = sys.modules[f"faultscope.{module_name}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self.wrap(f"{module_name}.{attr}", getattr(owner, method)))
                continue
            original = getattr(module, attr)
            traced = self.wrap(f"{module_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def dump(self, path: str, returncode: int) -> None:
        doc = {
            "names": self.names,
            "spans": self.spans,
            "counters": dict(self.counters),
            "returncode": returncode,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    returncode = 1
    try:
        returncode = faultscope.cli.main(argv)
    except SystemExit as exc:
        returncode = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path, returncode)
    return returncode


if __name__ == "__main__":
    sys.exit(main())
