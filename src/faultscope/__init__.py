"""faultscope: how well can a monitored network localize node failures?

Given a topology, a set of monitor nodes and a probing mechanism, this
package computes which sets of simultaneous node failures are localizable
from binary end-to-end path measurements: per-node and per-set maximum
identifiability indices, k-identifiability tests, and the maximal
k-identifiable sets, for unconstrained walk probing (cap), simple-path
probing (csp) and routing-determined paths (up). A definitional brute-force
oracle and seeded verification batteries back every closed-form result.
"""

from importlib import import_module

#: The public API: every exported name, in one row for the module that defines it.
_EXPORTS = {
    "cuts": (
        "CutNetwork", "CutQueryResult", "biconnected_components", "min_vertex_cut_size",
        "two_connected",
    ),
    "errors": ("EnumerationCapError", "GenerationError", "OracleCapError", "TopologyError"),
    "identify": (
        "Analysis", "CspInternals", "IntBounds", "Mechanism", "SetBounds", "Status",
        "TriState", "cap_values", "csp_internals", "csp_internals_all", "gsc",
        "k_identifiable", "max_identifiable_set", "omega_cap", "omega_csp", "omega_set",
        "omega_up", "one_identifiable", "per_node_bounds",
    ),
    "oracle": (
        "brute_vertex_cut", "oracle_k_identifiable", "oracle_msc", "oracle_omega",
        "oracle_omega_all",
    ),
    "probing": (
        "PathSet", "enumerate_cap", "enumerate_csp", "parse_paths", "route_up",
    ),
    "randomnet": ("GenResult", "gen_er", "place_monitors", "random_graph"),
    "reports": (
        "VERSION", "AnalysisReport", "BatchSpec", "CcdfTable", "ReportMeta", "analyze",
        "ccdf", "ccdf_batch", "maxset_report", "set_report",
    ),
    "topology": (
        "VIRTUAL_MONITOR", "Graph", "Topology", "build_extended", "build_extended_minus",
        "build_minus_monitor", "build_star", "format_topology", "load_topology",
        "parse_monitor_names",
    ),
    "verify": (
        "CheckFailure", "VerificationReport", "er_battery", "verify_batch_spec",
        "verify_cut_engine", "verify_topologies",
    ),
}

# Eager, not a lazy __getattr__: perfbench/tracer.py rewraps each name in every module's vars().
for _module, _names in _EXPORTS.items():
    _source = import_module(f".{_module}", __name__)
    globals().update({name: getattr(_source, name) for name in _names})
del _module, _names, _source, import_module

__version__ = VERSION  # bound by the loop above
__all__ = sorted(name for names in _EXPORTS.values() for name in names) + ["__version__"]
