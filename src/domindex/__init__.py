"""Exact domination degree and domination index computations.

The central quantity is the domination degree of a vertex: the minimum
cardinality of a minimal dominating set containing it. Summing over all
vertices gives the domination index of the graph. The package bundles
an exact engine for these (plus the classical domination and
irredundance numbers), generators for the graph families with known
closed forms, graph operations, text formats and a verification harness
that replays every closed-form claim against brute force.
"""

from .backend import backend_name
from .engine import (
    DEFAULT_EXACT_CAP,
    DEFAULT_SCAN_CAP,
    DominationProfile,
    dd_vector_oracle,
    domination_degree,
    domination_degree_witness,
    domination_degrees,
    domination_number,
    domination_profile,
    enumerate_minimal_dominating_sets,
    irredundance_numbers,
    is_dominating,
    is_irredundant,
    is_minimal_dominating,
    mds_containing_greedy,
    minimalize_containing,
    private_neighborhood,
    upper_domination_number,
)
from .graph import (
    Graph,
    VertexSet,
    closed_neighborhood,
    is_connected,
    is_spanning_subgraph,
    max_degree,
    new_graph,
    permute,
    wiener_index,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EXACT_CAP",
    "DEFAULT_SCAN_CAP",
    "DominationProfile",
    "FamilySpec",
    "Graph",
    "Limits",
    "UNRESOLVED",
    "VertexSet",
    "backend_name",
    "closed_neighborhood",
    "corona",
    "dd_vector_oracle",
    "disjoint_union",
    "domination_degree",
    "domination_degree_witness",
    "domination_degrees",
    "domination_number",
    "domination_profile",
    "emit_dot",
    "emit_edgelist",
    "emit_report_json",
    "enumerate_labeled_graphs",
    "enumerate_minimal_dominating_sets",
    "format_family",
    "generate",
    "irredundance_numbers",
    "is_connected",
    "is_dominating",
    "is_irredundant",
    "is_minimal_dominating",
    "is_spanning_subgraph",
    "join",
    "max_degree",
    "mds_containing_greedy",
    "minimalize_containing",
    "new_graph",
    "parse_edgelist",
    "parse_family",
    "permute",
    "private_neighborhood",
    "product",
    "random_graph",
    "run_suite",
    "upper_domination_number",
    "wiener_index",
    "__version__",
]

# Served on first use (PEP 562), so that ``import domindex`` loads only
# the engine (``graph``, ``errors``, ``backend``, ``_pykern`` and
# ``engine``), and the CLI only what its subcommand runs: no
# ``families``, ``formats``, ``ops``, ``classes`` or ``verify``, nor what
# they import, such as ``verify``'s ``json`` and ``dataclasses``. The
# five submodules are served too, so ``import domindex`` is enough to
# reach ``domindex.verify``.
_LAZY = {
    "FamilySpec": "families",
    "UNRESOLVED": "families",
    "format_family": "families",
    "generate": "families",
    "parse_family": "families",
    "emit_dot": "formats",
    "emit_edgelist": "formats",
    "emit_report_json": "formats",
    "parse_edgelist": "formats",
    "corona": "ops",
    "disjoint_union": "ops",
    "join": "ops",
    "product": "ops",
    "enumerate_labeled_graphs": "classes",
    "random_graph": "classes",
    "Limits": "verify",
    "run_suite": "verify",
}


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
