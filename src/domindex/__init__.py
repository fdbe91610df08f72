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
    domination_degree_oracle,
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
from .families import FamilySpec, UNRESOLVED, format_family, generate, parse_family
from .formats import emit_dot, emit_edgelist, emit_report_json, parse_edgelist
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
from .ops import corona, disjoint_union, join, predicted_op_degree, product
from .verify import Limits, enumerate_labeled_graphs, random_graph, run_suite

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
    "domination_degree_oracle",
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
    "predicted_op_degree",
    "private_neighborhood",
    "product",
    "random_graph",
    "run_suite",
    "upper_domination_number",
    "wiener_index",
    "__version__",
]
