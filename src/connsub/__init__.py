"""Exact connected-subgraph counting and extremal search over small graphs."""

from .census import (
    CensusLimitError,
    count_by_edge_subsets,
    count_by_enumeration,
    count_connected_subgraphs,
    count_containing,
    enumerate_connected_subgraphs,
    subgraph_number,
)
from .decompose import (
    SplitAtCutVertex,
    SplitPart,
    block_expansion_count,
    count_via_decomposition,
    cut_vertex_subgraph_number,
    merge_count,
    split_at,
    subgraph_number_via_decomposition,
)
from .extremal import (
    ClassSpec,
    SearchReport,
    search_min_F,
    search_min_vertex_subgraph_number,
)
from .families import FamilySpec, build, closed_form_F, closed_form_f, parse_family_spec
from .graph import (
    Block,
    BlockCutTree,
    DisconnectedGraphError,
    Girth,
    Graph,
    block_cut_tree,
    cut_vertices,
    distance,
    girth,
    is_connected,
    s_pendant_blocks,
)
from .graphio import (
    FormatError,
    export_dot,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    serialize_graph6,
)
from .verify import verify_formulas, verify_table1, verify_theorem

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockCutTree",
    "CensusLimitError",
    "ClassSpec",
    "DisconnectedGraphError",
    "FamilySpec",
    "FormatError",
    "Girth",
    "Graph",
    "SearchReport",
    "SplitAtCutVertex",
    "SplitPart",
    "block_cut_tree",
    "block_expansion_count",
    "build",
    "closed_form_F",
    "closed_form_f",
    "count_by_edge_subsets",
    "count_by_enumeration",
    "count_connected_subgraphs",
    "count_containing",
    "count_via_decomposition",
    "cut_vertex_subgraph_number",
    "cut_vertices",
    "distance",
    "enumerate_connected_subgraphs",
    "export_dot",
    "girth",
    "is_connected",
    "merge_count",
    "parse_edge_list",
    "parse_family_spec",
    "parse_graph6",
    "s_pendant_blocks",
    "search_min_F",
    "search_min_vertex_subgraph_number",
    "serialize_edge_list",
    "serialize_graph6",
    "split_at",
    "subgraph_number",
    "subgraph_number_via_decomposition",
    "verify_formulas",
    "verify_table1",
    "verify_theorem",
]
