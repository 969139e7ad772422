"""Twinless strong connectivity toolkit.

Decompositions of directed graphs (SCCs, twinless SCCs, 2-edge SCCs,
2-edge twinless SCCs, strong bridges and twinless strong bridges), the
supporting undirected machinery (2ecc, biconnected blocks, 3ecc cactus,
SPQR trees, marked vertex-edge blocks), and the reductions from mixed-graph
orientation problems (strongly orientable blocks and edge-resilient
strongly orientable blocks).
"""

from .graph import (
    DiGraph,
    GraphError,
    MixedGraph,
    ParseError,
    Partition,
    PreconditionError,
    UGraph,
    graph_from_json,
    graph_to_json,
    parse_graph,
    refines,
    render_graph,
    underlying,
)
from .undirected import (
    BlockForest,
    Cactus,
    biconnected,
    bridges_2ecc,
    connected_components,
    three_ecc_cactus,
    three_ecc_classes,
)
from .dominators import (
    BridgeDecomposition,
    DomTree,
    dominator_tree,
    flow_bridges,
    strong_bridges,
)
from .strong import SccResult, scc, tscc, twinless_strong_bridges
from .auxiliary import (
    AuxGraph,
    XeClass,
    build_final_family,
    build_first_level,
    classify_xe,
    s_operation,
)
from .spqr import SpqrNode, SpqrTree, marked_veb, spqr
from .pipeline import (
    partition_et_minus_es,
    partition_strong_bridges,
    two_escc,
    two_etscc,
    two_etscc_baseline,
)
from .orientation import (
    ReducedGraph,
    edge_resilient_blocks,
    split_and_gadget,
    split_and_twin,
    strongly_orientable_blocks,
)

__all__ = [
    "DiGraph",
    "MixedGraph",
    "UGraph",
    "Partition",
    "GraphError",
    "ParseError",
    "PreconditionError",
    "parse_graph",
    "render_graph",
    "graph_to_json",
    "graph_from_json",
    "underlying",
    "refines",
    "connected_components",
    "bridges_2ecc",
    "biconnected",
    "BlockForest",
    "Cactus",
    "three_ecc_classes",
    "three_ecc_cactus",
    "DomTree",
    "BridgeDecomposition",
    "dominator_tree",
    "flow_bridges",
    "strong_bridges",
    "SccResult",
    "scc",
    "tscc",
    "twinless_strong_bridges",
    "AuxGraph",
    "XeClass",
    "build_first_level",
    "build_final_family",
    "classify_xe",
    "s_operation",
    "SpqrTree",
    "SpqrNode",
    "spqr",
    "marked_veb",
    "two_escc",
    "two_etscc",
    "two_etscc_baseline",
    "partition_et_minus_es",
    "partition_strong_bridges",
    "ReducedGraph",
    "split_and_twin",
    "split_and_gadget",
    "strongly_orientable_blocks",
    "edge_resilient_blocks",
]
