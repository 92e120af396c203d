"""Exact cohomology of vertex-weighted graphs.

Ranks, elementary divisors, torsion structure via the fundamental
forest, orientability, oriented cores and spanning trees, and tropical
rational functions predicting p-torsion orders; everything is validated
against an exact Smith-normal-form engine.
"""

from .graphs import (
    Subgraph,
    WeightedGraph,
    bipartition,
    components,
    edge_boundary,
    full_subgraph,
    graph_from_json,
    graph_to_json,
    load_graph,
    p_valuation,
    reduction,
    subgraph_of,
)
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel_structure,
    kernel_mod,
    matrix,
    smith_normal_form,
    solve_mod,
)
from .cohomology import (
    cohomology_groups,
    critical_cohomology_dim,
    d0_edge_matrix,
    d0_matrix,
    torsion_order_p,
)
from .orientation import (
    OrientationReport,
    divided_fundamental_class,
    fundamental_chain,
    generation_check,
    is_orientable,
    is_orientation_class,
)
from .forest import (
    ForestNode,
    FundamentalForest,
    build_forest,
    forest_to_dot,
    torsion_structure,
)
from .fcomplex import (
    ComparisonMap,
    FundamentalComplex,
    Restriction,
    chi,
    chi_image_torsion_order,
    complex_cohomology,
    fundamental_complex,
    restrict,
)
from .weights import (
    CoreDecomposition,
    core_torsion_relation,
    edge_weighted_constants,
    hbe_count,
    oriented_core,
    oriented_torsion_exponent,
    tree_torsion,
    weighted_spanning_tree,
)
from .tropical import (
    TropicalExpr,
    TropicalValue,
    elementary_symmetric,
    eval_expr,
    g_delta,
    parse,
    render,
    z_complete,
    z_gamma,
)

__version__ = "0.1.0"
