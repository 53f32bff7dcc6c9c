"""Convex network flows over hypergraphs.

Maximize a concave net-flow utility plus concave per-edge utilities
subject to convex allowable-flow sets, via an edge-decomposed dual
solved by a bound-constrained quasi-Newton driver with a primal
recovery pass.
"""

from .core import (
    EdgeIncidence,
    FeasibilityReport,
    Hyperedge,
    PrimalPoint,
    ProblemInstance,
    assemble_net_flow,
    check_feasibility,
    primal_objective,
    scatter_prices,
)
from .edges import (
    ArbitrageResult,
    EdgeOracle,
    FisherBasketEdge,
    GeometricMeanPool,
    TwoAssetGeometricPool,
    TwoNodeEdge,
    concave_gain_edge,
    linear_gain_edge,
    lossless_edge,
    opf_arbitrage,
    opf_line_edge,
    piecewise_linear_edge,
    separable_cfmm_arbitrage,
    solve_scalar_arbitrage,
    uniswap_arbitrage,
)
from .io_cli import (
    allocations_from_flows,
    fisher_equilibrium_prices,
    fisher_instance,
    gen_cfmm,
    gen_maxflow,
    gen_opf,
    instance_from_dict,
    instance_to_dict,
    parse_instance,
    serialize_instance,
)
from .objectives import (
    FisherObjective,
    LinearNonnegObjective,
    MaxFlowObjective,
    MinCostObjective,
    ObjectiveOracle,
    OpfQuadraticObjective,
    QuadraticPenalty,
)
from .recovery import restore_primal
from .solver import (
    ConvergenceTrace,
    DualPoint,
    SolveResult,
    SolverConfig,
    duality_gap,
    eval_dual,
    solve,
    solve_dual,
)

__version__ = "0.1.0"

__all__ = [
    "EdgeIncidence",
    "FeasibilityReport",
    "Hyperedge",
    "PrimalPoint",
    "ProblemInstance",
    "assemble_net_flow",
    "check_feasibility",
    "primal_objective",
    "scatter_prices",
    "ArbitrageResult",
    "EdgeOracle",
    "FisherBasketEdge",
    "GeometricMeanPool",
    "TwoAssetGeometricPool",
    "TwoNodeEdge",
    "concave_gain_edge",
    "linear_gain_edge",
    "lossless_edge",
    "opf_arbitrage",
    "opf_line_edge",
    "piecewise_linear_edge",
    "separable_cfmm_arbitrage",
    "solve_scalar_arbitrage",
    "uniswap_arbitrage",
    "allocations_from_flows",
    "fisher_equilibrium_prices",
    "fisher_instance",
    "gen_cfmm",
    "gen_maxflow",
    "gen_opf",
    "instance_from_dict",
    "instance_to_dict",
    "parse_instance",
    "serialize_instance",
    "FisherObjective",
    "LinearNonnegObjective",
    "MaxFlowObjective",
    "MinCostObjective",
    "ObjectiveOracle",
    "OpfQuadraticObjective",
    "QuadraticPenalty",
    "restore_primal",
    "ConvergenceTrace",
    "DualPoint",
    "SolveResult",
    "SolverConfig",
    "duality_gap",
    "eval_dual",
    "solve",
    "solve_dual",
]
