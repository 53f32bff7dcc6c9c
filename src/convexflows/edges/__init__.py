"""Allowable-flow sets exposed as price-query oracles."""

from .base import (
    ArbitrageResult,
    EdgeError,
    EdgeOracle,
    InvalidEdgeError,
    UnboundedEdgeError,
)
from .cfmm import (
    GeometricMeanPool,
    TwoAssetGeometricPool,
    separable_cfmm_arbitrage,
    uniswap_arbitrage,
)
from .market import FisherBasketEdge, fisher_linear_arbitrage
from .two_node import (
    CallableGain,
    GainFunction,
    LinearGain,
    PiecewiseLinearGain,
    PowerLossGain,
    ScalarArbitrage,
    TwoNodeEdge,
    concave_gain_edge,
    linear_gain_edge,
    lossless_edge,
    opf_arbitrage,
    opf_line_edge,
    opf_loss,
    piecewise_linear_edge,
    solve_scalar_arbitrage,
)

__all__ = [
    "ArbitrageResult",
    "EdgeError",
    "EdgeOracle",
    "InvalidEdgeError",
    "UnboundedEdgeError",
    "CallableGain",
    "GainFunction",
    "LinearGain",
    "PiecewiseLinearGain",
    "PowerLossGain",
    "ScalarArbitrage",
    "TwoNodeEdge",
    "concave_gain_edge",
    "linear_gain_edge",
    "lossless_edge",
    "opf_arbitrage",
    "opf_line_edge",
    "opf_loss",
    "piecewise_linear_edge",
    "solve_scalar_arbitrage",
    "GeometricMeanPool",
    "TwoAssetGeometricPool",
    "separable_cfmm_arbitrage",
    "uniswap_arbitrage",
    "FisherBasketEdge",
    "fisher_linear_arbitrage",
]
