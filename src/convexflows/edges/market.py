"""Buyer basket edges for linear Fisher markets.

A basket edge connects all goods to one buyer: the first coordinates are
good purchases in ``[-1, 0]`` (at most one unit of each good exists) and
the last coordinate is the utility delivered to the buyer, capped by the
buyer's linear valuation of the basket.
"""

from __future__ import annotations

import numpy as np

from .base import ArbitrageResult, EdgeOracle, InvalidEdgeError, require_nonnegative_prices

__all__ = ["FisherBasketEdge", "fisher_linear_arbitrage"]


class FisherBasketEdge(EdgeOracle):
    """Hyperedge converting goods flow into utility flow, ``u(x) = v @ x``.

    The edge keeps its own copy of the valuations; ``valuations`` builds
    a fresh array on each access, and ``dim`` is read-only.
    """

    __slots__ = ("_v", "__dict__")

    def __init__(self, valuations):
        v = np.array(valuations, dtype=float)
        if v.ndim != 1 or len(v) < 1:
            raise InvalidEdgeError("valuations must be a nonempty vector")
        if np.any(v < 0):
            raise InvalidEdgeError("valuations must be nonnegative")
        self._v = v

    @property
    def dim(self) -> int:
        return len(self._v) + 1

    @property
    def is_strictly_convex(self) -> bool:
        return False

    @property
    def valuations(self) -> np.ndarray:
        return self._v.copy()

    def evaluate(self, prices: np.ndarray) -> ArbitrageResult:
        prices = require_nonnegative_prices(prices)
        good_prices = prices[:-1]
        utility_price = float(prices[-1])
        # Linear objective on a box: buy good j outright when the utility
        # it generates outprices it, otherwise skip (ties skip, keeping
        # the flow sparse; the maximizer is then not unique).
        margins = utility_price * self._v - good_prices
        buy = margins > 0.0
        goods = np.where(buy, -1.0, 0.0)
        utility = float(self._v @ (-goods))
        flow = np.concatenate([goods, [utility]])
        tie = np.any((margins == 0.0) & ((self._v > 0) | (good_prices > 0)))
        return ArbitrageResult(
            value=float(np.sum(margins[buy])),
            flow=flow,
            non_unique=bool(tie),
        )

    def is_member(self, flow: np.ndarray, tol: float) -> bool:
        flow = np.asarray(flow, dtype=float)
        scale = tol * (1.0 + float(np.max(np.abs(flow))))
        goods, utility = flow[:-1], float(flow[-1])
        if np.any(goods < -1.0 - scale) or np.any(goods > scale):
            return False
        cap = float(self._v @ (-np.clip(goods, -1.0, 0.0)))
        return utility <= cap + scale * max(1.0, float(np.sum(self._v)))


def fisher_linear_arbitrage(valuations, prices) -> tuple[np.ndarray, float]:
    """Most valuable basket purchase for a linear-utility buyer edge.

    Args:
        valuations: Nonnegative per-good valuations of the buyer.
        prices: Local prices, goods first and the buyer's utility last.

    Returns:
        ``(flow, value)``; the flow buys exactly the goods whose utility
        value strictly exceeds their price.
    """
    edge = FisherBasketEdge(valuations)
    res = edge.evaluate(np.asarray(prices, dtype=float))
    return res.flow, res.value
