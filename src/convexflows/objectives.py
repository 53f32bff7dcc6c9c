"""Conjugate oracles for net-flow and edge utilities.

Each oracle answers the price subproblem ``sup_y U(y) - prices @ y``,
returning the optimal value together with a maximizer.  Values may be
``+inf``, which the solver treats as an implicit constraint; because all
utilities are nondecreasing, any negative price coordinate forces an
infinite value.  Oracles also describe their price domain (coordinate
lower bounds, pinned coordinates) so the solver can fold constraints
into simple bounds.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConjugateValue",
    "ConjugateOracle",
    "ObjectiveOracle",
    "FlowConservationSet",
    "LinearNonnegObjective",
    "OpfQuadraticObjective",
    "MaxFlowObjective",
    "MinCostObjective",
    "FisherObjective",
    "QuadraticPenalty",
    "linear_nonneg_conj",
    "opf_quadratic_conj",
    "maxflow_conj",
    "mincost_conj",
    "fisher_conj",
    "quadratic_penalty_conj",
]

_INF = math.inf


@dataclass
class ConjugateValue:
    """Value and maximizer of one conjugate subproblem.

    ``maximizer`` is None exactly when ``value`` is infinite.  For
    indicator-style utilities the maximizer may not be unique; such
    oracles return a fixed selection (usually zero) and set
    ``non_unique`` so the caller can treat the gradient as a subgradient.
    """

    value: float
    maximizer: np.ndarray | None
    non_unique: bool = False

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def _infinite() -> ConjugateValue:
    return ConjugateValue(value=_INF, maximizer=None)


class ConjugateOracle(ABC):
    """Conjugate of a concave nondecreasing utility."""

    dim: int

    @abstractmethod
    def conj(self, prices: np.ndarray) -> ConjugateValue:
        """Evaluate ``sup_x (utility(x) - prices @ x)`` with a maximizer."""

    @abstractmethod
    def evaluate_primal(self, x: np.ndarray, tol: float = 0.0) -> float:
        """Utility of a point; ``-inf`` outside the domain.

        ``tol`` loosens indicator constraints by a scaled margin so that
        numerically recovered points can be scored.
        """


class ObjectiveOracle(ConjugateOracle):
    """Net-flow objective: conjugate plus price-domain metadata."""

    def lower_bounds(self) -> np.ndarray:
        """Per-coordinate price lower bounds implied by the domain."""
        return np.zeros(self.dim)

    def fixed_coordinates(self) -> list[tuple[int, float]]:
        """Price coordinates pinned by the objective's structure."""
        return []

    def initial_prices(self) -> np.ndarray:
        """A price point inside the conjugate's domain."""
        return np.ones(self.dim)

    def domain_violation(self, y: np.ndarray) -> float:
        """Constraint violation of ``y`` against the utility's domain."""
        return 0.0

    def conj_curvature(self, prices: np.ndarray) -> np.ndarray | None:
        """The diagonal of the conjugate's Hessian at ``prices`` inside its
        domain, or None: an objective gives it at every such point or at
        none, and only one whose conjugate Hessian is diagonal gives it.
        The dual's Hessian product needs it (see
        :meth:`~convexflows.solver.DualProgram.hessian_at`)."""
        return None

    def recovery_target(
        self, prices: np.ndarray, conj_result: ConjugateValue
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Net-flow target and coordinate mask for primal recovery.

        Returns None when the objective pins no coordinates at the given
        prices (the recovered flows are then reported as they come).
        """
        if not conj_result.non_unique and conj_result.maximizer is not None:
            return conj_result.maximizer, np.ones(self.dim, dtype=bool)
        return None


@dataclass(frozen=True)
class FlowConservationSet:
    """Source/sink description of the flow conservation constraints.

    Without a target the set allows any nonnegative throughput (max-flow
    style); with ``target`` set it additionally requires at least that
    much flow into the sink.
    """

    source: int
    sink: int
    target: float | None = None


class LinearNonnegObjective(ObjectiveOracle):
    """``U(y) = c @ y`` restricted to ``y >= 0``.

    The conjugate is the indicator of ``prices >= c``: zero there (take
    the zero net flow, maximizers on the boundary are not unique) and
    infinite elsewhere.
    """

    def __init__(self, prices):
        self.c = _finite_array(prices, "reference prices")
        if np.any(self.c < 0):
            raise ValueError("reference prices must be nonnegative")
        self.dim = len(self.c)

    def conj(self, prices: np.ndarray) -> ConjugateValue:
        prices = np.asarray(prices, dtype=float)
        if (prices < self.c).any():
            return _infinite()
        return ConjugateValue(
            value=0.0,
            maximizer=np.zeros(self.dim),
            non_unique=bool((prices == self.c).any()),
        )

    def evaluate_primal(self, y: np.ndarray, tol: float = 0.0) -> float:
        y = np.asarray(y, dtype=float)
        slack = tol * (1.0 + float(np.max(np.abs(y))))
        if np.any(y < -slack):
            return -_INF
        return float(self.c @ y)

    def lower_bounds(self) -> np.ndarray:
        return self.c.copy()

    def initial_prices(self) -> np.ndarray:
        return np.maximum(self.c, 1e-3)

    def domain_violation(self, y: np.ndarray) -> float:
        return max(0.0, -float(np.min(y)))

    def recovery_target(self, prices, conj_result):
        # Complementary slackness: nodes priced strictly above c carry
        # zero net flow at optimality.
        prices = np.asarray(prices, dtype=float)
        mask = prices > self.c + 1e-9 * (1.0 + self.c)
        if not np.any(mask):
            return None
        return np.zeros(self.dim), mask


class OpfQuadraticObjective(ObjectiveOracle):
    """Quadratic generation cost against demands: ``U(y) = -1/2 sum (d - y)_+^2``."""

    def __init__(self, demands):
        self.demands = _finite_array(demands, "demands")
        self.dim = len(self.demands)

    def conj(self, prices: np.ndarray) -> ConjugateValue:
        prices = np.asarray(prices, dtype=float)
        if np.any(prices < 0):
            return _infinite()
        value = 0.5 * float(prices @ prices) - float(self.demands @ prices)
        return ConjugateValue(value=value, maximizer=self.demands - prices)

    def conj_curvature(self, prices: np.ndarray) -> np.ndarray:
        """The identity: the conjugate is ``1/2 |p|^2 - d·p`` on ``p >= 0``."""
        return np.ones(self.dim)

    def evaluate_primal(self, y: np.ndarray, tol: float = 0.0) -> float:
        shortfall = np.maximum(self.demands - np.asarray(y, dtype=float), 0.0)
        return -0.5 * float(shortfall @ shortfall)


def _finite_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _endpoints(n: int, source, sink) -> tuple[int, int]:
    """Checked source and sink node indices; the sink defaults to ``n - 1``."""
    sink = n - 1 if sink is None else sink
    for name, node in (("source", source), ("sink", sink)):
        if not isinstance(node, (int, np.integer)) or isinstance(node, bool) or not 0 <= node < n:
            raise ValueError(f"{name} must be a node index in [0, {n}), got {node!r}")
    if source == sink:
        raise ValueError("source and sink must differ")
    return int(source), int(sink)


def _interior_mask(n: int, conservation: FlowConservationSet) -> np.ndarray:
    """Read-only mask of the nodes other than the source and the sink."""
    mask = np.ones(n, dtype=bool)
    mask[conservation.source] = False
    mask[conservation.sink] = False
    mask.flags.writeable = False
    return mask


class MaxFlowObjective(ObjectiveOracle):
    """Throughput into the sink subject to flow conservation.

    The conjugate's domain pins the sink price one unit above the source
    price; by translation invariance the solver fixes the source price at
    zero and the sink price at one and optimizes the rest.
    """

    def __init__(self, n: int, source: int = 0, sink: int | None = None):
        if n < 2:
            raise ValueError("need at least two nodes")
        self.dim = n
        source, sink = _endpoints(n, source, sink)
        self.conservation = FlowConservationSet(source=source, sink=sink)
        self._interior = _interior_mask(n, self.conservation)

    def conj(self, prices: np.ndarray) -> ConjugateValue:
        prices = np.asarray(prices, dtype=float)
        s, t = self.conservation.source, self.conservation.sink
        ok = (
            abs(prices[t] - prices[s] - 1.0) <= 1e-12 * (1.0 + abs(prices[t]))
            and prices[t] >= 1.0 - 1e-12
            and not (prices[self._interior] < 0.0).any()
        )
        if not ok:
            return _infinite()
        return ConjugateValue(value=0.0, maximizer=np.zeros(self.dim), non_unique=True)

    def evaluate_primal(self, y: np.ndarray, tol: float = 0.0) -> float:
        y = np.asarray(y, dtype=float)
        slack = tol * (1.0 + float(np.max(np.abs(y))))
        if self.domain_violation(y) > slack:
            return -_INF
        return float(y[self.conservation.sink])

    def fixed_coordinates(self) -> list[tuple[int, float]]:
        return [(self.conservation.source, 0.0), (self.conservation.sink, 1.0)]

    def initial_prices(self) -> np.ndarray:
        # Distinct interior prices keep the start off the kinks of the
        # piecewise-linear edge terms.
        start = (np.arange(self.dim) + 1.0) / (self.dim + 1.0)
        start[self.conservation.source] = 0.0
        start[self.conservation.sink] = 1.0
        return start

    def domain_violation(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        s, t = self.conservation.source, self.conservation.sink
        worst = max(0.0, -(float(y[s]) + float(y[t])))
        interior = y[self._interior]
        if len(interior):
            worst = max(worst, -float(np.min(interior)))
        return worst

    def recovery_target(self, prices, conj_result):
        # Feasible flows conserve at every interior node exactly.
        return np.zeros(self.dim), self._interior


class MinCostObjective(ObjectiveOracle):
    """Indicator of routing at least ``target`` units from source to sink.

    The conjugate is ``target * (price_source - price_sink)`` whenever the
    source is priced no higher than the sink (and prices are nonnegative),
    infinite otherwise; the closed form is cross-checked against an LP
    oracle in the test suite.
    """

    def __init__(self, n: int, target: float, source: int = 0, sink: int | None = None):
        if n < 2:
            raise ValueError("need at least two nodes")
        # Written as "not in range" so that a NaN fails the check too.
        if not 0 <= target < math.inf:
            raise ValueError("flow target must be nonnegative and finite")
        self.dim = n
        source, sink = _endpoints(n, source, sink)
        self.conservation = FlowConservationSet(source=source, sink=sink, target=float(target))
        self._interior = _interior_mask(n, self.conservation)

    def conj(self, prices: np.ndarray) -> ConjugateValue:
        prices = np.asarray(prices, dtype=float)
        s, t = self.conservation.source, self.conservation.sink
        v = self.conservation.target
        if (prices < 0.0).any() or prices[s] > prices[t]:
            return _infinite()
        maximizer = np.zeros(self.dim)
        maximizer[s] = -v
        maximizer[t] = v
        unique = (
            prices[s] > 0.0
            and prices[s] < prices[t]
            and not (prices[self._interior] == 0.0).any()
        )
        return ConjugateValue(
            value=v * (float(prices[s]) - float(prices[t])),
            maximizer=maximizer,
            non_unique=not unique,
        )

    def evaluate_primal(self, y: np.ndarray, tol: float = 0.0) -> float:
        y = np.asarray(y, dtype=float)
        slack = tol * (1.0 + float(np.max(np.abs(y))))
        return 0.0 if self.domain_violation(y) <= slack else -_INF

    def initial_prices(self) -> np.ndarray:
        start = 0.3 + 0.4 * (np.arange(self.dim) + 1.0) / (self.dim + 1.0)
        start[self.conservation.source] = 0.25
        start[self.conservation.sink] = 0.85
        return start

    def domain_violation(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        s, t = self.conservation.source, self.conservation.sink
        worst = max(0.0, self.conservation.target - float(y[t]))
        worst = max(worst, -(float(y[s]) + float(y[t])))
        interior = y[self._interior]
        if len(interior):
            worst = max(worst, -float(np.min(interior)))
        return max(worst, 0.0)

    def recovery_target(self, prices, conj_result):
        # Route exactly the target, with interior nodes conserving, at
        # every price.  At uniform source and sink prices the conjugate's
        # maximizer is not unique, and leaving the two ends free there
        # would let the fit route nothing.
        s, t = self.conservation.source, self.conservation.sink
        target = np.zeros(self.dim)
        target[s] = -self.conservation.target
        target[t] = self.conservation.target
        return target, np.ones(self.dim, dtype=bool)


class FisherObjective(ObjectiveOracle):
    """Budget-weighted log utilities for buyers plus unit good supplies.

    Nodes are ordered buyers first, then goods.  Buyer coordinates carry
    ``b_i * log(y_i)``; good coordinates carry the indicator of
    ``y >= -1`` (one divisible unit of each good).
    """

    def __init__(self, budgets, n_goods: int):
        self.budgets = _finite_array(budgets, "budgets")
        if np.any(self.budgets < 0):
            raise ValueError("budgets must be nonnegative")
        if n_goods < 1:
            raise ValueError("need at least one good")
        self.n_buyers = len(self.budgets)
        self.n_goods = int(n_goods)
        self.dim = self.n_buyers + self.n_goods

    def conj(self, prices: np.ndarray) -> ConjugateValue:
        prices = np.asarray(prices, dtype=float)
        if np.any(prices < 0.0):
            return _infinite()
        buyer_prices = prices[: self.n_buyers]
        good_prices = prices[self.n_buyers :]
        active = self.budgets > 0.0
        if np.any(buyer_prices[active] == 0.0):
            return _infinite()
        value = float(np.sum(good_prices))
        buyer_flow = np.zeros(self.n_buyers)
        with np.errstate(divide="ignore", invalid="ignore"):
            buyer_flow[active] = self.budgets[active] / buyer_prices[active]
        value += float(
            np.sum(self.budgets[active] * np.log(buyer_flow[active]) - self.budgets[active])
        )
        maximizer = np.concatenate([buyer_flow, -np.ones(self.n_goods)])
        non_unique = bool(np.any(good_prices == 0.0)) or bool(
            np.any((~active) & (buyer_prices == 0.0))
        )
        return ConjugateValue(value=value, maximizer=maximizer, non_unique=non_unique)

    def evaluate_primal(self, y: np.ndarray, tol: float = 0.0) -> float:
        y = np.asarray(y, dtype=float)
        slack = tol * (1.0 + float(np.max(np.abs(y))))
        buyers = y[: self.n_buyers]
        goods = y[self.n_buyers :]
        if np.any(goods < -1.0 - slack):
            return -_INF
        active = self.budgets > 0.0
        if np.any(buyers[active] <= 0.0):
            return -_INF
        return float(np.sum(self.budgets[active] * np.log(buyers[active])))

    def domain_violation(self, y: np.ndarray) -> float:
        goods = np.asarray(y, dtype=float)[self.n_buyers :]
        return max(0.0, -1.0 - float(np.min(goods))) if len(goods) else 0.0

    def initial_prices(self) -> np.ndarray:
        # A slight spread avoids starting exactly on valuation ties.
        return 1.0 + (np.arange(self.dim) + 1.0) / (10.0 * (self.dim + 1.0))


class QuadraticPenalty(ConjugateOracle):
    """Edge utility penalizing tendered flow: ``V(x) = -1/2 |x_-|^2``.

    The conjugate is ``1/2 |xi|^2`` on ``xi >= 0`` with maximizer
    ``-xi``, infinite for any negative coordinate.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)

    def conj(self, prices: np.ndarray) -> ConjugateValue:
        xi = np.asarray(prices, dtype=float)
        if (xi < 0.0).any():
            return _infinite()
        return ConjugateValue(value=0.5 * float(xi @ xi), maximizer=-xi)

    def evaluate_primal(self, x: np.ndarray, tol: float = 0.0) -> float:
        tendered = np.minimum(np.asarray(x, dtype=float), 0.0)
        return -0.5 * float(tendered @ tendered)


def linear_nonneg_conj(c, prices) -> ConjugateValue:
    """Conjugate of a linear utility over the nonnegative orthant."""
    return LinearNonnegObjective(c).conj(np.asarray(prices, dtype=float))


def opf_quadratic_conj(demands, prices) -> ConjugateValue:
    """Conjugate of the quadratic generation-cost objective."""
    return OpfQuadraticObjective(demands).conj(np.asarray(prices, dtype=float))


def maxflow_conj(n: int, prices) -> ConjugateValue:
    """Conjugate of the max-throughput objective on ``n`` nodes."""
    return MaxFlowObjective(n).conj(np.asarray(prices, dtype=float))


def mincost_conj(n: int, target: float, prices) -> ConjugateValue:
    """Conjugate of the fixed-throughput routing indicator."""
    return MinCostObjective(n, target).conj(np.asarray(prices, dtype=float))


def fisher_conj(budgets, n_goods: int, prices) -> ConjugateValue:
    """Conjugate of the budget-weighted log utility market objective."""
    return FisherObjective(budgets, n_goods).conj(np.asarray(prices, dtype=float))


def quadratic_penalty_conj(prices) -> ConjugateValue:
    """Conjugate of the tendered-flow penalty."""
    xi = np.asarray(prices, dtype=float)
    return QuadraticPenalty(len(xi)).conj(xi)
