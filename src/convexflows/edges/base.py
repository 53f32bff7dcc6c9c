"""Edge oracle interface: allowable-flow sets answered through price queries.

An edge oracle represents a closed convex set of allowable flows.  Its
central operation is the price subproblem: given nonnegative local
prices, find the most valuable allowable flow.  The optimal value, as a
function of the prices, is the set's support function; the maximizer is
the flow the solver assembles into primal candidates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EdgeError",
    "InvalidEdgeError",
    "UnboundedEdgeError",
    "ArbitrageResult",
    "EdgeOracle",
]


class EdgeError(Exception):
    """Base class for edge oracle failures."""


class InvalidEdgeError(EdgeError, ValueError):
    """Edge construction parameters violate the oracle's requirements."""


class UnboundedEdgeError(EdgeError):
    """The price subproblem has no attained maximizer at the given prices."""


class UnattainedSupremumError(UnboundedEdgeError):
    """The supremum is finite but approached only in the limit.

    Happens at degenerate (zero) prices on open trade sets; solvers may
    treat such boundary points as infinitely bad rather than fatal.
    """


@dataclass
class ArbitrageResult:
    """Outcome of one price subproblem.

    Attributes:
        value: Optimal objective, equal to ``prices @ flow``.
        flow: A maximizing allowable flow.
        non_unique: True when other maximizers achieve the same value,
            which makes the surrounding dual function nonsmooth here.
    """

    value: float
    flow: np.ndarray
    non_unique: bool = False


class EdgeOracle(ABC):
    """Allowable-flow set exposed through price queries.

    Implementations are immutable after construction and evaluations are
    pure, so a solver may query many edges concurrently.  The base class
    has no instance dictionary of its own; a subclass that lists its
    fields in ``__slots__`` should also list ``__dict__``, so that a
    profiler can still shadow its methods per instance.

    An oracle whose edge may carry the quadratic penalty on tendered flow
    (``objectives.QuadraticPenalty``) also defines
    ``evaluate_penalized(prices)``: the maximum of
    ``prices @ x - 1/2 |x_-|^2`` over the allowable flows, as an
    :class:`ArbitrageResult` whose ``value`` includes the penalty.  The
    CFMM pools and two-node edges do.
    """

    __slots__ = ()

    #: Number of local coordinates (nodes incident to the edge).
    dim: int

    #: True when the price subproblem has a unique maximizer for any
    #: strictly positive prices (strictly curved boundary).
    is_strictly_convex: bool = False

    @abstractmethod
    def evaluate(self, prices: np.ndarray) -> ArbitrageResult:
        """Maximize ``prices @ x`` over the allowable flows.

        Args:
            prices: Nonnegative local price vector of length ``dim``.

        Raises:
            UnboundedEdgeError: If no maximizer is attained.
        """

    @abstractmethod
    def is_member(self, flow: np.ndarray, tol: float) -> bool:
        """Test set membership with residuals scaled by ``tol * (1 + |flow|_inf)``;
        a flow with a non-finite entry is never a member."""

    def supported_face(self, prices: np.ndarray, rel_tol: float = 1e-6):
        """Endpoints ``(p, q)`` of a supported line segment, or None.

        Only piecewise-linear two-node edges report segments; every other
        oracle returns None, meaning the maximizer is treated as unique.
        """
        return None


def require_nonnegative_prices(prices: np.ndarray) -> np.ndarray:
    prices = np.asarray(prices, dtype=float)
    if (prices < 0).any():
        raise ValueError(f"prices must be nonnegative, got {prices}")
    return prices


def require_pair_prices(prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two price columns of an ``m x 2`` block, after the negative-price
    check of the two-node ``evaluate_pair`` over them; it names the first
    offending row's prices."""
    p_in, p_out = prices.T
    bad = (p_in < 0.0) | (p_out < 0.0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"prices must be nonnegative, got ({float(p_in[k])}, {float(p_out[k])})")
    return p_in, p_out
