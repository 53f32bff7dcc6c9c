"""Two-node edges driven by concave gain functions.

A two-node edge is parametrized by its gain function ``h``: tendering
``w`` units at the input node yields at most ``h(w)`` units at the
output node, so the allowable flows are ``{(-w, t) : t <= h(w)}``.  The
price subproblem collapses to a scalar concave maximization

    maximize  -p_in * w + p_out * h(w)

whose optimality condition brackets the price ratio between the one-sided
slopes of ``h``.  Every bundled gain answers it in closed form
(:meth:`GainFunction.closed_form_arbitrage`); other gains fall back to
the reference solve :func:`solve_scalar_arbitrage`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .base import (
    ArbitrageResult,
    InvalidEdgeError,
    UnboundedEdgeError,
    EdgeOracle,
    require_nonnegative_prices,
)

__all__ = [
    "GainFunction",
    "LinearGain",
    "PiecewiseLinearGain",
    "PowerLossGain",
    "CallableGain",
    "TwoNodeEdge",
    "ScalarArbitrage",
    "solve_scalar_arbitrage",
    "opf_arbitrage",
    "opf_loss",
    "lossless_edge",
    "linear_gain_edge",
    "piecewise_linear_edge",
    "opf_line_edge",
    "concave_gain_edge",
]

# Interval tolerance for the scalar solves, relative to the search span.
_SOLVE_TOL = 1e-10
# Expansion limit when hunting for a bracket on an unbounded domain.
_BRACKET_LIMIT = 1e15
_LOG2 = math.log(2.0)


class GainFunction(ABC):
    """Concave input/output curve of a two-node edge.

    The effective domain is the closed interval ``[input_lo, input_hi]``
    (either end may be infinite); ``value`` returns ``-inf`` outside it.
    One-sided slopes follow the concave conventions at the boundary: the
    left slope at ``input_lo`` is ``+inf`` and the right slope at
    ``input_hi`` is ``-inf``.
    """

    input_lo: float
    input_hi: float

    #: Whether left_slope/right_slope are exact.  When False the reference
    #: solve uses value-only golden-section search instead of bisecting
    #: the slope condition.
    has_exact_slopes: bool = True

    #: True when the curve is strictly concave on its domain.
    is_strictly_concave: bool = False

    @abstractmethod
    def value(self, w: float) -> float:
        """Maximum output for input ``w`` (``-inf`` outside the domain)."""

    @abstractmethod
    def right_slope(self, w: float) -> float:
        """Right derivative at ``w`` (``-inf`` at the right boundary)."""

    @abstractmethod
    def left_slope(self, w: float) -> float:
        """Left derivative at ``w`` (``+inf`` at the left boundary)."""

    def linear_segments(self) -> list[tuple[float, float, float]] | None:
        """Maximal linear pieces ``(w_a, w_b, slope)``, or None if none exist."""
        return None

    def closed_form_arbitrage(self, p_in: float, p_out: float):
        """Optional fast path for ``p_out > 0``.

        Returns ``(w, h, non_unique)`` with ``h = None`` when the caller
        should evaluate the gain itself, or None when there is no fast
        path.
        """
        return None


@dataclass(frozen=True)
class LinearGain(GainFunction):
    """Linear gain ``h(w) = slope * w`` on ``[input_lo, capacity]``.

    ``slope=1`` gives the classic lossless capacity-limited edge.
    """

    slope: float
    capacity: float
    input_lo: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= self.input_lo:
            raise InvalidEdgeError("capacity must exceed the lower input bound")
        if self.slope < 0:
            raise InvalidEdgeError("gain slope must be nonnegative")
        object.__setattr__(self, "input_hi", float(self.capacity))
        object.__setattr__(
            self, "_segments", [(self.input_lo, float(self.capacity), float(self.slope))]
        )

    def value(self, w: float) -> float:
        if w < self.input_lo or w > self.capacity:
            return -math.inf
        return self.slope * w

    def right_slope(self, w: float) -> float:
        return self.slope if w < self.capacity else -math.inf

    def left_slope(self, w: float) -> float:
        return self.slope if w > self.input_lo else math.inf

    def linear_segments(self) -> list[tuple[float, float, float]]:
        return self._segments

    def closed_form_arbitrage(self, p_in: float, p_out: float):
        # Single segment: saturate on a positive margin, idle otherwise.
        margin = p_out * self.slope - p_in
        if margin > 0.0:
            return self.capacity, self.slope * self.capacity, False
        return self.input_lo, self.slope * self.input_lo, margin == 0.0


class PiecewiseLinearGain(GainFunction):
    """Concave piecewise-linear gain through the given ``(input, output)`` points."""

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = [(float(w), float(h)) for w, h in points]
        if len(pts) < 2:
            raise InvalidEdgeError("need at least two points")
        ws = np.array([p[0] for p in pts])
        hs = np.array([p[1] for p in pts])
        if np.any(np.diff(ws) <= 0):
            raise InvalidEdgeError("inputs must be strictly increasing")
        slopes = np.diff(hs) / np.diff(ws)
        if np.any(np.diff(slopes) > 1e-12 * np.maximum(1.0, np.abs(slopes[:-1]))):
            raise InvalidEdgeError("slopes must be nonincreasing (concavity)")
        self._ws = ws
        self._hs = hs
        self._slopes = slopes
        self.input_lo = float(ws[0])
        self.input_hi = float(ws[-1])

    def value(self, w: float) -> float:
        if w < self.input_lo or w > self.input_hi:
            return -math.inf
        k = int(np.searchsorted(self._ws, w, side="right")) - 1
        k = min(max(k, 0), len(self._slopes) - 1)
        return float(self._hs[k] + self._slopes[k] * (w - self._ws[k]))

    def right_slope(self, w: float) -> float:
        if w >= self.input_hi:
            return -math.inf
        k = int(np.searchsorted(self._ws, w, side="right")) - 1
        k = min(max(k, 0), len(self._slopes) - 1)
        return float(self._slopes[k])

    def left_slope(self, w: float) -> float:
        if w <= self.input_lo:
            return math.inf
        k = int(np.searchsorted(self._ws, w, side="left")) - 1
        k = min(max(k, 0), len(self._slopes) - 1)
        return float(self._slopes[k])

    def linear_segments(self) -> list[tuple[float, float, float]]:
        return [
            (float(self._ws[k]), float(self._ws[k + 1]), float(self._slopes[k]))
            for k in range(len(self._slopes))
        ]

    def closed_form_arbitrage(self, p_in: float, p_out: float):
        w, non_unique = _segment_scan(self.linear_segments(), p_in, p_out)
        return w, None, non_unique


def _segment_scan(
    segments: list[tuple[float, float, float]], p_in: float, p_out: float
) -> tuple[float, bool]:
    """Exact scalar arbitrage over a concave piecewise-linear gain.

    Walks the segments (slopes nonincreasing) while the marginal value
    ``p_out * slope - p_in`` stays positive; a slope matching the price
    ratio exactly leaves the whole segment optimal, reported via the
    non_unique flag with the left endpoint returned.
    """
    w = segments[0][0]
    non_unique = False
    for _, w_b, slope in segments:
        margin = p_out * slope - p_in
        if margin > 0.0:
            w = w_b
            non_unique = False
        else:
            non_unique = margin == 0.0
            break
    return w, non_unique


class PowerLossGain(GainFunction):
    """Transmission-line gain ``h(w) = w - loss(w)`` on ``[0, capacity]``.

    The loss is the logistic-integral family
    ``loss(w) = alpha * (log(1 + exp(beta * w)) - log 2) - 2 * w`` with
    ``alpha * beta = 4``, which pins the marginal gain at zero input to 1.
    """

    has_exact_slopes = True
    is_strictly_concave = True

    def __init__(self, alpha: float, beta: float, capacity: float):
        if capacity <= 0:
            raise InvalidEdgeError("capacity must be positive")
        if abs(alpha * beta - 4.0) > 1e-9:
            raise InvalidEdgeError("loss family requires alpha * beta = 4")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.capacity = float(capacity)
        self.input_lo = 0.0
        self.input_hi = self.capacity

    def value(self, w: float) -> float:
        if w < 0.0 or w > self.capacity:
            return -math.inf
        t = self.beta * w
        softplus = t + math.log1p(math.exp(-t)) if t > 0.0 else math.log1p(math.exp(t))
        return 3.0 * w - self.alpha * (softplus - _LOG2)

    def _slope(self, w: float) -> float:
        # h'(w) = 3 - 4 * sigmoid(beta * w)
        t = self.beta * w
        if t >= 0:
            s = 1.0 / (1.0 + math.exp(-t))
        else:
            e = math.exp(t)
            s = e / (1.0 + e)
        return 3.0 - 4.0 * s

    def right_slope(self, w: float) -> float:
        return self._slope(w) if w < self.capacity else -math.inf

    def left_slope(self, w: float) -> float:
        return self._slope(w) if w > 0.0 else math.inf

    def closed_form_arbitrage(self, p_in: float, p_out: float):
        num = 3.0 * p_out - p_in
        den = p_out + p_in
        if num <= 0.0 or den <= 0.0:
            w = 0.0
        else:
            w = min(max(math.log(num / den) / self.beta, 0.0), self.capacity)
        return w, self.value(w), False


class CallableGain(GainFunction):
    """Gain defined by a plain callable on ``[input_lo, input_hi]``.

    Slopes are one-sided difference quotients and there is no closed
    form, so every query goes to the reference solve, which uses
    value-only golden-section search for it.
    """

    has_exact_slopes = False

    def __init__(self, fn: Callable[[float], float], input_lo: float, input_hi: float):
        if not (math.isfinite(input_lo) and math.isfinite(input_hi)):
            raise InvalidEdgeError("callable gains need a finite domain")
        if input_hi <= input_lo:
            raise InvalidEdgeError("empty domain")
        self._fn = fn
        self.input_lo = float(input_lo)
        self.input_hi = float(input_hi)

    def value(self, w: float) -> float:
        if w < self.input_lo or w > self.input_hi:
            return -math.inf
        return float(self._fn(w))

    def _step(self, w: float) -> float:
        return 1e-7 * max(1.0, abs(w), self.input_hi - self.input_lo)

    def right_slope(self, w: float) -> float:
        if w >= self.input_hi:
            return -math.inf
        d = min(self._step(w), self.input_hi - w)
        return (self.value(w + d) - self.value(w)) / d

    def left_slope(self, w: float) -> float:
        if w <= self.input_lo:
            return math.inf
        d = min(self._step(w), w - self.input_lo)
        return (self.value(w) - self.value(w - d)) / d


@dataclass
class ScalarArbitrage:
    input_amount: float
    flow: np.ndarray
    value: float
    non_unique: bool = False


class TwoNodeEdge(EdgeOracle):
    """Edge between two nodes, local order ``(input node, output node)``."""

    dim = 2

    def __init__(self, gain: GainFunction):
        self.gain = gain
        self.is_strictly_convex = gain.is_strictly_concave

    def evaluate(self, prices: np.ndarray) -> ArbitrageResult:
        value, f_in, f_out, non_unique = self.evaluate_pair(float(prices[0]), float(prices[1]))
        return ArbitrageResult(value=value, flow=np.array([f_in, f_out]), non_unique=non_unique)

    def evaluate_pair(self, p_in: float, p_out: float) -> tuple[float, float, float, bool]:
        """Allocation-free form of :meth:`evaluate`.

        Returns ``(value, flow_in, flow_out, non_unique)`` as scalars;
        the solver's inner loop accumulates these directly.
        """
        if p_in < 0.0 or p_out < 0.0:
            raise ValueError(f"prices must be nonnegative, got ({p_in}, {p_out})")
        gain = self.gain

        if p_out == 0.0:
            if p_in == 0.0:
                w = min(max(0.0, gain.input_lo), gain.input_hi)
                return 0.0, -w, gain.value(w), True
            if not math.isfinite(gain.input_lo):
                raise UnboundedEdgeError(
                    "input can be withdrawn without limit at zero output price"
                )
            w = gain.input_lo
            return -p_in * w, -w, gain.value(w), False

        fast = gain.closed_form_arbitrage(p_in, p_out)
        if fast is not None:
            w, h, non_unique = fast
            if h is None:
                h = gain.value(w)
            return -p_in * w + p_out * h, -w, h, non_unique

        res = solve_scalar_arbitrage(self, (p_in, p_out))
        return res.value, float(res.flow[0]), float(res.flow[1]), res.non_unique

    def is_member(self, flow: np.ndarray, tol: float) -> bool:
        flow = np.asarray(flow, dtype=float)
        scale = tol * (1.0 + float(np.max(np.abs(flow))))
        w = -flow[0]
        gain = self.gain
        if w < gain.input_lo - scale or w > gain.input_hi + scale:
            return False
        w_c = min(max(w, gain.input_lo), gain.input_hi)
        return flow[1] <= gain.value(w_c) + scale

    def supported_face(self, prices: np.ndarray, rel_tol: float = 1e-6):
        segments = self.gain.linear_segments()
        if segments is None:
            return None
        prices = np.asarray(prices, dtype=float)
        p_in, p_out = float(prices[0]), float(prices[1])
        if p_in == 0.0 and p_out == 0.0:
            # Every flow is optimal; for a single-piece gain the boundary
            # itself is the (only) recoverable segment.
            if len(segments) == 1:
                w_a, w_b, _ = segments[0]
                return (
                    np.array([-w_a, self.gain.value(w_a)]),
                    np.array([-w_b, self.gain.value(w_b)]),
                )
            return None
        if p_out <= 0.0:
            return None
        for w_a, w_b, slope in segments:
            if abs(p_in - slope * p_out) <= rel_tol * (p_in + p_out):
                p = np.array([-w_a, self.gain.value(w_a)])
                q = np.array([-w_b, self.gain.value(w_b)])
                return p, q
        return None


def solve_scalar_arbitrage(edge: TwoNodeEdge, prices) -> ScalarArbitrage:
    """Reference solve of the scalar price subproblem of a two-node edge.

    It never consults :meth:`GainFunction.closed_form_arbitrage`: the
    tests check the closed forms against it, and
    :meth:`TwoNodeEdge.evaluate_pair` falls back to it for gains that
    have no closed form.  With exact slopes it
    bisects the monotone slope condition ``p_out * h'(w) = p_in`` inside
    a bracket and snaps to a kink of a piecewise-linear gain; without
    them it runs golden-section search on the objective values.  A zero
    output price follows the conventions of ``evaluate_pair``.

    Args:
        edge: The two-node edge.
        prices: Nonnegative ``(input price, output price)`` pair.

    Raises:
        UnboundedEdgeError: The objective grows without bound or its
            supremum is not attained at any finite input.
    """
    prices = require_nonnegative_prices(np.asarray(prices, dtype=float))
    p_in, p_out = float(prices[0]), float(prices[1])
    gain = edge.gain

    def finish(w: float, non_unique: bool = False) -> ScalarArbitrage:
        h = gain.value(w)
        return ScalarArbitrage(
            input_amount=w,
            flow=np.array([-w, h]),
            value=-p_in * w + p_out * h,
            non_unique=non_unique,
        )

    if p_out == 0.0:
        value, f_in, f_out, non_unique = edge.evaluate_pair(p_in, 0.0)
        return ScalarArbitrage(
            input_amount=-f_in,
            flow=np.array([f_in, f_out]),
            value=value,
            non_unique=non_unique,
        )

    if not gain.has_exact_slopes:
        w, non_unique = _golden_section(
            lambda w: -p_in * w + p_out * gain.value(w), gain.input_lo, gain.input_hi
        )
        return finish(w, non_unique)

    lo, hi = _slope_bracket(gain, p_in, p_out)
    if lo == hi:
        return finish(lo)
    span = hi - lo
    tol = _SOLVE_TOL * max(1.0, span)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if p_out * gain.right_slope(mid) - p_in > 0.0:
            lo = mid
        else:
            hi = mid
    # A kink inside the final interval is the exact optimum; snap to it.
    candidates = [lo, hi]
    segments = gain.linear_segments()
    if segments is not None:
        for w_a, w_b, _ in segments:
            candidates.extend(w for w in (w_a, w_b) if lo <= w <= hi)
    best = max(candidates, key=lambda w: -p_in * w + p_out * gain.value(w))
    return finish(best)


def _slope_bracket(gain: GainFunction, p_in: float, p_out: float) -> tuple[float, float]:
    """Bracket [lo, hi] with the slope condition positive at lo, nonpositive at hi."""

    def margin_right(w: float) -> float:
        return p_out * gain.right_slope(w) - p_in

    def margin_left(w: float) -> float:
        return p_out * gain.left_slope(w) - p_in

    lo = gain.input_lo
    if math.isfinite(lo):
        if margin_right(lo) <= 0.0:
            return lo, lo
    else:
        lo = -1.0
        while margin_left(lo) < 0.0:
            lo *= 2.0
            if -lo > _BRACKET_LIMIT:
                raise UnboundedEdgeError("no lower bracket for the slope condition")
        if margin_right(lo) <= 0.0:
            return lo, lo

    hi = gain.input_hi
    if math.isfinite(hi):
        if margin_left(hi) >= 0.0:
            return hi, hi
    else:
        hi = max(1.0, 2.0 * abs(lo))
        while margin_right(hi) > 0.0:
            hi *= 2.0
            if hi > _BRACKET_LIMIT:
                raise UnboundedEdgeError("objective keeps improving for arbitrarily large inputs")
    return lo, hi


def _golden_section(
    fn: Callable[[float], float], lo: float, hi: float
) -> tuple[float, bool]:
    """Maximize a concave function on [lo, hi] by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    tol = _SOLVE_TOL * max(1.0, hi - lo)
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b), False


def opf_loss(alpha: float, beta: float, w) -> float:
    """Transmission loss of the logistic-integral family at input ``w``."""
    return alpha * (np.logaddexp(0.0, beta * np.asarray(w, float)) - math.log(2.0)) - 2.0 * np.asarray(w, float)


def opf_arbitrage(alpha: float, beta: float, capacity: float, prices) -> tuple[float, float]:
    """Closed-form scalar arbitrage for a transmission line.

    Delegates to :meth:`PowerLossGain.closed_form_arbitrage`: the slope
    condition ``p_out * h'(w) = p_in`` solves to
    ``w = log((3*p_out - p_in) / (p_out + p_in)) / beta`` projected onto
    ``[0, capacity]``; a nonpositive log argument and all-zero prices
    both give zero input.

    Returns:
        ``(w, value)`` with ``value`` the optimal objective.

    Raises:
        InvalidEdgeError: ``alpha * beta != 4`` or a nonpositive capacity.
        ValueError: A negative price.
    """
    gain = PowerLossGain(alpha, beta, capacity)
    p_in, p_out = float(prices[0]), float(prices[1])
    if p_in < 0 or p_out < 0:
        raise ValueError("prices must be nonnegative")
    w, h, _ = gain.closed_form_arbitrage(p_in, p_out)
    return w, -p_in * w + p_out * h


def lossless_edge(capacity: float) -> TwoNodeEdge:
    """Capacity-limited edge that conserves flow one way."""
    return TwoNodeEdge(LinearGain(slope=1.0, capacity=capacity))


def linear_gain_edge(gain: float, capacity: float) -> TwoNodeEdge:
    """Edge multiplying its input by a constant factor, up to ``capacity`` input."""
    return TwoNodeEdge(LinearGain(slope=gain, capacity=capacity))


def piecewise_linear_edge(points: Sequence[tuple[float, float]]) -> TwoNodeEdge:
    return TwoNodeEdge(PiecewiseLinearGain(points))


def opf_line_edge(alpha: float, beta: float, capacity: float) -> TwoNodeEdge:
    """Lossy transmission line with the logistic-integral loss family."""
    return TwoNodeEdge(PowerLossGain(alpha, beta, capacity))


def concave_gain_edge(
    gamma: Callable[[float], float], capacity: float, probe_points: int = 33
) -> TwoNodeEdge:
    """Edge from a user-supplied concave nondecreasing gain on ``[0, capacity]``.

    Concavity, monotonicity and ``gamma(0) >= 0`` are checked on a probe
    grid (best effort, not a proof).

    Raises:
        InvalidEdgeError: A probe violates the requirements.
    """
    grid = np.linspace(0.0, capacity, probe_points)
    vals = np.array([float(gamma(w)) for w in grid])
    if vals[0] < -1e-12:
        raise InvalidEdgeError("gain must be nonnegative at zero input")
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.any(np.diff(vals) < -1e-9 * scale):
        raise InvalidEdgeError("gain must be nondecreasing on the probe grid")
    mids = 0.5 * (grid[:-1] + grid[1:])
    mid_vals = np.array([float(gamma(w)) for w in mids])
    if np.any(mid_vals < 0.5 * (vals[:-1] + vals[1:]) - 1e-9 * scale):
        raise InvalidEdgeError("gain fails midpoint concavity on the probe grid")
    return TwoNodeEdge(CallableGain(gamma, 0.0, capacity))
