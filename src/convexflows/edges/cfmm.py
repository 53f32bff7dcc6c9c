"""Constant function market maker edges.

A pool holds reserves ``R`` and accepts a trade ``z`` (positive entries
received from the pool, negative entries tendered to it) whenever the
trading function value at the post-trade reserves ``R + fee * tendered -
received`` does not drop below its pre-trade value.  All bundled pools
use weighted geometric mean trading functions, for which the price
subproblem has closed forms: directly for two assets, and in general
through a scalar dual whose log residual is piecewise linear in the log
multiplier, so that its root is a weighted mean of knots found by a
scan over at most ``2 * dim - 1`` pieces.  The penalized price
subproblem ``sup_x [p·x - 1/2 |x_-|^2]``, the one an edge with a
quadratic penalty on its tendered flow poses, reduces to the same
scalar dual for every pool size (:func:`_penalized_trade`).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .base import (
    ArbitrageResult,
    EdgeOracle,
    InvalidEdgeError,
    UnattainedSupremumError,
    require_nonnegative_prices,
)

__all__ = [
    "TwoAssetGeometricPool",
    "GeometricMeanPool",
    "uniswap_arbitrage",
    "separable_cfmm_arbitrage",
]

# Newton steps of the penalized scalar dual; each one either takes the
# Newton step or halves the bracket, in log space.
_PENALIZED_ITERS = 100


def _real(value) -> float:
    """``value`` as a Python float; booleans, strings and containers raise
    ``TypeError`` (``float`` alone would read ``True`` as 1.0)."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past the float range
            return math.inf
    raise TypeError(f"not a number: {value!r}")


def _scalar(value, name: str) -> float:
    try:
        return _real(value)
    except TypeError:
        raise InvalidEdgeError(f"{name} must be a number, got {value!r}") from None


def _vector(values, name: str) -> tuple[float, ...]:
    """A reserves or weights vector as a tuple of Python floats."""
    try:
        items = tuple(values)
        if all(type(v) is float for v in items):
            return items
        return tuple([_real(v) for v in items])
    except TypeError:
        raise InvalidEdgeError(f"{name} must be a list of numbers, got {values!r}") from None


def _validate_pool(reserves, fee) -> tuple[tuple[float, ...], float]:
    reserves = _vector(reserves, "reserves")
    fee = _scalar(fee, "fee")
    # Written as "not in range" so that a NaN fails the checks too.
    if not all(0.0 < r < math.inf for r in reserves):
        raise InvalidEdgeError(f"reserves must be positive and finite, got {list(reserves)}")
    if not (0.0 < fee <= 1.0):
        raise InvalidEdgeError(f"fee must lie in (0, 1], got {fee}")
    return reserves, fee


def _membership(reserves, weights, fee, flow, tol) -> bool:
    """Scaled residual test for the invariant and the reserve signs."""
    flow = np.asarray(flow, dtype=float)
    scale = tol * (1.0 + float(np.max(np.abs(flow))))
    tendered = np.maximum(-flow, 0.0)
    received = np.maximum(flow, 0.0)
    post = reserves + fee * tendered - received
    sign_viol = max(0.0, -float(np.min(post))) / max(1.0, float(np.max(reserves)))
    post_clip = np.maximum(post, 0.0)
    log_pre = float(np.dot(weights, np.log(reserves)))
    with np.errstate(divide="ignore"):
        log_post = float(np.dot(weights, np.log(post_clip)))
    inv_viol = max(0.0, math.expm1(log_pre - log_post)) if math.isfinite(log_post) else math.inf
    return max(sign_viol, inv_viol) <= scale


def _penalized_post(lam: float, p: float, r: float, w: float, fee: float) -> tuple[float, float, float]:
    """One asset's post-trade reserve at multiplier ``lam`` in the
    penalized subproblem, its log slope ``d log(post) / d log(lam)`` and
    the amount tendered.

    The receive side and the idle band are those of the plain subproblem.
    On the tender side the penalty bends the stationarity condition into
    ``(p + t) * (r + fee * t) = lam * fee * w``, a quadratic in ``t``
    solved in its cancellation-free form.
    """
    if p > 0.0:
        base = lam * w / p
        if base < r:
            return base, 1.0, 0.0  # receive side
    c = p * r - lam * fee * w
    if c >= 0.0:
        return r, 0.0, 0.0  # idle band
    b = r + fee * p
    t = -2.0 * c / (b + math.sqrt(b * b - 4.0 * fee * c))
    post = r + fee * t
    a = fee * (p + t)
    return post, a / (post + a), t


def _penalized_trade(prices, reserves, weights, fee: float) -> tuple[float, list[float]]:
    """Maximize ``prices @ x - 1/2 |x_-|^2`` over a geometric mean pool's trades.

    Shared by both pool classes.  For a fixed multiplier ``lam`` on the
    invariant the problem separates by asset (:func:`_penalized_post`),
    and the log residual ``sum_j w_j log(post_j / r_j)`` is increasing in
    ``log(lam)``.  Its root is found by Newton steps on ``log(lam)``
    inside a bracket that every step shrinks; a step that would leave the
    bracket halves it instead.  The bracket is the plain subproblem's,
    ``[min_j s_j, max_j s_j / fee]`` with ``s_j = p_j r_j / w_j``, widened
    downwards when a zero price leaves its lower end above the root (an
    asset priced at zero is tendered at any ``lam > 0``, as its first
    unit costs nothing).  Unlike the plain subproblem, zero prices need no
    special case: the penalty bounds what is tendered.

    Returns ``(value, flow)`` with the flow as Python floats; the
    maximizer is unique.
    """
    if min(prices) < 0.0:
        raise ValueError(f"prices must be nonnegative, got {list(prices)}")
    dim = len(prices)
    s = [p * r / w for p, r, w in zip(prices, reserves, weights)]
    # No-trade band of the plain subproblem; the penalty only acts on
    # trades, so the band is the same (all-zero prices fall in it).
    if not fee * max(s) > min(s):
        return 0.0, [0.0] * dim

    def residual(u: float) -> tuple[float, float]:
        lam = math.exp(u)
        resid = slope = 0.0
        for p, r, w in zip(prices, reserves, weights):
            post, d, _ = _penalized_post(lam, p, r, w, fee)
            if post != r:
                resid += w * math.log(post / r)
                slope += w * d
        return resid, slope

    hi = math.log(max(s) / fee)
    positive = [v for v in s if v > 0.0]
    lo = math.log(min(positive))
    if len(positive) == dim:
        # Start where the receive side alone would balance: the weighted
        # log mean of the s_j, the exact root of the plain subproblem at
        # fee 1.
        u = sum(w * math.log(v) for w, v in zip(weights, s))
    else:
        while residual(lo)[0] > 0.0:
            lo -= 1.0
        u = 0.5 * (lo + hi)
    if not lo < u < hi:
        u = 0.5 * (lo + hi)
    for _ in range(_PENALIZED_ITERS):
        resid, slope = residual(u)
        if resid == 0.0:
            break
        if resid < 0.0:
            lo = u
        else:
            hi = u
        step = -resid / slope if slope > 0.0 else math.nan
        if abs(step) <= 4e-16 * max(1.0, abs(u)):
            break
        u += step
        if not lo < u < hi:
            u = 0.5 * (lo + hi)

    lam = math.exp(u)
    value = 0.0
    flow = []
    for p, r, w in zip(prices, reserves, weights):
        post, _, t = _penalized_post(lam, p, r, w, fee)
        x = -t if t > 0.0 else r - post
        flow.append(x)
        value += p * x - 0.5 * t * t
    return value, flow


class TwoAssetGeometricPool(EdgeOracle):
    """Two-asset pool with trading function ``R1^w * R2^(1-w)``.

    ``weight = 1/2`` is the classic product market; other weights give
    weighted swap markets.  The price subproblem is solved in closed
    form: the no-trade price band is the fee-scaled marginal price of
    the pool, and outside it the post-trade reserves follow from the
    stationarity of the traded amount.

    The pool keeps one copy of its data, as Python floats; ``reserves``
    and ``weights`` build a fresh array on each access, and every other
    field is read-only, so the cached log invariant cannot go stale.
    """

    __slots__ = ("_r0", "_r1", "_weight", "_fee", "_log_inv", "__dict__")

    def __init__(self, reserves, weight: float = 0.5, fee: float = 1.0):
        reserves, fee = _validate_pool(reserves, fee)
        if len(reserves) != 2:
            raise InvalidEdgeError("two-asset pool needs exactly two reserves")
        weight = _scalar(weight, "weight")
        if not (0.0 < weight < 1.0):
            raise InvalidEdgeError(f"weight must lie in (0, 1), got {weight}")
        self._r0, self._r1 = reserves
        self._weight = weight
        self._fee = fee
        # Log of the trading function.  The dot product stays in numpy: it
        # may round as a chain of fused multiply-adds, which
        # ``w0 * l0 + w1 * l1`` in Python does not reproduce bit for bit.
        self._log_inv = float(np.dot((weight, 1.0 - weight), np.log(reserves)))

    @property
    def dim(self) -> int:
        return 2

    @property
    def is_strictly_convex(self) -> bool:
        return True

    @property
    def weight(self) -> float:
        return self._weight

    @property
    def fee(self) -> float:
        return self._fee

    @property
    def reserves(self) -> np.ndarray:
        return np.array([self._r0, self._r1])

    @property
    def weights(self) -> np.ndarray:
        return np.array([self._weight, 1.0 - self._weight])

    def marginal_price(self) -> float:
        """Pool price of asset 1 in units of asset 2, before fees."""
        w = self._weight
        return (w / self._r0) / ((1.0 - w) / self._r1)

    def evaluate(self, prices: np.ndarray) -> ArbitrageResult:
        value, f1, f2, non_unique = self.evaluate_pair(float(prices[0]), float(prices[1]))
        return ArbitrageResult(value=value, flow=np.array([f1, f2]), non_unique=non_unique)

    def evaluate_pair(self, p1: float, p2: float) -> tuple[float, float, float, bool]:
        """Allocation-free form of :meth:`evaluate` (scalars in and out)."""
        if p1 < 0.0 or p2 < 0.0:
            raise ValueError(f"prices must be nonnegative, got ({p1}, {p2})")
        if p1 == 0.0 or p2 == 0.0:
            raise UnattainedSupremumError(
                "supremum not attained: an asset with zero price can be tendered without limit"
            )
        w, r0, r1, fee = self._weight, self._r0, self._r1, self._fee
        price = (w / r0) / ((1.0 - w) / r1)
        ratio = p1 / p2
        if fee * price <= ratio <= price / fee:
            return 0.0, 0.0, 0.0, False
        if ratio < fee * price:
            tendered, received = self._trade(w, 1.0 - w, r0, r1, p1, p2)
            f1, f2 = -tendered, received
        else:
            tendered, received = self._trade(1.0 - w, w, r1, r0, p2, p1)
            f1, f2 = received, -tendered
        return p1 * f1 + p2 * f2, f1, f2, False

    def _trade(
        self, w_in: float, w_out: float, r_in: float, r_out: float, p_in: float, p_out: float
    ) -> tuple[float, float]:
        """Tender the asset of weight ``w_in`` and reserve ``r_in`` for the
        other one at the stationary point."""
        gamma = self._fee
        ratio = w_in / w_out
        # Stationarity: p_out * d(received)/d(tendered) = p_in, which puts
        # the post-trade input reserve at a weighted geometric mean.
        log_post_in = (
            math.log(gamma * ratio * r_out * p_out / p_in) + ratio * math.log(r_in)
        ) / (ratio + 1.0)
        post_in = math.exp(log_post_in)
        tendered = (post_in - r_in) / gamma
        post_out = math.exp((self._log_inv - w_in * log_post_in) / w_out)
        return tendered, r_out - post_out

    def evaluate_penalized(self, prices) -> ArbitrageResult:
        """Maximize ``prices @ x - 1/2 |x_-|^2`` over the pool's trades
        (:func:`_penalized_trade`); ``value`` includes the penalty."""
        reserves, weights = (self._r0, self._r1), (self._weight, 1.0 - self._weight)
        value, flow = _penalized_trade([float(p) for p in prices], reserves, weights, self._fee)
        return ArbitrageResult(value=value, flow=np.array(flow))

    def is_member(self, flow: np.ndarray, tol: float) -> bool:
        return _membership(self.reserves, self.weights, self._fee, flow, tol)


class GeometricMeanPool(EdgeOracle):
    """Weighted geometric mean pool over any number of assets.

    The log transform makes the trading function separable, so the price
    subproblem reduces to one multiplier ``lam`` on the invariant, and
    each asset's inner problem has a closed form.  The invariant's log
    residual is piecewise linear in ``log(lam)``, so its root is found
    exactly by a scan over the pieces between the assets' knots.
    ``fee`` and ``dim`` are read-only, as is the rest of the pool's data.
    """

    __slots__ = ("_r", "_w", "_fee", "_dim", "__dict__")

    def __init__(self, reserves, weights, fee: float = 1.0):
        reserves, fee = _validate_pool(reserves, fee)
        weights = _vector(weights, "weights")
        if len(weights) != len(reserves) or len(weights) < 2:
            raise InvalidEdgeError("need one positive weight per asset")
        if not all(w > 0.0 for w in weights) or not abs(sum(weights) - 1.0) <= 1e-9:
            raise InvalidEdgeError("weights must be positive and sum to one")
        self._r = reserves
        self._w = weights
        self._fee = fee
        self._dim = len(reserves)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def is_strictly_convex(self) -> bool:
        return True

    @property
    def fee(self) -> float:
        return self._fee

    @property
    def reserves(self) -> np.ndarray:
        return np.array(self._r)

    @property
    def weights(self) -> np.ndarray:
        return np.array(self._w)

    def evaluate(self, prices: np.ndarray) -> ArbitrageResult:
        prices = require_nonnegative_prices(prices)
        if (prices == 0.0).all():
            return ArbitrageResult(value=0.0, flow=np.zeros(self._dim))
        if (prices == 0.0).any():
            raise UnattainedSupremumError(
                "supremum not attained: an asset with zero price can be tendered without limit"
            )
        # No-trade test: a single multiplier can scale the pool's marginal
        # prices into the fee band around the quoted prices.
        p = [float(v) for v in prices]
        w, fee = self._w, self._fee
        s = [p[j] * self._r[j] / w[j] for j in range(self._dim)]
        if fee * max(s) <= min(s):
            return ArbitrageResult(value=0.0, flow=np.zeros(self._dim))

        # The log residual sum_j w_j log(post_j / r_j) is piecewise linear
        # in u = log(lam): asset j is received below the knot log s_j, idle
        # up to log(s_j / fee) and tendered above it, and each active asset
        # adds w_j (u - knot_j).  On a piece the root is the weighted mean
        # of the active knots; the residual rises with u, so the root lies
        # on the first piece whose upper end the residual reaches.
        log_fee = math.log(fee)
        log_s = [math.log(v) for v in s]
        knots = sorted([(k, j, False) for j, k in enumerate(log_s)]
                       + [(k - log_fee, j, True) for j, k in enumerate(log_s)])
        # Active asset -> the shift of its knot: log(fee) if tendered, else 0.
        active = dict.fromkeys(range(self._dim), 0.0)
        total, moment = sum(w), sum(wj * k for wj, k in zip(w, log_s))
        for knot, j, tender in knots:
            if moment <= total * knot:
                break
            if tender:
                active[j] = log_fee
                total, moment = total + w[j], moment + w[j] * knot
            else:
                del active[j]
                total, moment = total - w[j], moment - w[j] * knot

        # Each active asset's offset u - knot_j, as a weighted mean of
        # knot differences taken from ratios so that nothing cancels; a
        # tendered amount is what enters the pool over the fee.
        weight = sum(w[k] for k in active)
        flow = np.zeros(self._dim)
        for j, shift in active.items():
            offset = sum(
                w[k] * (math.log(s[k] / s[j]) + shift - shift_k) for k, shift_k in active.items()
            )
            flow[j] = -self._r[j] * math.expm1(offset / weight) / (fee if shift else 1.0)
        return ArbitrageResult(value=float(prices @ flow), flow=flow)

    def evaluate_penalized(self, prices) -> ArbitrageResult:
        """Maximize ``prices @ x - 1/2 |x_-|^2`` over the pool's trades
        (:func:`_penalized_trade`); ``value`` includes the penalty."""
        value, flow = _penalized_trade([float(p) for p in prices], self._r, self._w, self._fee)
        return ArbitrageResult(value=value, flow=np.array(flow))

    def is_member(self, flow: np.ndarray, tol: float) -> bool:
        return _membership(self.reserves, self.weights, self._fee, flow, tol)


def uniswap_arbitrage(reserves, fee: float, weight: float, prices) -> tuple[np.ndarray, float]:
    """Optimal trade against a two-asset weighted product pool.

    Args:
        reserves: Positive reserves of the two assets.
        fee: Fee parameter in ``(0, 1]`` (1 means no fee).
        weight: Trading function weight of asset 1.
        prices: Nonnegative external prices of the two assets.

    Returns:
        ``(flow, value)`` for the most valuable acceptable trade.  At a
        zero price the supremum is not attained; the op returns the
        no-trade convention.
    """
    pool = TwoAssetGeometricPool(reserves, weight=weight, fee=fee)
    try:
        res = pool.evaluate(np.asarray(prices, dtype=float))
    except UnattainedSupremumError:
        return np.zeros(2), 0.0
    return res.flow, res.value


def separable_cfmm_arbitrage(weights, reserves, fee: float, prices) -> tuple[np.ndarray, float]:
    """Optimal trade against a weighted geometric mean pool of any size."""
    pool = GeometricMeanPool(reserves, weights, fee=fee)
    res = pool.evaluate(np.asarray(prices, dtype=float))
    return res.flow, res.value
