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
scalar dual for every pool size (:func:`_penalized_rows`).  Each pool
type's plain and penalized subproblems have one form each, over arrays,
one pool of one ``dim`` a row (``evaluate_rows``, ``penalized_rows``):
the dual evaluator answers its pools with them, and a pool's own
``evaluate`` and ``evaluate_penalized`` are one-row calls of them.  Both
pool types share one membership test over rows (``member_rows``), which
``check_feasibility`` runs on a group of pools at once and of which a
pool's ``is_member`` is a one-row call.
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
    require_pair_prices,
)

__all__ = [
    "TwoAssetGeometricPool",
    "GeometricMeanPool",
    "uniswap_arbitrage",
    "separable_cfmm_arbitrage",
]

# A trade whose post-trade reserve overflows has no float answer; the
# solver backs off from such prices as from a zero price.
_PAST_FLOAT_RANGE = "supremum not attained in floating point: the post-trade reserve leaves the float range"

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


def _row(params) -> tuple[np.ndarray, ...]:
    """A pool's ``row_params`` as the one-row columns of its kernel."""
    return tuple(np.array([column]) for column in params)


def _member_rows(reserves, weights, fee, flows, tol) -> np.ndarray:
    """Which rows of an ``m x dim`` flow block lie within ``scale = tol (1
    + |row|_inf)`` of their pool's set, one pool a row.

    Receiving less or tendering more only raises the post-trade
    reserves, so a row counts when the row lowered by ``scale`` in every
    coordinate passes the scaled residual test for the reserve signs and
    the invariant.  Without the shift, the exact answer to a price ratio
    past the float range, a trade whose post-trade reserve rounds to
    zero, would fail the invariant's log though it lies within the slack
    of the set.  A row with a non-finite entry is not a member (it would
    make the scale infinite).
    """
    finite = np.isfinite(flows).all(axis=1)
    flows = np.where(finite[:, None], flows, 0.0)
    scale = tol * (1.0 + np.abs(flows).max(axis=1))
    shifted = flows - scale[:, None]
    post = reserves + fee[:, None] * np.maximum(-shifted, 0.0) - np.maximum(shifted, 0.0)
    sign_viol = np.maximum(-post.min(axis=1), 0.0) / np.maximum(reserves.max(axis=1), 1.0)
    with np.errstate(all="ignore"):
        log_post = np.vecdot(weights, np.log(np.maximum(post, 0.0)))
        inv_viol = np.where(np.isfinite(log_post), np.expm1(np.vecdot(weights, np.log(reserves)) - log_post), math.inf)
    return finite & (np.maximum(sign_viol, np.maximum(inv_viol, 0.0)) <= scale)


def _by_math(fn, values) -> np.ndarray:
    """``fn`` (``math.exp`` or ``math.log``) of each entry of ``values``;
    numpy's differ from these in the last bit on some inputs."""
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


def _asset_sum(terms) -> np.ndarray:
    """The rows of ``terms`` summed from zero in asset order, as a loop adds them."""
    total = np.zeros(len(terms))
    for column in terms.T:
        total = total + column
    return total


def _penalized_posts(lam, p, r, w, fee) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each asset's post-trade reserve at its row's multiplier ``lam`` (a
    column) in the penalized subproblem, its log slope ``d log(post) / d
    log(lam)`` and the amount tendered.  The receive side and the idle
    band are the plain subproblem's; on the tender side the penalty bends
    stationarity into ``(p + t) * (r + fee * t) = lam * fee * w``, a
    quadratic in ``t`` solved in its cancellation-free form."""
    base = lam * w / p
    receive = (p > 0.0) & (base < r)
    c = p * r - lam * fee * w
    tender = ~receive & ~(c >= 0.0)
    b = r + fee * p
    t = np.where(tender, -2.0 * c / (b + np.sqrt(b * b - 4.0 * fee * c)), 0.0)
    post = np.where(receive, base, np.where(tender, r + fee * t, r))
    a = fee * (p + t)
    return post, np.where(receive, 1.0, np.where(tender, a / (post + a), 0.0)), t


def _penalized_rows(reserves, weights, fee, prices):
    """Maximize ``prices @ x - 1/2 |x_-|^2`` over the trades of geometric
    mean pools of one ``dim``, one pool a row (``m x dim`` blocks, ``m``
    fees); returns ``(value, flow, non_unique)``, the penalty in ``value``.

    At a fixed multiplier ``lam`` on the invariant the problem separates
    by asset (:func:`_penalized_posts`), and the log residual ``sum_j w_j
    log(post_j / r_j)`` rises with ``log(lam)``.  Newton steps on
    ``log(lam)`` find its root in a bracket that each step shrinks, or
    halves when the step would leave it: the plain subproblem's ``[min_j
    s_j, max_j s_j / fee]`` (``s_j = p_j r_j / w_j``), widened downwards
    when a zero price puts the root below it.  A row stops at a zero
    residual or a step within ``4e-16`` of its point, and takes the steps
    it would take alone (``math``'s exp and log, all else elementwise,
    sums in asset order).  Rows in the plain no-trade band trade nothing;
    a negative price raises ``ValueError`` for the first such row.
    """
    bad = (prices < 0).any(axis=1)
    if bad.any():
        raise ValueError(f"prices must be nonnegative, got {prices[int(np.argmax(bad))].tolist()}")
    m, dim = prices.shape
    value, flow = np.zeros(m), np.zeros((m, dim))
    with np.errstate(all="ignore"):
        s = prices * reserves / weights
        rows = np.flatnonzero(fee * s.max(axis=1) > s.min(axis=1))
        p, r, w, gamma, s = prices[rows], reserves[rows], weights[rows], fee[rows, None], s[rows]

        def residual(at, u):
            # The log residual at the rows ``at`` and its slope in u; an
            # asset whose reserve stays put adds nothing.
            post, slope, _ = _penalized_posts(_by_math(math.exp, u)[:, None], p[at], r[at], w[at], gamma[at])
            moved = post != r[at]
            logs = _by_math(math.log, np.where(moved, post / r[at], 1.0))
            return _asset_sum(w[at] * logs), _asset_sum(np.where(moved, w[at] * slope, 0.0))

        hi = _by_math(math.log, s.max(axis=1) / gamma[:, 0])
        lo = _by_math(math.log, np.where(s > 0.0, s, math.inf).min(axis=1))
        # Start at the weighted log mean of the s_j, the plain subproblem's
        # root at fee 1, or mid-bracket on a row with a zero s_j.
        full = (s > 0.0).all(axis=1)
        log_s = _by_math(math.log, np.where(full[:, None], s, 1.0))
        widen = np.flatnonzero(~full)
        while len(widen):
            widen = widen[residual(widen, lo[widen])[0] > 0.0]
            lo[widen] -= 1.0
        u = np.where(full, _asset_sum(w * log_s), 0.5 * (lo + hi))
        u = np.where((lo < u) & (u < hi), u, 0.5 * (lo + hi))
        live = np.arange(len(rows))
        for _ in range(_PENALIZED_ITERS):
            if not len(live):
                break
            resid, slope = residual(live, u[live])
            keep = resid != 0.0
            live, resid, slope = live[keep], resid[keep], slope[keep]
            at, below = u[live], resid < 0.0
            lo[live[below]], hi[live[~below]] = at[below], at[~below]
            step = np.where(slope > 0.0, -resid / slope, math.nan)
            keep = ~(np.abs(step) <= 4e-16 * np.maximum(1.0, np.abs(at)))
            live, at = live[keep], at[keep] + step[keep]
            u[live] = np.where((lo[live] < at) & (at < hi[live]), at, 0.5 * (lo[live] + hi[live]))

        post, _, t = _penalized_posts(_by_math(math.exp, u)[:, None], p, r, w, gamma)
        flow[rows] = np.where(t > 0.0, -t, r - post)
        value[rows] = _asset_sum(p * flow[rows] - 0.5 * t * t)
    return value, flow, np.zeros(m, dtype=bool)


class TwoAssetGeometricPool(EdgeOracle):
    """Two-asset pool with trading function ``R1^w * R2^(1-w)``.

    ``weight = 1/2`` is the classic product market; other weights give
    weighted swap markets.  The price subproblem is solved in closed
    form (:meth:`evaluate_rows`): the no-trade price band is the
    fee-scaled marginal price of the pool, and outside it the post-trade
    reserves follow from the stationarity of the traded amount.

    The pool keeps one copy of its data, as Python floats; ``reserves``
    and ``weights`` build a fresh array on each access, and every other
    field is read-only.
    """

    __slots__ = ("_r0", "_r1", "_weight", "_fee", "__dict__")

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
        """:meth:`evaluate` with scalars in and out: a one-row call of
        :meth:`evaluate_rows`."""
        value, flow, _ = self.evaluate_rows(*_row(self.row_params()), np.array([[p1, p2]]))
        f1, f2 = flow[0].tolist()
        return float(value[0]), f1, f2, False

    def row_params(self) -> tuple[float, float, float, float]:
        """``(r0, r1, weight, fee)``: one row of :meth:`evaluate_rows`."""
        return self._r0, self._r1, self._weight, self._fee

    @staticmethod
    def invalid_rows(r0, r1, weight, fee) -> np.ndarray:
        """Which rows of reserves, weights and fees the constructor
        rejects, by its own checks, over arrays."""
        return (
            ~((0.0 < r0) & (r0 < math.inf))
            | ~((0.0 < r1) & (r1 < math.inf))
            | ~((0.0 < fee) & (fee <= 1.0))
            | ~((0.0 < weight) & (weight < 1.0))
        )

    @classmethod
    def row_oracle(cls, r0, r1, weight, fee) -> "TwoAssetGeometricPool":
        """The pool of one row of constructor arguments."""
        return cls((r0, r1), weight, fee)

    @staticmethod
    def evaluate_rows(r0, r1, weight, fee, prices):
        """The pool's price subproblem over arrays, one pool a row.

        ``prices`` is ``m x 2``.  Returns the arrays ``(value, flow,
        non_unique)`` (``flow`` is ``m x 2``).  A row whose price ratio
        lies in the fee band around the pool's marginal price trades
        nothing.  Any other row tenders the asset that is cheap at the
        pool: stationarity, ``p_out * d(received)/d(tendered) = p_in``,
        puts its post-trade reserve at a weighted geometric mean, worked
        out in logs (a price ratio past the float range is split into two
        logs), and the invariant gives the amount received.  A negative
        price raises ``ValueError`` for the first such row, and a zero
        ``p_j r_j`` or a post-trade reserve past the float range in any
        row leaves the supremum unattained.
        """
        p1, p2 = require_pair_prices(prices)
        m = len(p1)
        value, f1, f2 = np.zeros(m), np.zeros(m), np.zeros(m)
        with np.errstate(all="ignore"):
            # A zero price, or one whose s_j = p_j r_j / w_j underflows to
            # zero (exactly when p_j r_j does, as w_j < 1), leaves the
            # supremum unattained.
            if np.any((p1 * r0 == 0.0) | (p2 * r1 == 0.0)):
                raise UnattainedSupremumError(
                    "supremum not attained: an asset with zero price can be tendered without limit"
                )
            price = (weight / r0) / ((1.0 - weight) / r1)
            ratio = p1 / p2
            low = fee * price
            rows = np.flatnonzero(~((low <= ratio) & (ratio <= price / fee)))
            # Per trading row: whether it tenders asset 1, and the weight,
            # reserve and price of the asset tendered (in) and received (out).
            first = ratio[rows] < low[rows]
            w, gamma, q1, q2, a, b = (column[rows] for column in (weight, fee, p1, p2, r0, r1))
            w_in, w_out = np.where(first, w, 1.0 - w), np.where(first, 1.0 - w, w)
            r_in, r_out = np.where(first, a, b), np.where(first, b, a)
            p_in, p_out = np.where(first, q1, q2), np.where(first, q2, q1)
            shape = w_in / w_out
            top = gamma * shape * r_out * p_out
            scale = top / p_in
            log_scale = np.where(scale < math.inf, np.log(scale), np.log(top) - np.log(p_in))
            log_post_in = (log_scale + shape * np.log(r_in)) / (shape + 1.0)
            post_in = np.exp(log_post_in)
            if not np.isfinite(post_in).all():
                raise UnattainedSupremumError(_PAST_FLOAT_RANGE)
            tendered = (post_in - r_in) / gamma
            # The log invariant, one dot product a row.
            log_inv = np.vecdot(np.stack([w, 1.0 - w], 1), np.log(np.stack([a, b], 1)))
            received = r_out - np.exp((log_inv - w_in * log_post_in) / w_out)
            f1[rows] = np.where(first, -tendered, received)
            f2[rows] = np.where(first, received, -tendered)
            value[rows] = q1 * f1[rows] + q2 * f2[rows]
        return value, np.stack([f1, f2], axis=1), np.zeros(m, dtype=bool)

    @staticmethod
    def penalized_rows(r0, r1, weight, fee, prices):
        """The pools' penalized subproblem, one pool a row (:func:`_penalized_rows`)."""
        return _penalized_rows(np.stack([r0, r1], axis=1), np.stack([weight, 1.0 - weight], axis=1), fee, prices)

    def evaluate_penalized(self, prices) -> ArbitrageResult:
        """Maximize ``prices @ x - 1/2 |x_-|^2`` over the pool's trades (a
        one-row call of :meth:`penalized_rows`); ``value`` has the penalty."""
        value, flow, _ = self.penalized_rows(*_row(self.row_params()), np.asarray(prices, dtype=float)[None])
        return ArbitrageResult(value=float(value[0]), flow=flow[0])

    @staticmethod
    def member_rows(r0, r1, weight, fee, flows, tol) -> np.ndarray:
        """The pools' membership test, one pool a row (:func:`_member_rows`)."""
        return _member_rows(np.stack([r0, r1], axis=1), np.stack([weight, 1.0 - weight], axis=1), fee, flows, tol)

    def is_member(self, flow: np.ndarray, tol: float) -> bool:
        """A one-row call of :meth:`member_rows`."""
        return bool(self.member_rows(*_row(self.row_params()), np.asarray(flow, dtype=float)[None], tol)[0])


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
        """A one-row call of :meth:`evaluate_rows`."""
        value, flow, _ = self.evaluate_rows(*_row(self.row_params()), np.asarray(prices, dtype=float)[None])
        return ArbitrageResult(value=float(value[0]), flow=flow[0])

    def row_params(self) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        """``(reserves, weights, fee)``: one row of :meth:`evaluate_rows`."""
        return self._r, self._w, self._fee

    @staticmethod
    def invalid_rows(reserves, weights, fee) -> np.ndarray:
        """Which rows of reserves, weights (``m x dim`` each) and fees the
        constructor rejects, by its own checks, over arrays.  The weights
        are summed left to right, as ``sum`` adds them."""
        return (
            ~((0.0 < reserves) & (reserves < math.inf)).all(axis=1)
            | ~((0.0 < fee) & (fee <= 1.0))
            | ~(weights > 0.0).all(axis=1)
            | ~(np.abs(_asset_sum(weights) - 1.0) <= 1e-9)
        )

    @classmethod
    def row_oracle(cls, reserves, weights, fee) -> "GeometricMeanPool":
        """The pool of one row of constructor arguments."""
        return cls(reserves, weights, fee)

    @staticmethod
    def evaluate_rows(reserves, weights, fee, prices):
        """The pool's price subproblem over arrays, one pool of the same
        ``dim`` a row.

        ``reserves``, ``weights`` and ``prices`` are ``m x dim``, ``fee``
        has ``m`` entries.  Returns the arrays ``(value, flow, non_unique)``
        (``flow`` is ``m x dim``).  A row trades nothing when a single
        multiplier can scale the pool's marginal prices into the fee band
        around the quoted prices.  Every other row is scanned at once: its
        knots sorted (by value, then asset, a receive knot before a tender
        knot), one step of the scan per knot, with the rows that broke off
        left alone.  A negative price raises ``ValueError`` for the first
        such row, and a zero ``s_j`` beside a positive one, or a tendered
        amount past the float range, in any row leaves the supremum
        unattained.
        """
        bad = (prices < 0).any(axis=1)
        if bad.any():
            raise ValueError(f"prices must be nonnegative, got {prices[int(np.argmax(bad))]}")
        m, dim = prices.shape
        value, flow = np.zeros(m), np.zeros((m, dim))
        with np.errstate(all="ignore"):
            # An s_j that is zero, from a zero price or by underflow, counts
            # as a zero price: all zero trade nothing, and some zero leave
            # the supremum unattained.
            s = prices * reserves / weights
            s_max, s_min = s.max(axis=1), s.min(axis=1)
            if np.any((s_min == 0.0) & (s_max != 0.0)):
                raise UnattainedSupremumError(
                    "supremum not attained: an asset with zero price can be tendered without limit"
                )
            rows = np.flatnonzero((s_min != 0.0) & ~(fee * s_max <= s_min))
            t = len(rows)
            s, w, r, gamma = s[rows], weights[rows], reserves[rows], fee[rows]
            log_fee = np.log(gamma)
            log_s = np.log(s)

            # The log residual sum_j w_j log(post_j / r_j) is piecewise
            # linear in u = log(lam): asset j is received below the knot
            # log s_j, idle up to log(s_j / fee) and tendered above it, and
            # each active asset adds w_j (u - knot_j).  On a piece the root
            # is the weighted mean of the active knots; the residual rises
            # with u, so the root lies on the first piece whose upper end
            # the residual reaches.  Receive knots are the first dim
            # columns, tender knots the next dim.
            knots = np.concatenate([log_s, log_s - log_fee[:, None]], axis=1)
            column = np.broadcast_to(np.arange(2 * dim), knots.shape)
            order = np.lexsort((column >= dim, column % dim, knots), axis=1)
            knots = np.take_along_axis(knots, order, axis=1)
            assets, tenders = order % dim, order >= dim
            total, moment = np.zeros(t), np.zeros(t)
            for j in range(dim):
                total, moment = total + w[:, j], moment + w[:, j] * log_s[:, j]
            # Which assets are active, and which of those are tendered.
            live, tendered = np.ones((t, dim), dtype=bool), np.zeros((t, dim), dtype=bool)
            scanning = np.ones(t, dtype=bool)
            at = np.arange(t)
            for step in range(2 * dim):
                knot, j, tender = knots[:, step], assets[:, step], tenders[:, step]
                scanning &= ~(moment <= total * knot)
                w_j = w[at, j]
                total = np.where(scanning, np.where(tender, total + w_j, total - w_j), total)
                moment = np.where(scanning, np.where(tender, moment + w_j * knot, moment - w_j * knot), moment)
                live[at[scanning], j[scanning]] = tendered[at[scanning], j[scanning]] = tender[scanning]

            # Each active asset's offset u - knot_a, as a weighted mean of
            # knot differences: offset[a] sums w_b (diff(b, a) + shift_a -
            # shift_b) over the active b, with shift log(fee) on a tendered
            # asset and diff(b, a) = log(s_b / s_a), taken from the ratio
            # so that nothing cancels.  When the ratios leave the float
            # range the knots span over 700, and the differences of the
            # logs lose nothing that matters there.  Sums run in asset order.
            wide = ~(s_max[rows] / s_min[rows] < math.inf)
            diff = np.where(
                wide[:, None, None], log_s[:, None, :] - log_s[:, :, None], np.log(s[:, None, :] / s[:, :, None])
            )
            shift = np.where(tendered, log_fee[:, None], 0.0)
            terms = w[:, None, :] * (diff + shift[:, :, None] - shift[:, None, :])
            weight, offset = np.zeros(t), np.zeros((t, dim))
            for b in range(dim):
                weight = np.where(live[:, b], weight + w[:, b], weight)
                offset = np.where(live[:, b, None], offset + terms[:, :, b], offset)
            # A tendered amount is what enters the pool over the fee.
            moved = np.expm1(offset / weight[:, None])
            traded = np.where(live, -r * moved / np.where(tendered, gamma[:, None], 1.0), 0.0)
            if not np.isfinite(traded).all():
                raise UnattainedSupremumError(_PAST_FLOAT_RANGE)
            flow[rows] = traded
            value[rows] = np.vecdot(prices[rows], traded)
        return value, flow, np.zeros(m, dtype=bool)

    #: The pools' penalized subproblem, one pool a row (:func:`_penalized_rows`).
    penalized_rows = staticmethod(_penalized_rows)

    def evaluate_penalized(self, prices) -> ArbitrageResult:
        """Maximize ``prices @ x - 1/2 |x_-|^2`` over the pool's trades (a
        one-row call of :meth:`penalized_rows`); ``value`` has the penalty."""
        value, flow, _ = self.penalized_rows(*_row(self.row_params()), np.asarray(prices, dtype=float)[None])
        return ArbitrageResult(value=float(value[0]), flow=flow[0])

    #: The pools' membership test, one pool a row (:func:`_member_rows`).
    member_rows = staticmethod(_member_rows)

    def is_member(self, flow: np.ndarray, tol: float) -> bool:
        """A one-row call of :meth:`member_rows`."""
        return bool(self.member_rows(*_row(self.row_params()), np.asarray(flow, dtype=float)[None], tol)[0])


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
