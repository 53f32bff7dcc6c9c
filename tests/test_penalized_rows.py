"""The penalized pool kernel over rows against the scalar code it replaced.

The reference functions below are the pools' scalar penalized
subproblem as it stood before the row kernel, verbatim.  Both pool
kinds' ``penalized_rows`` must give the reference's value and flow on
every row bit for bit, and each pool's ``evaluate_penalized`` must be a
one-row call of its kind's ``penalized_rows``.
"""

import math

import numpy as np
import pytest

from convexflows.edges import GeometricMeanPool, TwoAssetGeometricPool

_PENALIZED_ITERS = 100


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


def _rows(rng, m, dim, fee, weight=None):
    """``m`` rows of reserves, weights, fees and prices of ``dim``-asset
    pools: prices over six orders of magnitude with some zero entries,
    then all-zero rows and rows inside the no-trade band.  ``weight``
    fixes a two-asset pool's first weight."""
    reserves = rng.uniform(10.0, 200.0, (m, dim))
    weights = rng.dirichlet(np.full(dim, 2.0), m) if weight is None else np.full((m, dim), weight)
    if dim == 2:
        # A two-asset pool's second weight is one minus its first.
        weights[:, 1] = 1.0 - weights[:, 0]
    prices = np.exp(rng.uniform(-7.0, 7.0, (m, dim)))
    prices[rng.random((m, dim)) < 0.05] = 0.0
    prices[: m // 20] = 0.0
    # A multiple of the pool's marginal prices trades nothing.
    band = slice(m // 20, m // 10)
    prices[band] = rng.uniform(0.1, 10.0, (m // 20, 1)) * weights[band] / reserves[band]
    return reserves, weights, np.full(m, fee), prices


def _cases():
    for fee in (1.0, 0.997):
        for dim in (2, 3, 4):
            yield fee, dim, None
        for weight in (0.5, 0.3):
            yield fee, 2, weight


@pytest.mark.parametrize("fee, dim, weight", list(_cases()))
def test_penalized_rows_match_the_scalar_reference(fee, dim, weight):
    rng = np.random.default_rng([dim, int(1000 * fee), int(10 * (weight or 0))])
    m = 300
    reserves, weights, fees, prices = _rows(rng, m, dim, fee, weight)
    blocks = [(GeometricMeanPool, (reserves, weights, fees))]
    if dim == 2:
        blocks.append((TwoAssetGeometricPool, (reserves[:, 0], reserves[:, 1], weights[:, 0], fees)))
    want = [_penalized_trade(*row, fee) for row in zip(prices.tolist(), reserves.tolist(), weights.tolist())]
    trading = sum(any(flow) for _, flow in want)
    assert m // 2 < trading < m
    for kind, params in blocks:
        value, flow, non_unique = kind.penalized_rows(*params, prices)
        assert value.tobytes() == np.array([v for v, _ in want]).tobytes()
        assert flow.tobytes() == np.array([f for _, f in want]).tobytes()
        assert not non_unique.any()
        # Each pool's evaluate_penalized is a one-row call of the kernel.
        for k, row in enumerate(zip(*(column.tolist() for column in params))):
            res = kind.row_oracle(*row).evaluate_penalized(prices[k])
            assert type(res.value) is float and not res.non_unique
            assert (np.float64(res.value).tobytes(), res.flow.tobytes()) == (value[k].tobytes(), flow[k].tobytes())


@pytest.mark.parametrize("kind", [TwoAssetGeometricPool, GeometricMeanPool], ids=lambda k: k.__name__)
def test_penalized_rows_refuse_the_first_row_with_a_negative_price(kind):
    params = (np.array([100.0, 100.0]), np.array([150.0, 150.0]), np.array([0.5, 0.5]), np.array([1.0, 1.0]))
    if kind is GeometricMeanPool:
        params = (np.array([[100.0, 150.0]] * 2), np.array([[0.5, 0.5]] * 2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=r"\[1.0, -2.0\]"):
        kind.penalized_rows(*params, np.array([[1.0, -2.0], [-1.0, 1.0]]))
