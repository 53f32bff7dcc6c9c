import decimal
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexflows.edges import (
    FisherBasketEdge,
    GeometricMeanPool,
    InvalidEdgeError,
    TwoAssetGeometricPool,
    UnboundedEdgeError,
    fisher_linear_arbitrage,
    separable_cfmm_arbitrage,
    uniswap_arbitrage,
)
from convexflows.io_cli import gen_cfmm, instance_from_dict


def _post_reserve_by_bisection(log_inv, weights, post_known, idx_known, idx_out):
    """Solve the invariant for one reserve by bisection on the log form."""
    target = log_inv - sum(w * math.log(r) for w, r in zip(
        [weights[j] for j in idx_known], post_known))
    w_out = weights[idx_out]
    lo, hi = 1e-12, 1e12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if w_out * math.log(mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def uniswap_grid_oracle(reserves, fee, weight, prices, resolution=400, zooms=3):
    """Grid search over the tendered amount in each direction."""
    r1, r2 = reserves
    weights = [weight, 1.0 - weight]
    log_inv = weight * math.log(r1) + (1 - weight) * math.log(r2)

    def value_tender_1(delta):
        post2 = _post_reserve_by_bisection(log_inv, weights, [r1 + fee * delta], [0], 1)
        return -prices[0] * delta + prices[1] * (r2 - post2)

    def value_tender_2(delta):
        post1 = _post_reserve_by_bisection(log_inv, weights, [r2 + fee * delta], [1], 0)
        return -prices[1] * delta + prices[0] * (r1 - post1)

    best = 0.0
    for value_fn, cap in ((value_tender_1, 5 * r1), (value_tender_2, 5 * r2)):
        lo, hi = 0.0, cap
        for _ in range(zooms):
            grid = np.linspace(lo, hi, resolution)
            vals = [value_fn(d) for d in grid]
            k = int(np.argmax(vals))
            best = max(best, vals[k])
            lo = grid[max(0, k - 1)]
            hi = grid[min(len(grid) - 1, k + 1)]
    return best


def test_uniswap_textbook_trade():
    flow, value = uniswap_arbitrage([100.0, 100.0], 1.0, 0.5, [1.0, 4.0])
    assert_allclose(flow, [-100.0, 50.0], atol=1e-8)
    assert value == pytest.approx(100.0, abs=1e-8)


def test_uniswap_no_trade_inside_spread():
    flow, value = uniswap_arbitrage([100.0, 100.0], 0.99, 0.5, [1.0, 1.0])
    assert_allclose(flow, [0.0, 0.0])
    assert value == 0.0


def test_uniswap_zero_output_price():
    flow, value = uniswap_arbitrage([100.0, 100.0], 0.99, 0.5, [1.0, 0.0])
    assert_allclose(flow, [0.0, 0.0])
    assert value == 0.0


def test_uniswap_rejects_bad_pools():
    with pytest.raises(InvalidEdgeError):
        uniswap_arbitrage([0.0, 100.0], 1.0, 0.5, [1.0, 1.0])
    with pytest.raises(InvalidEdgeError):
        uniswap_arbitrage([100.0, 100.0], 1.5, 0.5, [1.0, 1.0])


@pytest.mark.parametrize("weight", [0.5, 0.8])
@pytest.mark.parametrize("fee", [1.0, 0.997])
def test_uniswap_matches_grid_oracle(weight, fee):
    rng = np.random.default_rng(19)
    for _ in range(8):
        reserves = rng.uniform(80.0, 220.0, size=2)
        prices = rng.uniform(0.3, 3.0, size=2)
        _, value = uniswap_arbitrage(reserves, fee, weight, prices)
        ref = uniswap_grid_oracle(reserves, fee, weight, prices)
        assert value == pytest.approx(ref, rel=1e-6, abs=1e-6)


def test_uniswap_invariant_preserved():
    rng = np.random.default_rng(4)
    for fee in (1.0, 0.99):
        pool = TwoAssetGeometricPool([120.0, 90.0], 0.5, fee)
        log_pre = 0.5 * math.log(120.0) + 0.5 * math.log(90.0)
        for _ in range(30):
            res = pool.evaluate(rng.uniform(0.2, 4.0, size=2))
            post = pool.reserves + fee * np.maximum(-res.flow, 0) - np.maximum(res.flow, 0)
            log_post = float(0.5 * np.log(post).sum())
            assert log_post >= log_pre - 1e-10
            assert pool.is_member(res.flow, 1e-8)


def test_three_asset_balanced_pool_no_trade():
    flow, value = separable_cfmm_arbitrage(
        [1 / 3, 1 / 3, 1 / 3], [100.0, 100.0, 100.0], 1.0, [1.0, 1.0, 1.0]
    )
    assert_allclose(flow, np.zeros(3))
    assert value == 0.0


def test_three_asset_skewed_prices():
    weights = [1 / 3, 1 / 3, 1 / 3]
    reserves = [100.0, 100.0, 100.0]
    prices = np.array([1.0, 1.0, 8.0])
    flow, value = separable_cfmm_arbitrage(weights, reserves, 1.0, prices)
    assert value > 0.0
    assert flow[0] < 0 and flow[1] < 0 and flow[2] > 0
    post = np.asarray(reserves) + np.maximum(-flow, 0) - np.maximum(flow, 0)
    log_pre = float(np.dot(weights, np.log(reserves)))
    log_post = float(np.dot(weights, np.log(post)))
    assert abs(log_post - log_pre) <= 1e-8 * abs(log_pre)

    # Independent grid over the two tendered legs, third from the invariant.
    best = -math.inf
    for d1, d2 in itertools.product(np.linspace(0.0, 300.0, 251), repeat=2):
        post3 = math.exp(
            (log_pre - np.dot(weights[:2], np.log([100.0 + d1, 100.0 + d2]))) / weights[2]
        )
        received = 100.0 - post3
        best = max(best, -d1 - d2 + 8.0 * received)
    assert value >= best - 1e-9
    assert value == pytest.approx(best, abs=2.0)  # grid resolution bound


def test_two_asset_geometric_mean_matches_uniswap_paths():
    rng = np.random.default_rng(8)
    for fee in (1.0, 0.997):
        for _ in range(25):
            reserves = rng.uniform(50.0, 250.0, size=2)
            prices = rng.uniform(0.2, 4.0, size=2)
            flow_a, value_a = uniswap_arbitrage(reserves, fee, 0.5, prices)
            flow_b, value_b = separable_cfmm_arbitrage([0.5, 0.5], reserves, fee, prices)
            assert value_a == pytest.approx(value_b, rel=1e-8, abs=1e-8)
            assert_allclose(flow_a, flow_b, rtol=1e-6, atol=1e-6)


def test_geometric_pool_degenerate_prices():
    pool = GeometricMeanPool([100.0, 100.0, 100.0], [1 / 3, 1 / 3, 1 / 3], 1.0)
    res = pool.evaluate(np.zeros(3))
    assert res.value == 0.0
    with pytest.raises(UnboundedEdgeError):
        pool.evaluate(np.array([1.0, 1.0, 0.0]))


def geometric_pool_by_decimal(pool, prices, digits=40):
    """Exact trade against a geometric mean pool, to ``digits`` digits.

    The log residual ``sum_j w_j log(post_j / r_j)`` is piecewise linear
    in ``u = log(lam)``, with asset j received below ``log s_j``, idle up
    to ``log(s_j / fee)`` and tendered above; its root is the weighted
    mean of the active knots on the piece that contains that mean.
    Returns ``(value, flow, pattern)`` with the pattern per asset one of
    ``"receive"``, ``"idle"`` and ``"tender"``.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        r = [D(v) for v in pool.reserves]
        w = [D(v) for v in pool.weights]
        p = [D(float(v)) for v in prices]
        fee = D(pool.fee)
        log_s = [(pj * rj / wj).ln() for pj, rj, wj in zip(p, r, w)]
        log_fee = fee.ln()
        knots = sorted(set(log_s) | {k - log_fee for k in log_s})
        lows = [None] + knots
        highs = knots + [None]
        for lo, hi in zip(lows, highs):
            probe = lo if hi is None else hi if lo is None else (lo + hi) / 2
            sides = [
                "receive" if probe < k else "tender" if probe > k - log_fee else "idle"
                for k in log_s
            ]
            active = [j for j, side in enumerate(sides) if side != "idle"]
            if not active:
                continue
            mean = sum(
                w[j] * (log_s[j] - (log_fee if sides[j] == "tender" else 0)) for j in active
            ) / sum(w[j] for j in active)
            if (lo is None or lo <= mean) and (hi is None or mean <= hi):
                break
        else:
            return 0.0, [0.0] * len(r), ["idle"] * len(r)
        flow = []
        for j, side in enumerate(sides):
            if side == "receive":
                flow.append(r[j] * (1 - (mean - log_s[j]).exp()))
            elif side == "tender":
                flow.append(-r[j] * ((mean - log_s[j] + log_fee).exp() - 1) / fee)
            else:
                flow.append(D(0))
        value = sum(pj * x for pj, x in zip(p, flow))
        return float(value), [float(x) for x in flow], sides


def _exact_root_cases():
    """Pools of 2 to 6 assets at several fees, with prices spread so that
    receive, idle and tender pieces all occur, plus tied ``s_j``.

    Reserves span ``gen_cfmm``'s range and the largest price is 1: a
    flow's rounding floor is a few ulps of its reserve, whatever the
    method, and the tolerance below is absolute in the flows."""
    rng = np.random.default_rng(13)
    for fee in (1.0, 0.997, 0.9, 0.5):
        for dim in range(2, 7):
            for _ in range(12):
                reserves = rng.uniform(100.0, 200.0, size=dim)
                weights = rng.uniform(0.5, 2.0, size=dim)
                weights /= weights.sum()
                marginal = weights / reserves
                spread = 0.3 if fee == 1.0 else 2.0 * math.log(1.0 / fee)
                prices = marginal * np.exp(rng.uniform(-spread, spread, size=dim))
                prices /= prices.max()
                yield GeometricMeanPool(reserves, weights, fee), prices
            # Tied s_j: equal reserves, weights and prices on two assets.
            reserves = rng.uniform(100.0, 200.0, size=dim)
            reserves[1] = reserves[0]
            weights = np.full(dim, 1.0 / dim)
            prices = rng.uniform(0.5, 2.0, size=dim)
            prices[1] = prices[0]
            yield GeometricMeanPool(reserves, weights, fee), prices


def test_geometric_pool_matches_exact_root():
    # The knot scan finds the root of the piecewise-linear log residual
    # exactly, so only rounding is left; a bisection to 1e-9 followed by
    # Newton steps is off by about 1e-12 on these pools.
    patterns = set()
    for pool, prices in _exact_root_cases():
        res = pool.evaluate(prices)
        value, flow, sides = geometric_pool_by_decimal(pool, prices)
        patterns.update(sides)
        tol = 1e-13 * (1.0 + abs(value))
        assert abs(res.value - value) <= tol, (pool.reserves, pool.weights, pool.fee, prices)
        assert np.max(np.abs(res.flow - flow)) <= tol, (pool.reserves, pool.weights, pool.fee, prices)
    assert patterns == {"receive", "idle", "tender"}


def test_pool_support_properties():
    rng = np.random.default_rng(3)
    pools = [
        TwoAssetGeometricPool([150.0, 70.0], 0.5, 0.99),
        TwoAssetGeometricPool([100.0, 100.0], 0.8, 1.0),
        GeometricMeanPool([100.0, 140.0, 180.0], [0.2, 0.3, 0.5], 0.995),
    ]
    for pool in pools:
        dim = pool.dim
        for _ in range(25):
            p = rng.uniform(0.1, 3.0, size=dim)
            t = rng.uniform(0.2, 4.0)
            base = pool.evaluate(p)
            assert base.value == pytest.approx(float(p @ base.flow), abs=1e-8)
            assert pool.is_member(base.flow, 1e-7)
            scaled = pool.evaluate(t * p)
            assert scaled.value == pytest.approx(t * base.value, rel=1e-8, abs=1e-8)
            q = rng.uniform(0.1, 3.0, size=dim)
            theta = rng.uniform()
            mix = pool.evaluate(theta * p + (1 - theta) * q).value
            split = theta * base.value + (1 - theta) * pool.evaluate(q).value
            assert mix <= split + 1e-8 * (1.0 + abs(split))


def test_pool_membership_rejects_value_extraction():
    pool = TwoAssetGeometricPool([100.0, 100.0], 0.5, 1.0)
    assert not pool.is_member(np.array([10.0, 10.0]), 1e-6)
    assert not pool.is_member(np.array([-10.0, 120.0]), 1e-6)
    assert pool.is_member(np.array([-10.0, 5.0]), 1e-6)


@pytest.mark.parametrize(
    "pool, prices",
    [
        (TwoAssetGeometricPool([100.0, 50.0]), [1.0, 1.0]),
        (TwoAssetGeometricPool([100.0, 50.0], 0.8, 0.99), [1.0, 2.5]),
        (GeometricMeanPool([100.0, 50.0, 80.0], [0.2, 0.3, 0.5], 0.995), [1.0, 1.5, 0.7]),
    ],
)
def test_pool_data_cannot_be_changed_through_its_arrays(pool, prices):
    # A write into the returned arrays used to reach the stored reserves
    # and leave the cached invariant stale: TwoAssetGeometricPool([100, 50])
    # then answered evaluate_pair(1, 1) with -663, though a support
    # function is never negative.
    prices = np.array(prices)
    before = pool.evaluate(prices)
    pair = pool.evaluate_pair(1.0, 1.0) if pool.dim == 2 else None
    price = pool.marginal_price() if pool.dim == 2 else None
    reserves, weights = pool.reserves, pool.weights
    pool.reserves[0] = 1.0
    pool.weights[0] = 0.9
    pool.reserves[:] *= 3.0
    after = pool.evaluate(prices)
    assert after.value == before.value and np.array_equal(after.flow, before.flow)
    if pool.dim == 2:
        assert pool.evaluate_pair(1.0, 1.0) == pair
        assert pool.marginal_price() == price
    assert np.array_equal(pool.reserves, reserves) and np.array_equal(pool.weights, weights)
    with pytest.raises(AttributeError):
        pool.reserves = np.ones(pool.dim)


@pytest.mark.parametrize(
    "pool, names",
    [
        (TwoAssetGeometricPool([100.0, 50.0], 0.8, 0.99), ("weight", "fee", "weights")),
        (GeometricMeanPool([100.0, 50.0, 80.0], [0.2, 0.3, 0.5], 0.995), ("fee", "weights")),
    ],
)
def test_pool_weight_and_fee_are_read_only(pool, names):
    # An assignment would skip validation and leave the log invariant,
    # cached from the old weight, stale.
    prices = np.array([1.0, 2.5, 0.7][: pool.dim])
    before = pool.evaluate(prices)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(pool, name, 0.5)
    after = pool.evaluate(prices)
    assert after.value == before.value and np.array_equal(after.flow, before.flow)
    assert pool.fee == (0.99 if pool.dim == 2 else 0.995)


def test_uniswap_evaluate_pair_returns_python_floats():
    pool = TwoAssetGeometricPool([100.0, 50.0], 0.8, 0.99)
    for p1, p2 in ((1.0, 1.0), (2.0, 1.0), (1.0, 9.0), (9.0, 1.0)):
        out = pool.evaluate_pair(p1, p2)
        assert [type(v) for v in out] == [float, float, float, bool]
    assert any(pool.evaluate_pair(p1, p2)[0] > 0.0 for p1, p2 in ((1.0, 9.0), (9.0, 1.0)))
    assert type(pool.marginal_price()) is float


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pool_log_invariant_is_numpy_dot_bit_for_bit(seed):
    # The two-asset pool's invariant, which its closed form reads for the
    # received amount, stays a numpy dot product: that may round as fused
    # multiply-adds, and a Python sum of products moves it by an ulp on
    # some pools, which changes plain cfmm solve paths.
    instance = instance_from_dict(gen_cfmm(200, seed))
    pools = [edge.oracle for edge in instance.edges if isinstance(edge.oracle, TwoAssetGeometricPool)]
    assert pools
    for pool in pools:
        assert pool._log_inv == float(np.dot(pool.weights, np.log(pool.reserves)))


@pytest.mark.parametrize(
    "pool",
    [
        TwoAssetGeometricPool([100.0, 50.0], 0.8, 0.99),
        GeometricMeanPool([100.0, 50.0, 80.0], [0.2, 0.3, 0.5], 0.995),
    ],
    ids=["uniswap", "geometric_mean"],
)
def test_pool_dim_and_strictness_are_read_only(pool):
    # GeometricMeanPool.dim used to be a writable slot: after dim = 2,
    # evaluate raised a numpy ValueError instead of answering.
    prices = np.array([1.0, 2.0, 1.0][: pool.dim])
    before = pool.evaluate(prices), pool.evaluate_penalized(prices)
    for name, value in (("dim", 2), ("is_strictly_convex", False)):
        with pytest.raises(AttributeError):
            setattr(pool, name, value)
    after = pool.evaluate(prices), pool.evaluate_penalized(prices)
    for a, b in zip(before, after):
        assert a.value == b.value and np.array_equal(a.flow, b.flow)


# -- penalized subproblem ----------------------------------------------------


def penalized_by_minimize(pool, prices):
    """``min_{xi >= 0} f(p + xi) + 1/2 |xi|^2`` by L-BFGS-B on the plain
    oracle ``f``; any ``xi`` bounds the penalized maximum from above."""
    from scipy.optimize import minimize

    def fun(xi):
        res = pool.evaluate(prices + xi)
        return res.value + 0.5 * float(xi @ xi), res.flow + xi

    best = math.inf
    for start in (np.zeros(len(prices)), np.full(len(prices), 0.5)):
        run = minimize(
            fun, start, jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * len(prices),
            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 2000},
        )
        best = min(best, run.fun)
    return best


def random_pool(rng, dim, fee):
    reserves = rng.uniform(10.0, 200.0, dim)
    if dim == 2:
        return TwoAssetGeometricPool(reserves, float(rng.uniform(0.2, 0.8)), fee)
    weights = rng.uniform(0.2, 1.0, dim)
    return GeometricMeanPool(reserves, weights / weights.sum(), fee)


@pytest.mark.parametrize("fee", [1.0, 0.997, 0.9])
@pytest.mark.parametrize("dim", [2, 3])
def test_penalized_pool_matches_minimize(dim, fee):
    rng = np.random.default_rng(int(1000 * fee) + dim)
    worst = 0.0
    for _ in range(30):
        pool = random_pool(rng, dim, fee)
        prices = rng.uniform(0.2, 3.0, dim)
        res = pool.evaluate_penalized(prices)
        tendered = np.maximum(-res.flow, 0.0)
        # The value is attained by the returned flow, which is a trade.
        assert res.value == pytest.approx(float(prices @ res.flow) - 0.5 * float(tendered @ tendered), rel=1e-14, abs=1e-14)
        assert pool.is_member(res.flow, 1e-9)
        assert not res.non_unique
        reference = penalized_by_minimize(pool, prices)
        worst = max(worst, abs(res.value - reference) / (1.0 + abs(reference)))
    assert worst <= 1e-10


def test_penalized_pool_no_trade_band_and_zero_prices():
    pool = GeometricMeanPool([100.0, 50.0, 80.0], [0.2, 0.3, 0.5], 0.995)
    # Inside the plain no-trade band the penalized trade is zero as well.
    marginal = np.array([0.2 / 100.0, 0.3 / 50.0, 0.5 / 80.0])
    idle = pool.evaluate_penalized(marginal)
    assert idle.value == 0.0 and not np.any(idle.flow)
    assert not np.any(pool.evaluate_penalized(np.zeros(3)).flow)
    # A zero price leaves the plain supremum unattained, but the penalty
    # bounds what is tendered: the asset is tendered, and the answer is
    # the limit of small positive prices.
    with pytest.raises(UnboundedEdgeError):
        pool.evaluate(np.array([0.0, 1.0, 2.0]))
    res = pool.evaluate_penalized(np.array([0.0, 1.0, 2.0]))
    assert res.flow[0] < 0.0 and pool.is_member(res.flow, 1e-9)
    near = pool.evaluate_penalized(np.array([1e-12, 1.0, 2.0]))
    assert near.value == pytest.approx(res.value, rel=1e-10)
    assert_allclose(near.flow, res.flow, rtol=1e-9)
    with pytest.raises(ValueError):
        pool.evaluate_penalized(np.array([-1.0, 1.0, 2.0]))


def test_penalized_pools_agree_across_classes():
    # One routine serves both classes: a two-asset GeometricMeanPool
    # answers as the TwoAssetGeometricPool with the same data.
    rng = np.random.default_rng(9)
    for fee in (1.0, 0.997):
        for _ in range(20):
            reserves, weight = rng.uniform(10.0, 200.0, 2), float(rng.uniform(0.2, 0.8))
            prices = rng.uniform(0.2, 3.0, 2)
            a = TwoAssetGeometricPool(reserves, weight, fee).evaluate_penalized(prices)
            b = GeometricMeanPool(reserves, [weight, 1.0 - weight], fee).evaluate_penalized(prices)
            assert a.value == b.value and np.array_equal(a.flow, b.flow)


# -- buyer basket edges ------------------------------------------------------


def fisher_corner_oracle(valuations, prices):
    """Enumerate the box corners; linear objectives attain one of them."""
    n_g = len(valuations)
    best = 0.0
    for corner in itertools.product([0.0, -1.0], repeat=n_g):
        goods = np.array(corner)
        utility = float(valuations @ (-goods))
        best = max(best, float(prices[:-1] @ goods) + prices[-1] * utility)
    return best


def test_fisher_arbitrage_examples():
    flow, value = fisher_linear_arbitrage([2.0, 1.0], [1.0, 1.0, 1.0])
    assert_allclose(flow, [-1.0, 0.0, 2.0])
    assert value == pytest.approx(1.0)

    flow, value = fisher_linear_arbitrage([2.0, 1.0], [1.0, 1.0, 0.0])
    assert_allclose(flow, np.zeros(3))
    assert value == 0.0

    flow, value = fisher_linear_arbitrage([0.0, 0.0], [1.0, 1.0, 1.0])
    assert_allclose(flow, np.zeros(3))
    assert value == 0.0


def test_fisher_arbitrage_matches_corner_oracle():
    rng = np.random.default_rng(44)
    for _ in range(60):
        n_g = int(rng.integers(1, 5))
        valuations = rng.uniform(0.0, 3.0, size=n_g)
        prices = rng.uniform(0.0, 2.0, size=n_g + 1)
        flow, value = fisher_linear_arbitrage(valuations, prices)
        assert value == pytest.approx(fisher_corner_oracle(valuations, prices), abs=1e-10)
        edge = FisherBasketEdge(valuations)
        assert edge.is_member(flow, 1e-9)
        assert value == pytest.approx(float(prices @ flow), abs=1e-10)


def test_fisher_edge_data_is_read_only():
    # valuations and dim used to be plain attributes: after an assignment
    # evaluate raised a numpy ValueError, and a write into the array
    # skipped the nonnegativity check.
    edge = FisherBasketEdge([2.0, 1.0, 0.5])
    prices = np.array([1.0, 1.5, 0.2, 0.9])
    before = edge.evaluate(prices)
    for name, value in (("valuations", np.array([3.0])), ("dim", 2), ("is_strictly_convex", True)):
        with pytest.raises(AttributeError):
            setattr(edge, name, value)
    edge.valuations[:] = -1.0
    after = edge.evaluate(prices)
    assert after.value == before.value and np.array_equal(after.flow, before.flow)
    assert edge.dim == 4 and edge.valuations.tolist() == [2.0, 1.0, 0.5]
    assert edge.is_member(before.flow, 1e-9)


def test_fisher_tie_flagged_non_unique():
    edge = FisherBasketEdge([2.0, 1.0])
    res = edge.evaluate(np.array([1.0, 1.0, 1.0]))
    assert res.non_unique  # good 2 ties exactly
    res = edge.evaluate(np.array([1.0, 1.01, 1.0]))
    assert not res.non_unique
