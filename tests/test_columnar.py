"""Column-stored edges and the dual program's kernels.

An instance, parsed or built by hand, keeps its ``opf_line``,
``lossless``, ``linear_gain``, ``uniswap`` and ``geometric_mean``
edges, every ``TwoNodeEdge`` whose gain is exactly a ``PowerLossGain``
or a ``LinearGain`` and every oracle that is exactly a
``TwoAssetGeometricPool`` or a ``GeometricMeanPool``, as columns
(``core.EdgeTable``; a pool with the quadratic penalty in a flagged
group, a two-node edge with it as a record), and the dual program
answers them with one kernel per kind (``evaluate_rows``, one call per
kind and ``dim``).  These tests hold the kernels to the
per-edge methods bit for bit (a pool's own method is a one-row call of
its kernel, a gain's a scalar form of it) and the pool kernels to the
exact trade within rounding, the reader to the messages and documents
of the record path, and the solve to the per-edge solve bit for bit.
"""

import copy
import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from convexflows import (
    EdgeIncidence,
    FisherBasketEdge,
    GeometricMeanPool,
    Hyperedge,
    LinearNonnegObjective,
    OpfQuadraticObjective,
    PrimalPoint,
    ProblemInstance,
    QuadraticPenalty,
    TwoAssetGeometricPool,
    check_feasibility,
    concave_gain_edge,
    linear_gain_edge,
    lossless_edge,
    opf_line_edge,
    piecewise_linear_edge,
)
from convexflows import io_cli
from convexflows.core import _KERNEL_KINDS, EdgeColumns, EdgeTable, EdgeVectors, primal_objective
from convexflows.edges import GainFunction, LinearGain, PowerLossGain, TwoNodeEdge, UnboundedEdgeError
from convexflows.edges.base import UnattainedSupremumError
from convexflows.io_cli import (
    _COLUMN_KINDS,
    InstanceValidationError,
    ParseError,
    gen_cfmm,
    gen_maxflow,
    gen_opf,
    instance_to_dict,
    parse_instance,
)
from convexflows.solver import DualProgram, eval_dual, solve
from conftest import answered_by, geometric_pool_by_decimal

# -- kernels ------------------------------------------------------------------


def _evaluate_pairs(kind, *args):
    """``kind.evaluate_rows`` with the last two arguments as the price
    block's columns, and the flow block split into its columns."""
    *params, p_in, p_out = args
    value, flow, tie = kind.evaluate_rows(*params, np.stack([p_in, p_out], axis=1))
    return value, flow[:, 0], flow[:, 1], tie


def _prices(rng, m, slopes):
    """Price pairs covering every branch of the two-node closed forms."""
    p_in = rng.uniform(0.0, 2.0, m) * 10.0 ** rng.integers(-3, 4, m)
    p_out = rng.uniform(0.0, 2.0, m) * 10.0 ** rng.integers(-3, 4, m)
    kind = rng.integers(0, 7, m)
    p_in[kind == 1] = p_out[kind == 1] = 0.0  # both zero
    p_out[kind == 2] = 0.0  # zero output only
    p_in[kind == 3] = slopes[kind == 3] * p_out[kind == 3]  # exactly tied
    p_in[kind == 4] = 1e-6 * p_out[kind == 4]  # clipped at capacity
    p_in[kind == 5], p_out[kind == 5] = 1e-300, 1e300
    p_in[kind == 6], p_out[kind == 6] = 1e300, 1e-300
    return p_in, p_out


def _assert_matches_evaluate_pair(gain_type, params, p_in, p_out):
    value, flow_in, flow_out, tie = _evaluate_pairs(gain_type, *params, p_in, p_out)
    for k in range(len(p_in)):
        edge = TwoNodeEdge(gain_type(*(float(column[k]) for column in params)))
        want = edge.evaluate_pair(float(p_in[k]), float(p_out[k]))
        got = (value[k], flow_in[k], flow_out[k])
        # Bytes, so that a signed zero or a last bit shows.
        assert np.array(got).tobytes() == np.array(want[:3]).tobytes(), (gain_type, k, got, want)
        assert bool(tie[k]) is want[3]


def test_power_loss_kernel_equals_evaluate_pair_bit_for_bit():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = 400
        beta = rng.choice([0.25, 1.0, 4.0, 0.01, -0.25], m)
        capacity = rng.choice([1.0, 2.0, 3.0, 1e-3, 40.0], m)
        params = (4.0 / beta, beta, capacity)
        # A power line's price ratio 1 is its own tie; slope 1 at zero input.
        p_in, p_out = _prices(rng, m, np.ones(m))
        _assert_matches_evaluate_pair(PowerLossGain, params, p_in, p_out)


def test_numpy_elementary_functions_round_a_float_as_inside_an_array():
    """``np.log``, ``np.exp``, ``np.log1p`` and ``np.expm1`` give a Python
    float the bits they give it inside an array, over the ranges the
    kernels feed them: logs of positive floats from the subnormals up,
    exponents up to the float range, and the softplus tail ``log1p(exp(-|t|))``.
    ``PowerLossGain``'s scalar form and its kernel agree bit for bit only
    because of this.  numpy picks its SIMD code per machine; this was
    read on numpy 2.4.6 with the ``X86_V4`` (AVX-512) target.
    """
    rng = np.random.default_rng(6)
    n = 20_000
    positive = np.concatenate([10.0 ** rng.uniform(-323.0, 308.0, n), rng.uniform(0.0, 4.0, n) + 5e-324])
    exponents = np.concatenate([rng.uniform(-745.0, 709.0, n), rng.uniform(-40.0, 40.0, n)])
    cases = [
        (np.log, positive),
        (np.exp, exponents),
        (np.log1p, np.concatenate([np.exp(-rng.uniform(0.0, 745.0, n)), 10.0 ** rng.uniform(-300.0, 300.0, n)])),
        (np.expm1, exponents),
    ]
    for fn, inputs in cases:
        in_array = fn(inputs)
        on_floats = np.array([fn(x) for x in inputs.tolist()])
        # Bytes, so that a signed zero or a last bit shows.
        same = in_array.view(np.int64) == on_floats.view(np.int64)
        assert same.all(), (fn.__name__, inputs[~same][:5])


def test_linear_gain_kernel_equals_evaluate_pair_bit_for_bit():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = 400
        slope = rng.choice([1.0, 0.5, 2.0, 0.0, 0.3], m)
        capacity = rng.choice([1.0, 2.0, 3.0, 1e-3, 7.5], m)
        input_lo = np.where(rng.random(m) < 0.7, 0.0, rng.uniform(-2.0, 0.5, m) * capacity)
        p_in, p_out = _prices(rng, m, slope)
        _assert_matches_evaluate_pair(LinearGain, (slope, capacity, input_lo), p_in, p_out)


@pytest.mark.parametrize(
    "gain_type, params",
    [(PowerLossGain, (16.0, 0.25, 2.0)), (LinearGain, (1.0, 2.0, 0.0))],
)
def test_kernels_keep_the_negative_price_error(gain_type, params):
    columns = [np.full(3, value) for value in params]
    with pytest.raises(ValueError) as scalar:
        TwoNodeEdge(gain_type(*params)).evaluate_pair(1.0, -0.5)
    with pytest.raises(ValueError) as batch:
        _evaluate_pairs(gain_type, *columns, np.array([1.0, 1.0, 2.0]), np.array([1.0, -0.5, -1.0]))
    assert str(batch.value) == str(scalar.value) == "prices must be nonnegative, got (1.0, -0.5)"


def test_linear_kernel_keeps_the_unbounded_withdrawal_error():
    params = (np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([0.0, -math.inf]))
    with pytest.raises(UnboundedEdgeError):
        _evaluate_pairs(LinearGain, *params, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(UnboundedEdgeError):
        TwoNodeEdge(LinearGain(1.0, 2.0, -math.inf)).evaluate_pair(1.0, 0.0)


def _pool_columns(rng, m):
    """Random two-asset pools as kernel columns (constructor arguments):
    reserves over nine decades, any weight, fees from none to steep."""
    r0 = 10.0 ** rng.uniform(-3.0, 6.0, m)
    r1 = 10.0 ** rng.uniform(-3.0, 6.0, m)
    weight = np.where(rng.random(m) < 0.3, 0.5, rng.uniform(0.01, 0.99, m))
    fee = rng.choice([1.0, 0.997, 0.9, 0.3], m)
    return r0, r1, weight, fee


def _assert_near_exact(pool, prices, value, flow, s=None):
    """``value`` and ``flow`` within rounding of the exact trade
    (``geometric_pool_by_decimal``, at ``s``): each amount within 1e-12
    of its asset's scale ``r_j + |x_j|`` and the value within 1e-13 of
    ``sum_j p_j (r_j + |x_j|)``.  The closed forms work in logs, whose
    rounding grows with ``|log s_j|``, up to about 740 here."""
    want_value, want_flow, _ = geometric_pool_by_decimal(pool, prices, s=s)
    scale = pool.reserves + np.abs(want_flow)
    assert np.all(np.abs(np.asarray(flow) - want_flow) <= 1e-12 * scale), (pool.reserves, prices, flow, want_flow)
    assert abs(value - want_value) <= 1e-13 * float(np.asarray(prices) @ scale), (value, want_value)


def _assert_pool_kernel_matches(params, p1, p2):
    """The kernel on a batch answers each row within rounding of the
    exact trade, and with the bytes that ``evaluate_pair``, the per-edge
    path, answers for the row alone."""
    value, f1, f2, tie = _evaluate_pairs(TwoAssetGeometricPool, *params, p1, p2)
    for k in range(len(p1)):
        pool = TwoAssetGeometricPool.row_oracle(*(float(column[k]) for column in params))
        want = pool.evaluate_pair(float(p1[k]), float(p2[k]))
        got = (value[k], f1[k], f2[k])
        # Bytes, so that a signed zero or a last bit shows.
        assert np.array(got).tobytes() == np.array(want[:3]).tobytes(), (k, got, want)
        assert bool(tie[k]) is want[3] is False
        _assert_near_exact(pool, (p1[k], p2[k]), value[k], (f1[k], f2[k]))


def test_pool_kernel_equals_evaluate_pair_bit_for_bit():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = 400
        params = _pool_columns(rng, m)
        r0, r1, weight, fee = params
        p1 = rng.uniform(0.0, 2.0, m) * 10.0 ** rng.integers(-6, 7, m) + 1e-12
        p2 = rng.uniform(0.0, 2.0, m) * 10.0 ** rng.integers(-6, 7, m) + 1e-12
        # Prices exactly at both edges of the no-trade band, and just past
        # them.
        price = (weight / r0) / ((1.0 - weight) / r1)
        kind = rng.integers(0, 6, m)
        p2[kind < 4] = 1.0
        p1[kind == 0] = (fee * price)[kind == 0]
        p1[kind == 1] = (price / fee)[kind == 1]
        p1[kind == 2] = np.nextafter(fee * price, 0.0)[kind == 2]
        p1[kind == 3] = np.nextafter(price / fee, np.inf)[kind == 3]
        _assert_pool_kernel_matches(params, p1, p2)


def test_pool_kernel_splits_a_price_ratio_past_the_float_range():
    rng = np.random.default_rng(3)
    weight = rng.uniform(0.01, 0.99, 200)
    fee = rng.choice([1.0, 0.997, 0.9], 200)
    params = (np.full(200, 150.0), np.full(200, 120.0), weight, fee)
    # Either asset priced at 1e-320 against 1.0: the stationary scale
    # overflows and takes the split-log path, on both branches.
    p1 = np.where(np.arange(200) % 2 == 0, 1e-320, 1.0)
    p2 = np.where(np.arange(200) % 2 == 0, 1.0, 1e-320)
    # Far from equal weights the post-trade reserve itself can leave the
    # float range; the scalar form then leaves the supremum unattained,
    # and so must the kernel on any batch holding such a row.
    overflow = []
    for k in range(200):
        try:
            pool = TwoAssetGeometricPool.row_oracle(*(float(c[k]) for c in params))
            pool.evaluate_pair(float(p1[k]), float(p2[k]))
        except UnattainedSupremumError:
            overflow.append(k)
    fine = np.setdiff1d(np.arange(200), overflow)
    assert 0 < len(overflow) < 20
    _assert_pool_kernel_matches(tuple(c[fine] for c in params), p1[fine], p2[fine])
    value, f1, f2, _ = _evaluate_pairs(TwoAssetGeometricPool, *(c[fine] for c in params), p1[fine], p2[fine])
    assert np.all(np.isfinite(value)) and np.all((f1 < 0.0) != (f2 < 0.0))
    for k in overflow:
        with pytest.raises(UnattainedSupremumError):
            _evaluate_pairs(TwoAssetGeometricPool, *(c[[0, k]] for c in params), p1[[0, k]], p2[[0, k]])


@pytest.mark.parametrize(
    "p1, p2, r0",
    [(0.0, 1.0, 150.0), (1.0, 0.0, 150.0), (0.0, 0.0, 150.0), (1e-320, 1.0, 1e-10)],
    ids=["zero_first", "zero_second", "both_zero", "underflow"],
)
def test_pool_kernel_leaves_zero_prices_unattained(p1, p2, r0):
    # p_j r_j == 0, by a zero price or by underflow, in any one row.
    params = (np.array([150.0, r0, 130.0]), np.array([120.0, 120.0, 110.0]), np.full(3, 0.5), np.full(3, 0.997))
    prices = (np.array([1.0, p1, 2.0]), np.array([1.5, p2, 1.0]))
    with pytest.raises(UnattainedSupremumError):
        TwoAssetGeometricPool((r0, 120.0), 0.5, 0.997).evaluate_pair(p1, p2)
    with pytest.raises(UnattainedSupremumError):
        _evaluate_pairs(TwoAssetGeometricPool, *params, *prices)


def test_pool_kernel_keeps_the_negative_price_error():
    params = (np.full(3, 150.0), np.full(3, 120.0), np.full(3, 0.5), np.full(3, 0.997))
    with pytest.raises(ValueError) as scalar:
        TwoAssetGeometricPool((150.0, 120.0), 0.5, 0.997).evaluate_pair(1.0, -0.5)
    with pytest.raises(ValueError) as batch:
        _evaluate_pairs(TwoAssetGeometricPool, *params, np.array([1.0, 1.0, -2.0]), np.array([1.0, -0.5, -1.0]))
    assert str(batch.value) == str(scalar.value) == "prices must be nonnegative, got (1.0, -0.5)"


def _geometric_columns(rng, m, dim):
    """Random multi-asset pools of one ``dim`` as kernel columns, and
    prices that reach every branch of the scan: spread prices, knots tied
    across assets (equal ``s_j`` on some assets, and at fee 1 a receive
    knot on its own tender knot), unit prices, and ratios past the float
    range on the first asset."""
    reserves = 10.0 ** rng.uniform(-3.0, 6.0, (m, dim))
    weights = rng.dirichlet(np.ones(dim), m)
    weights[rng.random(m) < 0.3] = 1.0 / dim
    fee = np.where(rng.random(m) < 0.4, 1.0, rng.uniform(0.9, 1.0, m))
    prices = rng.uniform(0.0, 2.0, (m, dim)) * 10.0 ** rng.integers(-6, 7, (m, dim)) + 1e-12
    kind = rng.integers(0, 4, m)
    prices[kind == 0] = 1.0
    tied = kind == 1
    prices[tied] = weights[tied] / reserves[tied] * rng.choice([1.0, 2.0], (np.count_nonzero(tied), dim))
    prices[kind == 2, 0] = 1e-320
    return (reserves, weights, fee), prices


def _assert_geometric_kernel_matches(params, prices):
    """Row by row, ``evaluate`` (the kernel on the row alone) either
    answers within rounding of the exact trade at the ``s_j = p_j r_j /
    w_j`` the floats hold, or raises where the exact answer has no float
    form: at a zero ``s_j`` beside a positive one, or when a tendered
    amount scales its reserve past the float range (``|x_j| fee / r_j``
    overflows).  The rows that answer, in one batch, answer ``evaluate``'s
    bytes.  Returns the counts of trading rows, trading rows past the
    float range and raising rows."""
    answered, wants, raised = [], [], 0
    for k in range(len(prices)):
        pool = GeometricMeanPool.row_oracle(*(column[k].tolist() for column in params))
        s = prices[k] * pool.reserves / pool.weights
        try:
            want = pool.evaluate(prices[k].copy())
        except UnattainedSupremumError:
            if s.min() > 0.0:
                _, exact, _ = geometric_pool_by_decimal(pool, prices[k], s=s)
                with np.errstate(over="ignore"):
                    assert np.max(np.abs(exact) * pool.fee / pool.reserves) > 1e308, (k, exact)
            raised += 1
        else:
            _assert_near_exact(pool, prices[k], want.value, want.flow, s)
            answered.append(k)
            wants.append(want)
    value, flow, tie = GeometricMeanPool.evaluate_rows(*(column[answered] for column in params), prices[answered])
    for i, want in enumerate(wants):
        # Bytes, so that a signed zero or a last bit shows.
        assert np.array(value[i]).tobytes() == np.array(want.value).tobytes(), (i, value[i], want.value)
        assert flow[i].tobytes() == want.flow.tobytes(), (i, flow[i], want.flow)
        assert not tie[i] and not want.non_unique
    s = prices[answered] * params[0][answered] / params[1][answered]
    trading = value != 0.0
    with np.errstate(over="ignore"):
        wide = trading & ~(s.max(axis=1) / s.min(axis=1) < math.inf)
    return np.count_nonzero(trading), np.count_nonzero(wide), raised


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_geometric_kernel_equals_evaluate_bit_for_bit(dim):
    rng = np.random.default_rng(10 + dim)
    trading = wide = raised = 0
    for _ in range(5):
        counts = _assert_geometric_kernel_matches(*_geometric_columns(rng, 400, dim))
        trading, wide, raised = trading + counts[0], wide + counts[1], raised + counts[2]
    # Each branch is reached often enough to show a fault.
    assert trading > 800 and wide > 100 and raised > 0, (trading, wide, raised)


@pytest.mark.xfail(
    strict=True,
    reason="the kernel forms s_j = p_j r_j / w_j in floats; a subnormal p_j r_j keeps few digits, and the tendered "
    "amount misses the exact trade by up to 0.19 of its scale r_j + |x_j|",
)
def test_geometric_kernel_tenders_the_exact_amount_at_a_subnormal_price_reserve_product():
    """At a price near 1e-320, ``p_j r_j`` is subnormal, so the kernel's
    ``s_j`` keeps only a few bits and the amount of asset ``j`` tendered
    is off the exact trade (``geometric_pool_by_decimal`` at the exact
    ``s_j``): by up to 0.06, 0.19, 0.13 and 0.15 of its scale at dim 2,
    3, 4 and 5 on these rows (numpy 2.4.6).  At the float ``s_j`` the
    kernel is within rounding (``_assert_geometric_kernel_matches``), and
    the value is unaffected, since the price is tiny.  Taking ``log s_j``
    as ``log p_j + log r_j - log w_j`` would keep the digits but moves
    the last bits of every ``cfmm`` answer, so the kernel is left as it
    is."""
    for dim in (2, 3, 4, 5):
        rng = np.random.default_rng(10 + dim)
        for _ in range(5):
            params, prices = _geometric_columns(rng, 400, dim)
            for k in np.flatnonzero(prices[:, 0] * params[0][:, 0] < np.finfo(float).tiny):
                try:
                    value, flow, _ = GeometricMeanPool.evaluate_rows(*(column[[k]] for column in params), prices[[k]])
                except UnattainedSupremumError:
                    continue
                pool = GeometricMeanPool.row_oracle(*(column[k].tolist() for column in params))
                _assert_near_exact(pool, prices[k], value[0], flow[0])


def test_geometric_kernel_leaves_a_tender_past_the_float_range_unattained():
    # One asset priced at 1e-320 against unit prices: at a small weight the
    # amount tendered of it leaves the float range, and both forms leave
    # the supremum unattained on that row, alone or in any batch; the other
    # rows answer evaluate's bytes.
    rng = np.random.default_rng(7)
    m = 200
    reserves = np.tile([150.0, 120.0, 100.0], (m, 1))
    first = rng.uniform(0.01, 0.4, m)
    weights = np.stack([first, (1.0 - first) / 2, (1.0 - first) / 2], axis=1)
    params = (reserves, weights, rng.choice([1.0, 0.997, 0.9], m))
    prices = np.tile([1e-320, 1.0, 1.0], (m, 1))
    trading, _, raised = _assert_geometric_kernel_matches(params, prices)
    assert raised > 0 and trading > 0, (trading, raised)
    for k in range(m):
        try:
            GeometricMeanPool.row_oracle(*(column[k].tolist() for column in params)).evaluate(prices[k])
        except UnattainedSupremumError:
            rows = [k, (k + 1) % m]
            with pytest.raises(UnattainedSupremumError):
                GeometricMeanPool.evaluate_rows(*(column[rows] for column in params), prices[rows])


def test_geometric_kernel_answers_zero_prices_as_evaluate_does():
    params = (np.array([[150.0, 120.0, 100.0], [0.1, 130.0, 110.0]]), np.full((2, 3), 1 / 3), np.array([0.997, 1.0]))
    pools = [GeometricMeanPool.row_oracle(*(column[k].tolist() for column in params)) for k in range(2)]
    # All s_j zero: no trade.  One zero, by a zero price or by underflow
    # (5e-324 * 0.1 rounds to zero): the supremum is not attained.
    zero = np.zeros((2, 3))
    value, flow, _ = GeometricMeanPool.evaluate_rows(*params, zero)
    assert not value.any() and not flow.any()
    assert all(pool.evaluate(price).value == 0.0 for pool, price in zip(pools, zero))
    for k, prices in [(0, [1.0, 0.0, 2.0]), (1, [5e-324, 1.0, 1.0])]:
        with pytest.raises(UnattainedSupremumError):
            pools[k].evaluate(np.array(prices))
        batch = np.array([[1.0, 2.0, 1.5], [1.0, 1.0, 2.0]])
        batch[k] = prices
        with pytest.raises(UnattainedSupremumError):
            GeometricMeanPool.evaluate_rows(*params, batch)


def test_geometric_kernel_keeps_the_negative_price_error():
    params = (np.full((3, 3), 150.0), np.full((3, 3), 1 / 3), np.full(3, 0.997))
    prices = np.array([[1.0, 2.0, 1.0], [1.0, -0.5, 2.0], [-1.0, 1.0, 1.0]])
    with pytest.raises(ValueError) as scalar:
        GeometricMeanPool.row_oracle(*(column[1].tolist() for column in params)).evaluate(prices[1])
    with pytest.raises(ValueError) as batch:
        GeometricMeanPool.evaluate_rows(*params, prices)
    assert str(batch.value) == str(scalar.value) == "prices must be nonnegative, got [ 1.  -0.5  2. ]"


def _market(seed, per_edge=False):
    """Two-asset pools, multi-asset pools of three sizes (exact records
    and a user subclass) and a buyer basket, interleaved by hand.

    With ``per_edge`` every pool is a subclass, which loop groups answer
    one by one, as every pool was answered before the kernels.
    """
    rng = np.random.default_rng(seed)
    n = 10
    edges = []
    for k in range(60):
        dim = [2, 2, 3, 4, 2, 3][k % 6]
        nodes = tuple(int(j) for j in rng.choice(n, size=dim, replace=False))
        reserves = rng.uniform(100.0, 200.0, dim).tolist()
        if k % 6 in (0, 4):
            oracle = TwoAssetGeometricPool(reserves, float(rng.choice([0.5, 0.8])), 0.997)
        else:
            weights = rng.dirichlet(np.ones(dim)).tolist()
            pool_type = _PerEdgeGeometricPool if k % 12 == 5 else GeometricMeanPool
            oracle = pool_type(reserves, weights, float(rng.choice([1.0, 0.997])))
        edges.append(Hyperedge(EdgeIncidence(nodes), oracle))
    edges.insert(17, Hyperedge(EdgeIncidence((3, 7, 1)), FisherBasketEdge([0.5, 0.8])))
    if per_edge:
        edges = list(map(_per_edge, edges))
    return ProblemInstance(n=n, edges=edges, net_objective=LinearNonnegObjective(rng.uniform(0.5, 2.0, n)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interleaved_market_solves_as_edge_by_edge(seed):
    instance = _market(seed)
    program = DualProgram(instance)
    kernels = [(g.kind, len(g.entries) // len(g.positions)) for g in program._groups if g.kind is not None]
    assert kernels == [(TwoAssetGeometricPool, 2), *((GeometricMeanPool, dim) for dim in (2, 3, 4))]
    loop = [type(instance.edges[k].oracle).__name__ for k, kind in answered_by(program).items() if kind is None]
    assert sorted(loop) == ["FisherBasketEdge", *["_PerEdgeGeometricPool"] * 5]
    per_edge = DualProgram(_market(seed, per_edge=True))
    assert set(answered_by(per_edge).values()) == {None}
    assert _fingerprint(solve(_market(seed))) == _fingerprint(solve(_market(seed, per_edge=True)))


def _interleaved(seed, per_edge=False):
    """opf lines, piecewise-linear and user gains, interleaved by hand.

    With ``per_edge`` the bundled gains sit on a subclass of
    ``TwoNodeEdge``, which a loop group answers one by one, as every
    two-node edge was answered before the kernels.
    """

    class PerEdge(TwoNodeEdge):
        __slots__ = ()

    rng = np.random.default_rng(seed)
    n = 12
    edges = []
    for k in range(48):
        u, v = (int(j) for j in rng.choice(n, size=2, replace=False))
        cap = float(rng.choice([1.0, 2.0, 3.0]))
        kind = k % 5
        if kind == 0:
            oracle = opf_line_edge(16.0, 0.25, cap)
        elif kind == 1:
            oracle = piecewise_linear_edge([(0.0, 0.0), (cap, 0.9 * cap), (2 * cap, 1.5 * cap)])
        elif kind == 2:
            oracle = concave_gain_edge(lambda w, cap=cap: 0.9 * w - 0.05 * w * w, cap)
        elif kind == 3:
            oracle = lossless_edge(cap)
        else:
            oracle = linear_gain_edge(0.8, cap)
        if per_edge and type(oracle.gain) in (PowerLossGain, LinearGain):
            oracle = PerEdge(oracle.gain)
        edges.append(Hyperedge(EdgeIncidence((u, v)), oracle))
    demands = rng.choice([0.5, 1.0, 2.0], size=n)
    return ProblemInstance(n=n, edges=edges, net_objective=OpfQuadraticObjective(demands))


def _fingerprint(result):
    """Every number a solve reports, as bytes."""
    parts = [
        np.array([result.dual_value, result.primal_value, result.recovery_residual]),
        result.net_flow,
        result.dual_point.node_prices,
        result.flows.data,
        result.dual_point.edge_prices.data,
    ]
    return (result.status, result.iterations, result.n_evals, b"".join(np.asarray(p, float).tobytes() for p in parts))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interleaved_hand_built_instance_solves_as_edge_by_edge(seed):
    assert set(answered_by(DualProgram(_interleaved(seed))).values()) == {LinearGain, PowerLossGain, None}
    assert set(answered_by(DualProgram(_interleaved(seed, per_edge=True))).values()) == {None}
    assert _fingerprint(solve(_interleaved(seed))) == _fingerprint(solve(_interleaved(seed, per_edge=True)))


def test_parsed_instances_solve_as_their_records():
    # The records of a parsed instance, given as a list, are packed into
    # the same columns again from their gain objects.
    for doc in (gen_opf(40, 2), gen_maxflow(12, 0.5, 1)):
        parsed = parse_instance(json.dumps(doc))
        assert isinstance(parsed.edges, EdgeTable)
        listed = ProblemInstance(n=parsed.n, edges=list(parsed.edges), net_objective=parsed.net_objective)
        assert _fingerprint(solve(parsed)) == _fingerprint(solve(listed))


def _group(instance, kind):
    """The one column group of ``kind`` in a parsed instance."""
    (columns,) = [columns for columns in instance.edges.columns if columns.kind is kind]
    return columns


class _PerEdgePool(TwoAssetGeometricPool):
    __slots__ = ()


class _PerEdgeGeometricPool(GeometricMeanPool):
    __slots__ = ()


def _per_edge(edge):
    """``edge`` with its pool as a subclass, which loop groups answer one
    by one, as every pool was answered before the kernels."""
    oracle = edge.oracle
    if type(oracle) is TwoAssetGeometricPool:
        return Hyperedge(edge.incidence, _PerEdgePool(oracle.reserves, oracle.weight, oracle.fee))
    if type(oracle) is GeometricMeanPool:
        return Hyperedge(edge.incidence, _PerEdgeGeometricPool(oracle.reserves, oracle.weights, oracle.fee))
    return edge


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_parsed_cfmm_solves_as_its_records(seed):
    # Column-stored pools, the same pools as a list of records (which the
    # instance packs again through row_params) and as subclasses (which the loop
    # group answers one by one): one solve, bit for bit.
    text = json.dumps(gen_cfmm(200, seed))
    parsed = parse_instance(text)
    pairs, pools = _group(parsed, TwoAssetGeometricPool), _group(parsed, GeometricMeanPool)
    assert len(pairs) > 100 and len(pools) > 20 and pools.nodes.shape[1] == 3
    records = list(parse_instance(text).edges)
    per_edge = list(map(_per_edge, records))
    program = DualProgram(ProblemInstance(n=parsed.n, edges=per_edge, net_objective=parsed.net_objective))
    assert [(g.kind, len(g.positions)) for g in program._groups] == [(None, len(pairs) + len(pools))]
    want = _fingerprint(solve(parsed))
    for edges in (records, per_edge):
        assert _fingerprint(solve(ProblemInstance(n=parsed.n, edges=edges, net_objective=parsed.net_objective))) == want
    assert not parsed.edges._kept


# -- the reader ---------------------------------------------------------------


def _linear_gain_doc():
    doc = gen_maxflow(10, 0.4, 3)
    for k, edge in enumerate(doc["edges"]):
        edge["kind"] = "linear_gain"
        edge["params"] = {"gain": [0.5, 0.8, 1.25][k % 3], "capacity": edge["params"]["capacity"]}
    return doc


@pytest.mark.parametrize(
    "doc",
    [gen_opf(30, 1), gen_maxflow(15, 0.3, 2), _linear_gain_doc(), gen_cfmm(60, 1)],
    ids=["opf_line", "lossless", "linear_gain", "uniswap"],
)
def test_column_stored_instances_serialize_to_their_documents(doc):
    instance = parse_instance(json.dumps(doc))
    records = [e for e in doc["edges"] if e["kind"] not in _COLUMN_KINDS]
    assert isinstance(instance.edges, EdgeTable) and len(instance.edges.records) == len(records)
    assert instance_to_dict(instance) == doc
    # Serializing keeps none of the records it builds.
    assert not instance.edges._kept


def test_edge_table_reads_as_a_list_of_records():
    doc = gen_opf(8, 0)
    doc["edges"][3]["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
    instance = parse_instance(json.dumps(doc))
    edges = instance.edges
    assert len(edges.records) == 1 and edges[3] is edges.records[0]
    assert instance.utility_edges == (3,)
    assert edges[-1].incidence == edges[len(edges) - 1].incidence
    assert [e.incidence.nodes for e in edges[2:5]] == [tuple(e["nodes"]) for e in doc["edges"][2:5]]
    with pytest.raises(IndexError):
        edges[len(edges)]
    # A column-stored record is built on its first access and kept.
    assert edges[0] is edges[0]
    assert instance.incidences.nodes.tolist() == [j for e in doc["edges"] for j in e["nodes"]]


def test_edge_table_checks_its_layout():
    pair = EdgeColumns(LinearGain, [[0, 1], [1, 2]], [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    record = Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0))
    assert len(EdgeTable([record], [pair], [1, 0, 1])) == 3
    for records, group, message in [
        ([], [1, 1, 1], r"group counts \[0, 3\] do not match the 0 records"),
        ([record], [0, 0, 1, 1], r"group counts \[2, 2\] do not match the 1 records"),
        ([], [2, 1], "must run from 0 to the table's 1 column groups"),
        # 256 and -1 would wrap in a byte, to group 0 and group 255.
        ([record], [256, 1, 1], "must run from 0"),
        ([record], [-1, 1, 1], "must run from 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            EdgeTable(records, [pair], group)


def _bundled_doc():
    """Every column kind among records: lossless and linear_gain edges
    sharing a group, an opf line with a penalty and a piecewise-linear
    edge as records, plain and penalized pools."""
    edge = lambda kind, nodes, **params: {"kind": kind, "params": params, "nodes": nodes}
    doc = copy.deepcopy(gen_cfmm(30, 0, edge_penalties=True))
    for k in range(0, 30, 3):
        del doc["edges"][k]["edge_utility"]
    doc["edges"][4:4] = [
        edge("linear_gain", [0, 1], gain=0.8, capacity=2.0),
        edge("opf_line", [1, 2], alpha=16.0, beta=0.25, capacity=3.0),
        edge("piecewise_linear", [2, 3], points=[[0.0, 0.0], [1.0, 0.9], [2.0, 1.5]]),
        edge("lossless", [3, 0], capacity=1.0),
        {**edge("opf_line", [2, 0], alpha=16.0, beta=0.25, capacity=1.0), "edge_utility": {"kind": "quadratic_penalty", "params": {}}},
    ]
    return doc


def test_a_hand_built_instance_packs_its_bundled_edges_as_the_reader_does():
    # The same groups, numbered in the order of their first edges, and
    # the same records; a bundled edge then reads as a record rebuilt
    # from its row, and every other edge as the object given.
    text = json.dumps(_bundled_doc())
    parsed = parse_instance(text)
    given = [Hyperedge(edge.incidence, edge.oracle, edge.utility) for edge in parse_instance(text).edges]
    built = ProblemInstance(n=parsed.n, edges=given, net_objective=parsed.net_objective)
    assert built.edges.group.tobytes() == parsed.edges.group.tobytes()
    assert [(c.kind, c.penalized, c.nodes.tobytes(), [p.tobytes() for p in c.params]) for c in built.edges.columns] == [
        (c.kind, c.penalized, c.nodes.tobytes(), [p.tobytes() for p in c.params]) for c in parsed.edges.columns
    ]
    assert [(c.kind, c.nodes.shape[1], c.penalized) for c in built.edges.columns] == [
        (TwoAssetGeometricPool, 2, False), (GeometricMeanPool, 3, True), (TwoAssetGeometricPool, 2, True),
        (GeometricMeanPool, 3, False), (LinearGain, 2, False), (PowerLossGain, 2, False),
    ]
    assert [k for k, _ in built.edge_records()] == [6, 8]
    assert all(edge is given[k] for k, edge in built.edge_records())
    assert built.utility_edges == parsed.utility_edges
    assert built.edges[4] is not given[4] and built.edges[4].oracle.gain == given[4].oracle.gain
    assert instance_to_dict(built) == json.loads(text)
    assert _fingerprint(solve(built)) == _fingerprint(solve(parsed))


_MISSING = object()


def _with(doc, k, **changes):
    doc = copy.deepcopy(doc)
    for key, value in changes.items():
        if key == "nodes":
            doc["edges"][k]["nodes"] = value
        elif value is _MISSING:
            del doc["edges"][k]["params"][key]
        else:
            doc["edges"][k]["params"][key] = value
    return doc


_OPF = gen_opf(10, 0)
_MAXFLOW = gen_maxflow(10, 0.4, 0)
_LINEAR = _linear_gain_doc()


# Each fault sits after good rows of its kind; the messages are the
# record path's, word for word.
@pytest.mark.parametrize(
    "doc, error, message",
    [
        (_with(_OPF, 7, capacity=True), ParseError, r"$.edges[7].params.capacity: expected float, got bool"),
        (_with(_OPF, 7, capacity=10**400), InstanceValidationError, r"$.edges[7]: capacity must be positive and finite"),
        (_with(_OPF, 7, alpha=15.0), InstanceValidationError, r"$.edges[7]: loss family requires alpha * beta = 4"),
        (_with(_OPF, 7, nodes=[0, 10]), InstanceValidationError, r"$.edges[7].nodes: index out of range for n=10"),
        (_with(_OPF, 7, nodes=[0, 1, 2]), InstanceValidationError, r"$: edge 7: oracle dimension 2 does not match incidence of size 3"),
        (_with(_MAXFLOW, 5, capacity=False), ParseError, r"$.edges[5].params.capacity: expected float, got bool"),
        (_with(_MAXFLOW, 5, capacity=10**400), InstanceValidationError, r"$.edges[5]: capacity must be finite and exceed the lower input bound"),
        (_with(_MAXFLOW, 5, capacity=-1.0), InstanceValidationError, r"$.edges[5]: capacity must be finite and exceed the lower input bound"),
        (_with(_MAXFLOW, 5, nodes=[2, 2]), InstanceValidationError, r"$.edges[5].nodes: duplicate node in incidence (2, 2)"),
        (_with(_MAXFLOW, 5, nodes=[0, 1, 2]), InstanceValidationError, r"$: edge 5: oracle dimension 2 does not match incidence of size 3"),
        (_with(_LINEAR, 6, gain=-0.5), InstanceValidationError, r"$.edges[6]: gain slope must be nonnegative and finite"),
        (_with(_LINEAR, 6, gain=True), ParseError, r"$.edges[6].params.gain: expected float, got bool"),
        (_with(_LINEAR, 6, capacity=10**400), InstanceValidationError, r"$.edges[6]: capacity must be finite and exceed the lower input bound"),
        (_with(_LINEAR, 6, nodes=[0, 99]), InstanceValidationError, r"$.edges[6].nodes: index out of range for n=10"),
        (_with(_LINEAR, 6, nodes=[0, 1, 2]), InstanceValidationError, r"$: edge 6: oracle dimension 2 does not match incidence of size 3"),
    ],
)
def test_a_bad_row_after_good_ones_keeps_its_message(doc, error, message):
    with pytest.raises(error) as info:
        parse_instance(json.dumps(doc))
    assert type(info.value) is error and str(info.value) == message


def test_the_first_fault_in_edge_order_is_reported():
    # A column row's range fault is found after the loop, a record's at
    # once; the earlier edge still wins either way.
    early_column = _with(_with(_OPF, 2, capacity=-1.0), 6, alpha=True)
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[2\]: capacity"):
        parse_instance(json.dumps(early_column))
    early_record = _with(_with(_OPF, 2, alpha=True), 6, capacity=-1.0)
    with pytest.raises(ParseError, match=r"^\$\.edges\[2\]\.params\.alpha: expected float"):
        parse_instance(json.dumps(early_record))
    # Dimension faults are found on the whole instance, after every edge.
    late_dimension = _with(_with(_OPF, 2, nodes=[0, 1, 2]), 6, capacity=-1.0)
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[6\]: capacity"):
        parse_instance(json.dumps(late_dimension))


# gen_cfmm(12, 0) has uniswap edges at 0, 2, 4, 6, 8, 10 and 11.
_CFMM = gen_cfmm(12, 0)
_CFMM_PEN = gen_cfmm(12, 0, edge_penalties=True)


# A uniswap fault after five good pools: the record path's message, word
# for word, which the same edge with a penalty gives too, among plain
# pools or penalized ones.
@pytest.mark.parametrize(
    "changes, error, message",
    [
        ({"weight": True}, ParseError, "$.edges[10].params.weight: expected a number, got bool"),
        ({"fee": "0.3"}, ParseError, "$.edges[10].params.fee: expected a number, got str"),
        ({"fee": 0}, InstanceValidationError, "$.edges[10]: fee must lie in (0, 1], got 0.0"),
        ({"fee": 1.5}, InstanceValidationError, "$.edges[10]: fee must lie in (0, 1], got 1.5"),
        ({"weight": 0.0}, InstanceValidationError, "$.edges[10]: weight must lie in (0, 1), got 0.0"),
        ({"weight": 1}, InstanceValidationError, "$.edges[10]: weight must lie in (0, 1), got 1.0"),
        ({"reserves": [150.0]}, InstanceValidationError, "$.edges[10]: two-asset pool needs exactly two reserves"),
        ({"reserves": [150.0, 1.0, 2.0]}, InstanceValidationError, "$.edges[10]: two-asset pool needs exactly two reserves"),
        ({"reserves": [0, 120.0]}, InstanceValidationError, "$.edges[10]: reserves must be positive and finite, got [0.0, 120.0]"),
        ({"reserves": [150.0, -1.0]}, InstanceValidationError, "$.edges[10]: reserves must be positive and finite, got [150.0, -1.0]"),
        ({"reserves": [10**400, 120.0]}, InstanceValidationError, "$.edges[10]: reserves must be positive and finite, got [inf, 120.0]"),
        ({"reserves": [150.0, -(10**400)]}, InstanceValidationError, "$.edges[10]: reserves must be positive and finite, got [150.0, inf]"),
        ({"reserves": _MISSING}, ParseError, "$.edges[10].params: missing required field 'reserves'"),
    ],
    ids=[
        "bool_weight", "string_fee", "zero_fee", "fee_above_one", "zero_weight", "unit_weight", "one_reserve",
        "three_reserves", "zero_reserve", "negative_reserve", "huge_reserve", "huge_negative_reserve", "no_reserves",
    ],
)
def test_a_bad_pool_after_good_ones_keeps_its_message(changes, error, message):
    doc = _with(_CFMM, 10, **changes)
    penalized = copy.deepcopy(doc)
    penalized["edges"][10]["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
    market = _with(_CFMM_PEN, 10, **changes)
    for text in (json.dumps(doc), json.dumps(penalized), json.dumps(market)):
        with pytest.raises(error) as info:
            parse_instance(text)
        assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "utility, error, message",
    [
        ({"kind": "log_barrier", "params": {}}, ParseError, "$.edges[10].edge_utility.kind: unknown kind 'log_barrier'"),
        ({"params": {}}, ParseError, "$.edges[10].edge_utility: missing required field 'kind'"),
        ({"kind": 3}, ParseError, "$.edges[10].edge_utility.kind: expected str, got int"),
        ([], ParseError, "$.edges[10].edge_utility: expected dict, got list"),
    ],
    ids=["unknown_kind", "no_kind", "integer_kind", "list"],
)
def test_a_bad_edge_utility_after_good_penalized_pools_keeps_its_message(utility, error, message):
    doc = copy.deepcopy(_CFMM_PEN)
    doc["edges"][10]["edge_utility"] = utility
    with pytest.raises(error) as info:
        parse_instance(json.dumps(doc))
    assert type(info.value) is error and str(info.value) == message


def _per_edge_records(text):
    """The records of the per-edge reader, one edge document at a time."""
    doc = json.loads(text)
    return [io_cli._record(edge, doc["n"], f"$.edges[{k}]") for k, edge in enumerate(doc["edges"])]


def _described(edge):
    """What a record says of its edge: oracle type and arguments, nodes,
    and utility type and size."""
    utility = edge.utility
    return (
        type(edge.oracle),
        edge.oracle.row_params(),
        edge.incidence.nodes,
        None if utility is None else (type(utility), utility.dim),
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_penalized_pools_read_as_the_per_edge_records(seed):
    # A penalized pool's row gives the record of the per-edge reader, its
    # penalty included, and writes back to its document.
    text = json.dumps(gen_cfmm(60, seed, edge_penalties=True))
    instance = parse_instance(text)
    assert not instance.edges.records and all(columns.penalized for columns in instance.edges.columns)
    want = _per_edge_records(text)
    assert {type(edge.utility) for edge in want} == {QuadraticPenalty}
    assert list(map(_described, instance.edges)) == list(map(_described, want))
    assert instance_to_dict(parse_instance(text)) == json.loads(text)


def test_the_first_pool_fault_in_edge_order_is_reported():
    # A column fault (found after the loop) before a record fault (found
    # at once), and the other way round.
    early_column = _with(_with(_CFMM, 4, fee=0.0), 8, weight=True)
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[4\]: fee must lie"):
        parse_instance(json.dumps(early_column))
    early_record = _with(_with(_CFMM, 4, weight=True), 8, fee=0.0)
    with pytest.raises(ParseError, match=r"^\$\.edges\[4\]\.params\.weight: expected a number, got bool"):
        parse_instance(json.dumps(early_record))
    # Two column faults of different kinds: the earlier edge.
    both = _with(_with(_CFMM, 6, reserves=[1.0, -1.0]), 2, weight=2.0)
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[2\]: weight must lie"):
        parse_instance(json.dumps(both))


# gen_cfmm(12, 0) has geometric_mean edges at 1, 3, 5, 7 and 9; the
# faulty edge 9 gets fixed numbers, so that the messages are fixed too.
_GEOMETRIC = _with(_CFMM, 9, reserves=[150.0, 120.0, 100.0])


# A geometric_mean fault after four good pools: the record path's
# message, word for word, which the same edge with a penalty (always a
# record) gives.
@pytest.mark.parametrize(
    "changes, error, message",
    [
        ({"weights": [0.5, 0.3, 0.3]}, InstanceValidationError, "$.edges[9]: weights must be positive and sum to one"),
        ({"weights": [0.0, 0.5, 0.5]}, InstanceValidationError, "$.edges[9]: weights must be positive and sum to one"),
        ({"weights": [0.5, 0.5]}, InstanceValidationError, "$.edges[9]: need one positive weight per asset"),
        ({"weights": True}, InstanceValidationError, "$.edges[9]: weights must be a list of numbers, got True"),
        ({"reserves": [True, 120.0, 100.0]}, ParseError, "$.edges[9].params.reserves[0]: expected a number, got bool"),
        (
            {"reserves": [150.0, -1.0, 100.0]},
            InstanceValidationError,
            "$.edges[9]: reserves must be positive and finite, got [150.0, -1.0, 100.0]",
        ),
        (
            {"reserves": [150.0, 10**400, 100.0]},
            InstanceValidationError,
            "$.edges[9]: reserves must be positive and finite, got [150.0, inf, 100.0]",
        ),
        ({"fee": 1.5}, InstanceValidationError, "$.edges[9]: fee must lie in (0, 1], got 1.5"),
        ({"fee": 0}, InstanceValidationError, "$.edges[9]: fee must lie in (0, 1], got 0.0"),
        ({"weights": _MISSING}, ParseError, "$.edges[9].params: missing required field 'weights'"),
        ({"nodes": [2, 2, 5]}, InstanceValidationError, "$.edges[9].nodes: duplicate node in incidence (2, 2, 5)"),
        (
            {"nodes": [2, 5]},
            InstanceValidationError,
            "$: edge 9: oracle dimension 3 does not match incidence of size 2",
        ),
    ],
    ids=[
        "weight_sum", "zero_weight", "length_mismatch", "bool_weights", "bool_reserve", "negative_reserve",
        "huge_reserve", "fee_above_one", "zero_fee", "no_weights", "repeated_node", "too_few_nodes",
    ],
)
def test_a_bad_geometric_pool_after_good_ones_keeps_its_message(changes, error, message):
    doc = _with(_GEOMETRIC, 9, **changes)
    penalized = copy.deepcopy(doc)
    penalized["edges"][9]["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
    for text in (json.dumps(doc), json.dumps(penalized)):
        with pytest.raises(error) as info:
            parse_instance(text)
        assert type(info.value) is error and str(info.value) == message


def test_the_first_geometric_pool_fault_in_edge_order_is_reported():
    # A column fault (found after the loop) before a record fault (found
    # at once), and the other way round.
    early_column = _with(_with(_GEOMETRIC, 3, weights=[0.5, 0.3, 0.3]), 7, reserves=[True, 1.0, 1.0])
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[3\]: weights must be positive"):
        parse_instance(json.dumps(early_column))
    early_record = _with(_with(_GEOMETRIC, 3, reserves=[True, 1.0, 1.0]), 7, weights=[0.5, 0.3, 0.3])
    with pytest.raises(ParseError, match=r"^\$\.edges\[3\]\.params\.reserves\[0\]: expected a number, got bool"):
        parse_instance(json.dumps(early_record))
    # Column faults of two kinds: the earlier edge.
    both = _with(_with(_GEOMETRIC, 4, fee=2.0), 5, weights=[0.5, 0.3, 0.3])
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[4\]: fee must lie"):
        parse_instance(json.dumps(both))


def _mixed_dim_doc():
    """gen_cfmm(30, 0) with a two-asset and a four-asset geometric_mean
    pool among its three-asset ones."""
    doc = copy.deepcopy(gen_cfmm(30, 0))
    pair, four = doc["edges"][3], doc["edges"][14]
    pair["nodes"], pair["params"] = pair["nodes"][:2], {"reserves": [150.0, 120.0], "weights": [0.25, 0.75], "fee": 0.997}
    four["nodes"].append(next(j for j in range(doc["n"]) if j not in four["nodes"]))
    four["params"] = {"reserves": [*four["params"]["reserves"], 130.0], "weights": [0.25] * 4, "fee": 1.0}
    return doc


def test_geometric_pools_of_each_dim_share_one_column_group():
    doc = _mixed_dim_doc()
    instance = parse_instance(json.dumps(doc))
    assert not instance.edges.records
    groups = sorted((columns.kind.__name__, columns.nodes.shape[1], len(columns)) for columns in instance.edges.columns)
    assert groups == [("GeometricMeanPool", 2, 1), ("GeometricMeanPool", 3, 8), ("GeometricMeanPool", 4, 1),
                      ("TwoAssetGeometricPool", 2, 20)]
    # A two-asset geometric_mean pool stays a GeometricMeanPool.
    assert type(instance.edges[3].oracle) is GeometricMeanPool
    assert instance.edges[3].oracle.weights.tolist() == [0.25, 0.75]
    assert instance.incidences.nodes.tolist() == [j for e in doc["edges"] for j in e["nodes"]]
    assert instance_to_dict(instance) == doc
    per_edge = ProblemInstance(
        n=instance.n, edges=list(map(_per_edge, parse_instance(json.dumps(doc)).edges)), net_objective=instance.net_objective
    )
    assert _fingerprint(solve(instance)) == _fingerprint(solve(per_edge))


def test_pools_of_more_sizes_than_255_groups_stay_records_past_them():
    # A group's number is one byte; the 256th size of pool is a record.
    n = 260
    edges = [
        {"kind": "geometric_mean", "params": {"reserves": [100.0] * d, "weights": [1.0 / d] * d}, "nodes": list(range(d))}
        for d in range(2, 259)
    ]
    doc = {"version": 1, "n": n, "objective": {"kind": "linear_nonneg", "params": {"prices": [1.0] * n}}, "edges": edges}
    instance = parse_instance(json.dumps(doc))
    assert len(instance.edges.columns) == 255 and len(instance.edges.records) == 2
    assert [len(e.incidence.nodes) for e in instance.edges.records] == [257, 258]
    assert instance.incidences.nodes.tolist() == [j for e in edges for j in e["nodes"]]


def _only(doc, tag):
    """``doc`` with its ``tag`` edges alone."""
    doc = copy.deepcopy(doc)
    doc["edges"] = [edge for edge in doc["edges"] if edge["kind"] == tag]
    return doc


# A document of each column kind's edges alone.
_ONE_KIND = {
    "opf_line": gen_opf(12, 0),
    "lossless": gen_maxflow(8, 0.5, 0),
    "linear_gain": _linear_gain_doc(),
    "uniswap": _only(gen_cfmm(30, 0), "uniswap"),
    "geometric_mean": _only(_mixed_dim_doc(), "geometric_mean"),
}


def _refuse(*args):
    raise AssertionError("a column-stored edge was answered one by one")


# What a column-stored edge would go through if it were answered one by
# one: its record, and the per-edge methods of the kernel kinds.
_PER_EDGE_PATHS = [
    (EdgeColumns, "record"),
    (TwoNodeEdge, "evaluate"),
    (TwoNodeEdge, "evaluate_pair"),
    (TwoAssetGeometricPool, "evaluate"),
    (TwoAssetGeometricPool, "evaluate_pair"),
    (GeometricMeanPool, "evaluate"),
]


def test_the_reader_and_the_packer_share_one_table_of_kernel_kinds():
    assert {kind for kind, _ in _COLUMN_KINDS.values()} == set(_KERNEL_KINDS)


@pytest.mark.parametrize("tag", sorted(_COLUMN_KINDS))
def test_every_column_kind_is_answered_by_a_kernel_and_round_trips(tag, monkeypatch):
    # The reader, the solver and the writer share one registry of column
    # kinds: a kind the reader stores as columns must be answered by a
    # kernel, with no record built and no per-edge call in a whole solve,
    # and must serialize back to its document.
    assert set(_ONE_KIND) == set(_COLUMN_KINDS)
    kind = _COLUMN_KINDS[tag][0]
    doc = _ONE_KIND[tag]
    instance = parse_instance(json.dumps(doc))
    assert not instance.edges.records and {columns.kind for columns in instance.edges.columns} == {kind}
    program = DualProgram(instance)
    assert {group.kind for group in program._groups} == {kind}
    for owner, name in _PER_EDGE_PATHS:
        monkeypatch.setattr(owner, name, _refuse)
    solve(instance)
    monkeypatch.undo()
    assert instance_to_dict(instance) == doc


def test_pools_accept_integer_reserves_and_keep_penalized_ones_as_column_rows():
    doc = _with(_with(_CFMM, 2, reserves=[150, 120]), 4, weight=1 / 3)
    doc["edges"][6]["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
    instance = parse_instance(json.dumps(doc))
    # A penalized pool is a row of its own group, flagged, beside the
    # plain pools of its kind and size.
    pools = [columns for columns in instance.edges.columns if columns.kind is TwoAssetGeometricPool]
    assert [(len(columns), columns.penalized) for columns in pools] == [(6, False), (1, True)]
    assert not instance.edges.records
    assert instance.edges[2].oracle.reserves.tolist() == [150.0, 120.0]
    assert instance.edges[4].oracle.weight == 1 / 3
    assert instance.utility_edges == (6,) and isinstance(instance.edges[6].utility, QuadraticPenalty)
    assert instance.edges[4].utility is None
    # Every edge of a penalized market is a column row.
    market = parse_instance(json.dumps(gen_cfmm(20, 0, edge_penalties=True)))
    assert isinstance(market.edges, EdgeTable) and not market.edges.records
    assert all(columns.penalized for columns in market.edges.columns)
    assert market.utility_edges == tuple(range(20))


def test_column_rows_hold_integers_as_floats():
    doc = gen_maxflow(8, 0.5, 0)  # integer capacities
    instance = parse_instance(json.dumps(doc))
    (columns,) = instance.edges.columns
    assert columns.kind is LinearGain and columns.params[1].dtype == float
    assert [e.oracle.gain.capacity for e in instance.edges] == [float(e["params"]["capacity"]) for e in doc["edges"]]


def _no_edge_by_edge_read(*args, **kwargs):
    raise AssertionError("a column-stored edge was read one by one")


# What reading a column-stored edge on its own would call: the per-edge
# readers, each kind's row_oracle, the pool constructors and the record
# types.
_PER_EDGE_READS = [
    (io_cli, "_read_oracle"),
    (io_cli, "_record"),
    (GainFunction, "row_oracle"),
    (TwoAssetGeometricPool, "row_oracle"),
    (GeometricMeanPool, "row_oracle"),
    (TwoAssetGeometricPool, "__init__"),
    (GeometricMeanPool, "__init__"),
    (Hyperedge, "__init__"),
    (EdgeColumns, "record"),
]


@pytest.mark.parametrize(
    "doc",
    [gen_opf(50, 0), gen_maxflow(20, 0.3, 0), gen_cfmm(100, 0)],
    ids=["opf", "maxflow", "cfmm"],
)
def test_parsing_reads_column_stored_edges_field_by_field(doc, monkeypatch):
    # The reader reads each field of a group as one column: no edge of a
    # bench family goes through a per-edge reader, a constructor or a
    # record (maxflow's integer capacities included).
    text = json.dumps(doc)
    for owner, name in _PER_EDGE_READS:
        monkeypatch.setattr(owner, name, _no_edge_by_edge_read)
    instance = parse_instance(text)
    monkeypatch.undo()
    assert not instance.edges.records and len(instance.edges) == len(doc["edges"])
    assert instance_to_dict(instance) == json.loads(text)


# -- memory -------------------------------------------------------------------


def test_solving_a_parsed_opf_instance_builds_no_record(monkeypatch):
    instance = parse_instance(json.dumps(gen_opf(100, 0)))
    built = []
    record = EdgeColumns.record

    def counting(self, row):
        built.append(row)
        return record(self, row)

    monkeypatch.setattr(EdgeColumns, "record", counting)
    result = solve(instance)
    assert result.converged
    assert built == []
    instance.edges[5]
    assert built == [5]


def test_parsed_opf_instance_keeps_little_memory_per_edge():
    # A node pair and three gain parameters in columns, plus the table's
    # group and row index: about 58 bytes an edge of gen_opf(1000, 0),
    # against about 417 with five Python objects per edge.
    text = json.dumps(gen_opf(1000, 0))
    parse_instance(text)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        instance = parse_instance(text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert kept / instance.m <= 100


def test_solving_a_parsed_cfmm_instance_builds_no_record(monkeypatch):
    instance = parse_instance(json.dumps(gen_cfmm(200, 1)))
    # Every pool is a column row: two-asset and geometric_mean alike.
    assert not instance.edges.records
    assert {columns.kind for columns in instance.edges.columns} == {TwoAssetGeometricPool, GeometricMeanPool}
    built = []
    record = EdgeColumns.record

    def counting(self, row):
        built.append((self.kind, row))
        return record(self, row)

    monkeypatch.setattr(EdgeColumns, "record", counting)
    result = solve(instance)
    assert result.converged
    assert built == [] and not instance.edges._kept
    # A record is built on its first access and kept after it.
    edge = instance.edges[4]
    assert instance.edges[4] is edge and instance.edges[-len(instance.edges) + 4] is edge
    assert len(built) == 1 and list(instance.edges._kept) == [4]


def test_parsed_cfmm_instance_keeps_little_memory_per_edge():
    # Every pool in columns: a node pair and four floats for a two-asset
    # pool, three nodes and seven floats for a three-asset one, plus the
    # table's group and row index: about 67 bytes an edge of
    # gen_cfmm(1600, 0) on CPython 3.11, against about 161 with the
    # three-asset pools as slotted records and 395 with every pool a
    # record.
    text = json.dumps(gen_cfmm(1600, 0))
    parse_instance(text)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        instance = parse_instance(text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert kept / instance.m <= 75


def _partly_penalized(doc):
    """``doc`` with the penalty taken off every other edge: column-stored
    pools mixed with penalized records."""
    doc = copy.deepcopy(doc)
    for edge in doc["edges"][::2]:
        del edge["edge_utility"]
    return doc


@pytest.mark.parametrize(
    "doc",
    [gen_cfmm(120, 2), gen_opf(60, 1), gen_maxflow(12, 0.4, 1), _linear_gain_doc(),
     _partly_penalized(gen_cfmm(60, 1, edge_penalties=True)), gen_cfmm(60, 1, edge_penalties=True)],
    ids=["cfmm", "opf", "maxflow", "linear_gain", "cfmm_pen", "cfmm_pen_all"],
)
def test_check_feasibility_keeps_no_record(doc, monkeypatch):
    # The bench's gate, `convexflows check` and duality_gap test every
    # edge's membership; on a parsed instance they must build no record,
    # and judge as the records of a second parse would.
    text = json.dumps(doc)
    instance = parse_instance(text)
    listed = ProblemInstance(n=instance.n, edges=list(parse_instance(text).edges), net_objective=instance.net_objective)
    assert instance.edges.columns
    result = solve(instance)
    flows = [np.array(flow) for flow in result.flows]
    for k in range(0, len(flows), 7):
        flows[k] = flows[k] + 0.5  # some edges now outside their sets
    for owner, name in _PER_EDGE_PATHS:
        monkeypatch.setattr(owner, name, _refuse)
    for edge_flows in (result.flows, flows):
        point = PrimalPoint(edge_flows=edge_flows, net_flow=result.net_flow)
        report = check_feasibility(instance, point, 1e-6)
        assert not instance.edges._kept
        want = check_feasibility(listed, point, 1e-6)
        assert type(report.edge_membership) is list and set(map(type, report.edge_membership)) == {bool}
        assert report.edge_membership == want.edge_membership
        assert report.net_flow_residual == want.net_flow_residual
    assert report.edge_membership.count(False) > 0


def _dual_by_edge(instance, point):
    """The explicit dual as a loop over the edges' records adds it: each
    penalized edge's conjugate, then its value at its edge prices."""
    nu = np.asarray(point.node_prices, float)
    total = instance.net_objective.conj(nu).value
    for edge, eta in zip(instance.edges, point.edge_prices):
        local = edge.incidence.gather(nu)
        if edge.utility is not None:
            total += edge.utility.conj(eta - local).value
        total += edge.oracle.evaluate(local if edge.utility is None else eta).value
    return total


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "make",
    [lambda seed: gen_cfmm(200, seed), lambda seed: gen_opf(100, seed), lambda seed: gen_cfmm(100, seed, edge_penalties=True)],
    ids=["cfmm", "opf", "cfmm_pen"],
)
def test_eval_dual_answers_column_groups_with_their_kernels(make, seed, monkeypatch):
    # eval_dual splits the edges as the dual program does: it builds no
    # record and answers no edge of a kernel kind one by one.  Without a
    # penalty it adds the terms the solve's pass adds in the same edge
    # order: the same bits.  With one, each penalized row's conjugate and
    # value are the bits a loop over its record adds, in edge order.
    text = json.dumps(make(seed))
    instance = parse_instance(text)
    result = solve(instance)
    want = _dual_by_edge(parse_instance(text), result.dual_point) if instance.utility_edges else result.dual_value
    for owner, name in [*_PER_EDGE_PATHS, (QuadraticPenalty, "conj")]:
        monkeypatch.setattr(owner, name, _refuse)
    value = eval_dual(instance, result.dual_point)
    assert not instance.edges._kept
    assert value == want
    assert abs(value - result.dual_value) <= 1e-12 * (1.0 + abs(value))


# -- penalized pools ----------------------------------------------------------


def _primal_by_edge(instance, point):
    """The primal objective as a loop over the edges adds it, each edge
    scored by its own penalty."""
    total = instance.net_objective.evaluate_primal(np.asarray(point.net_flow, float))
    for k in instance.utility_edges:
        v = QuadraticPenalty(len(point.edge_flows[k])).evaluate_primal(np.asarray(point.edge_flows[k], float))
        if v == -math.inf:
            return -math.inf
        total += v
    return float(total)


def test_a_parsed_penalized_market_builds_no_record(monkeypatch):
    # Solving, judging and scoring a market whose every pool is a
    # penalized column row builds no record and calls no per-edge method.
    instance = parse_instance(json.dumps(gen_cfmm(100, 0, edge_penalties=True)))
    assert instance.edges.records == [] and instance.utility_edges == tuple(range(100))
    for owner, name in [*_PER_EDGE_PATHS, (TwoAssetGeometricPool, "evaluate_penalized"),
                        (GeometricMeanPool, "evaluate_penalized"), (QuadraticPenalty, "evaluate_primal")]:
        monkeypatch.setattr(owner, name, _refuse)
    result = solve(instance)
    assert result.converged
    point = PrimalPoint(edge_flows=result.flows, net_flow=result.net_flow)
    assert check_feasibility(instance, point, 1e-6).ok
    assert primal_objective(instance, point, tol=1e-6) == result.primal_value
    assert instance.edges.records == [] and not instance.edges._kept


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_parsed_penalized_market_solves_as_its_records(seed):
    # The flagged column groups and the same pools as a list of records
    # with their penalties (which the instance packs again): the same result
    # document.
    text = json.dumps(gen_cfmm(100, seed, edge_penalties=True))
    parsed = parse_instance(text)
    listed = ProblemInstance(n=parsed.n, edges=list(parse_instance(text).edges), net_objective=parsed.net_objective)

    def digest(instance):
        return hashlib.sha256(json.dumps(io_cli.result_to_dict(solve(instance))).encode()).hexdigest()

    assert digest(parsed) == digest(listed)


def test_primal_objective_scores_penalized_edges_as_edge_by_edge():
    # Two- and three-asset pools, flows packed and listed, pushed out of
    # their sets so that most coordinates tender: the same bits as a loop
    # over the edges' own penalties.
    instance = parse_instance(json.dumps(gen_cfmm(100, 1, edge_penalties=True)))
    result = solve(instance)
    moved = [flow - 0.37 * (k % 5) for k, flow in enumerate(result.flows)]
    points = [
        PrimalPoint(edge_flows=result.flows, net_flow=result.net_flow),
        PrimalPoint(edge_flows=moved, net_flow=result.net_flow),
        PrimalPoint(edge_flows=EdgeVectors.pack(moved, result.flows.offsets), net_flow=result.net_flow),
    ]
    for point in points:
        assert primal_objective(instance, point) == _primal_by_edge(instance, point)
    # An infinite tender scores -inf, past a NaN on an earlier edge too.
    moved[3], moved[7] = np.full(len(moved[3]), math.nan), np.full(len(moved[7]), -math.inf)
    assert primal_objective(instance, points[1]) == -math.inf == _primal_by_edge(instance, points[1])
    # One edge tendering on every coordinate at a zero net flow, so that
    # the total is that edge's own value: a sum of squares that rounds
    # otherwise than its dot product (as a fused multiply-add does) shows.
    rng = np.random.default_rng(0)
    offsets = result.flows.offsets
    for trial, k in enumerate(rng.integers(0, instance.m, 200)):
        flows = np.zeros(offsets[-1])
        flows[offsets[k] : offsets[k + 1]] = -rng.uniform(0.1, 10.0, offsets[k + 1] - offsets[k])
        packed = EdgeVectors(flows, offsets)
        point = PrimalPoint(edge_flows=packed if trial % 2 else list(packed), net_flow=np.zeros(instance.n))
        assert primal_objective(instance, point) == _primal_by_edge(instance, point)
