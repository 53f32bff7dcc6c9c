"""Membership tests over rows: each kernel kind's ``member_rows`` against
the scalar tests it replaced.

The reference functions below are the pools' and two-node edges' scalar
``is_member`` code as it stood before the row tests, with one rule
added: a flow with a non-finite entry is never a member (before, the
scale ``tol (1 + |flow|_inf)`` became infinite and let it in).  Every
kernel kind's ``member_rows`` and every row oracle's ``is_member`` must
give the reference's verdict on every row.
"""

import math

import numpy as np
import pytest

from convexflows.edges import (
    FisherBasketEdge,
    GeometricMeanPool,
    LinearGain,
    PiecewiseLinearGain,
    PowerLossGain,
    TwoAssetGeometricPool,
    TwoNodeEdge,
    concave_gain_edge,
)

TOL = 1e-6


def pool_member_reference(reserves, weights, fee, flow, tol):
    """A pool's scalar membership test, with the flow lowered by the scale
    before the residuals are taken."""
    flow = np.asarray(flow, dtype=float)
    if not np.isfinite(flow).all():
        return False
    scale = tol * (1.0 + float(np.max(np.abs(flow))))
    flow = flow - scale
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


def two_node_member_reference(gain, flow, tol):
    """A two-node edge's scalar membership test: the input within the
    scale of the domain, the output within it of the gain at the input
    clipped onto the domain."""
    flow = np.asarray(flow, dtype=float)
    if not np.isfinite(flow).all():
        return False
    scale = tol * (1.0 + float(np.max(np.abs(flow))))
    w = -flow[0]
    if w < gain.input_lo - scale or w > gain.input_hi + scale:
        return False
    w_c = min(max(w, gain.input_lo), gain.input_hi)
    return flow[1] <= gain.value(w_c) + scale


def _reference(oracle, flow, tol):
    if isinstance(oracle, TwoNodeEdge):
        return two_node_member_reference(oracle.gain, flow, tol)
    return pool_member_reference(oracle.reserves, oracle.weights, oracle.fee, flow, tol)


def _rows(kind, rng, m):
    """``m`` rows of constructor arguments of ``kind``, as its columns."""
    if kind is LinearGain:
        return (rng.choice([0.0, 0.5, 1.0, 1.7], m), rng.uniform(0.5, 5.0, m), rng.choice([0.0, -1.5], m))
    if kind is PowerLossGain:
        alpha = rng.choice([16.0, 4.0], m)
        return alpha, 4.0 / alpha, rng.uniform(0.5, 5.0, m)
    if kind is TwoAssetGeometricPool:
        return (*rng.uniform(50.0, 200.0, (2, m)), rng.choice([0.5, 0.8, 0.3], m), rng.choice([1.0, 0.997], m))
    weights = rng.uniform(0.2, 1.0, (m, 3))
    return rng.uniform(50.0, 200.0, (m, 3)), weights / weights.sum(axis=1, keepdims=True), rng.choice([1.0, 0.997], m)


# Each row's maximizer scaled by these factors; 1 puts it on the boundary.
SCALES = [0.0, 0.5, -0.5, 0.9, -0.9, 1.0, 1.1, -1.1]


@pytest.mark.parametrize("kind", [LinearGain, PowerLossGain, TwoAssetGeometricPool, GeometricMeanPool], ids=lambda k: k.__name__)
def test_member_rows_match_the_scalar_reference(kind):
    rng = np.random.default_rng(7)
    m = 40
    params = _rows(kind, rng, m)
    dim = 3 if kind is GeometricMeanPool else 2
    flow = kind.evaluate_rows(*params, rng.uniform(0.2, 3.0, (m, dim)))[1]
    blocks = [c * flow for c in SCALES]
    # Non-finite entries, one a row, at every position.
    for k, bad in enumerate([math.nan, math.inf, -math.inf]):
        block = flow.copy()
        block[np.arange(m), (np.arange(m) + k) % dim] = bad
        blocks.append(block)
    oracles = [kind.row_oracle(*row) for row in zip(*(column.tolist() for column in params))]
    verdicts = []
    for block in blocks:
        got = kind.member_rows(*params, block, TOL)
        want = [_reference(oracle, row, TOL) for oracle, row in zip(oracles, block)]
        assert got.dtype == bool and got.tolist() == want
        assert [oracle.is_member(row, TOL) for oracle, row in zip(oracles, block)] == want
        verdicts += want
    # Both verdicts occur, on and off the finite rows.
    assert 0 < sum(verdicts[: len(SCALES) * m]) < len(SCALES) * m
    assert not any(verdicts[len(SCALES) * m :])


@pytest.mark.parametrize("kind", [TwoAssetGeometricPool, GeometricMeanPool], ids=lambda k: k.__name__)
def test_member_rows_keep_the_shift_past_the_float_range(kind):
    # The exact trade at a price ratio past the float range leaves a
    # post-trade reserve that rounds to zero; lowered by the scale, the
    # flow lies within the slack of the set, and a thousand times that
    # slack beyond the reserve does not.
    params = (np.array([0.1]), np.array([150.0]), np.array([0.5]), np.array([0.997]))
    if kind is GeometricMeanPool:
        params = (np.array([[0.1, 150.0]]), np.array([[0.5, 0.5]]), np.array([0.997]))
    flow = kind.evaluate_rows(*params, np.array([[1e-320, 1.0]]))[1][0]
    assert flow[1] == 150.0 and -math.inf < flow[0] < -1e160
    slack = 1e-9 * (1.0 + np.max(np.abs(flow)))
    block = np.array([flow, flow + [0.0, slack], flow + [0.0, 1e3 * slack]])
    got = [bool(kind.member_rows(*params, row[None], 1e-9)[0]) for row in block]
    assert got == kind.member_rows(*(np.repeat(c, 3, axis=0) for c in params), block, 1e-9).tolist()
    oracle = kind.row_oracle(*(c[0].tolist() for c in params))
    assert got == [_reference(oracle, row, 1e-9) for row in block] == [True, True, False]


# Every bundled oracle, with a flow that lies in its set.
ORACLES = {
    "linear": (TwoNodeEdge(LinearGain(1.0, 3.0)), [-1.0, 1.0]),
    "piecewise": (TwoNodeEdge(PiecewiseLinearGain([(0.0, 0.0), (1.0, 1.5), (2.0, 2.0)])), [-1.0, 1.0]),
    "power_loss": (TwoNodeEdge(PowerLossGain(16.0, 0.25, 2.0)), [-1.0, 0.5]),
    "callable": (concave_gain_edge(math.sqrt, 2.0), [-1.0, 0.5]),
    "two_asset_pool": (TwoAssetGeometricPool([100.0, 150.0], 0.5, 0.997), [-1.0, 0.5]),
    "geometric_pool": (GeometricMeanPool([100.0, 150.0, 120.0], [0.25, 0.25, 0.5]), [-1.0, 0.5, 0.0]),
    "fisher_basket": (FisherBasketEdge([1.0, 2.0]), [-0.5, -0.5, 1.0]),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_a_flow_with_a_non_finite_entry_is_never_a_member(name):
    oracle, flow = ORACLES[name]
    assert oracle.is_member(np.array(flow), TOL)
    for k in range(len(flow)):
        for bad in (math.inf, -math.inf, math.nan):
            changed = np.array(flow)
            changed[k] = bad
            assert not oracle.is_member(changed, TOL), (k, bad)
