import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexflows.edges import (
    CallableGain,
    InvalidEdgeError,
    LinearGain,
    PiecewiseLinearGain,
    PowerLossGain,
    TwoNodeEdge,
    concave_gain_edge,
    linear_gain_edge,
    lossless_edge,
    opf_arbitrage,
    opf_line_edge,
    piecewise_linear_edge,
    solve_scalar_arbitrage,
)


def golden_max(f, lo, hi, tol=1e-12):
    """Independent ternary-search oracle for scalar concave maximization."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def sample_edges():
    return [
        lossless_edge(2.0),
        linear_gain_edge(1.5, 3.0),
        piecewise_linear_edge([(-1.0, -1.1), (0.0, 0.0), (1.0, 0.9), (2.0, 1.5)]),
        opf_line_edge(16.0, 0.25, 2.0),
        opf_line_edge(16.0, 0.25, 10.0),
    ]


# -- scalar arbitrage ------------------------------------------------------


def test_lossless_saturates_when_output_dearer():
    res = solve_scalar_arbitrage(lossless_edge(2.0), (1.0, 3.0))
    assert res.input_amount == pytest.approx(2.0)
    assert_allclose(res.flow, [-2.0, 2.0])
    assert res.value == pytest.approx(4.0)  # b * (p_out - p_in)_+


def test_lossless_idle_when_input_dearer():
    res = solve_scalar_arbitrage(lossless_edge(2.0), (3.0, 1.0))
    assert res.input_amount == pytest.approx(0.0)
    assert res.value == pytest.approx(0.0)


def test_opf_zero_input_at_equal_prices():
    # Marginal gain at zero input is exactly one.
    res = solve_scalar_arbitrage(opf_line_edge(16.0, 0.25, 2.0), (1.0, 1.0))
    assert res.input_amount == pytest.approx(0.0, abs=1e-9)


def test_opf_free_input_reaches_peak():
    res = solve_scalar_arbitrage(opf_line_edge(16.0, 0.25, 10.0), (0.0, 1.0))
    assert res.input_amount == pytest.approx(4.0 * math.log(3.0), abs=1e-8)
    edge = opf_line_edge(16.0, 0.25, 10.0)
    w_ref = golden_max(lambda w: edge.gain.value(w), 0.0, 10.0)
    assert res.input_amount == pytest.approx(w_ref, abs=1e-7)


def test_scalar_arbitrage_rejects_negative_prices():
    with pytest.raises(ValueError):
        solve_scalar_arbitrage(lossless_edge(1.0), (-1.0, 1.0))


def test_scalar_optimality_conditions_random():
    # The returned input is exact up to the interval tolerance, so the
    # slope certificate is checked just beyond it on either side.
    rng = np.random.default_rng(42)
    for edge in sample_edges():
        gain = edge.gain
        delta = 1e-7 * max(1.0, gain.input_hi - gain.input_lo)
        for _ in range(50):
            p = rng.uniform(0.01, 3.0, size=2)
            res = solve_scalar_arbitrage(edge, p)
            w = res.input_amount
            tol = 1e-6 * (1.0 + p[1])
            assert p[1] * gain.right_slope(min(w + delta, gain.input_hi)) - p[0] <= tol
            assert p[0] - p[1] * gain.left_slope(max(w - delta, gain.input_lo)) <= tol


def test_scalar_arbitrage_matches_golden_oracle():
    rng = np.random.default_rng(5)
    for edge in sample_edges():
        lo, hi = edge.gain.input_lo, edge.gain.input_hi
        for _ in range(20):
            p = rng.uniform(0.05, 3.0, size=2)
            res = solve_scalar_arbitrage(edge, p)
            ref = golden_max(lambda w: -p[0] * w + p[1] * edge.gain.value(w), lo, hi)
            ref_val = -p[0] * ref + p[1] * edge.gain.value(ref)
            assert res.value >= ref_val - 1e-8 * (1.0 + abs(ref_val))


def test_zero_output_price_conventions():
    for edge in [lossless_edge(2.0), opf_line_edge(16.0, 0.25, 2.0)]:
        res = solve_scalar_arbitrage(edge, (1.0, 0.0))
        assert res.input_amount == pytest.approx(0.0)
        assert res.value == pytest.approx(0.0)
    res = solve_scalar_arbitrage(lossless_edge(2.0), (0.0, 0.0))
    assert res.value == pytest.approx(0.0)
    # A gain accepting negative inputs pays out at the domain floor.
    edge = piecewise_linear_edge([(-1.0, -1.1), (0.0, 0.0), (1.0, 0.9)])
    res = solve_scalar_arbitrage(edge, (2.0, 0.0))
    assert res.input_amount == pytest.approx(-1.0)
    assert res.value == pytest.approx(2.0)


# -- no-flow and active-interval conditions --------------------------------
#
# These are properties of the answers, checked on both the closed forms
# (``evaluate_pair``) and the reference solve (``solve_scalar_arbitrage``).


def both_inputs(edge, p):
    """Optimal input from the closed form and from the reference solve."""
    _, flow_in, _, _ = edge.evaluate_pair(float(p[0]), float(p[1]))
    return -flow_in, solve_scalar_arbitrage(edge, p).input_amount


def random_price_pairs(rng, count):
    """Price pairs in [0, 3]^2, one in ten with a zero entry."""
    for _ in range(count):
        p = rng.uniform(0.0, 3.0, size=2)
        if rng.random() < 0.1:
            p[rng.integers(2)] = 0.0
        yield p


def test_no_flow_lossless():
    edge = lossless_edge(1.0)
    assert both_inputs(edge, (2.0, 1.0)) == (0.0, 0.0)
    assert both_inputs(edge, (1.0, 1.0)) == (0.0, 0.0)
    assert both_inputs(edge, (1.0, 2.0)) == (1.0, 1.0)


def test_no_flow_kink_spanning_ratio():
    # Slopes 1.1 then 0.9 around zero span the price ratio 1.
    edge = piecewise_linear_edge([(-1.0, -1.1), (0.0, 0.0), (1.0, 0.9)])
    assert edge.gain.right_slope(0.0) == pytest.approx(0.9)
    assert edge.gain.left_slope(0.0) == pytest.approx(1.1)
    assert both_inputs(edge, (1.0, 1.0)) == (0.0, 0.0)
    # Past the left slope the edge pays out down to its domain floor.
    assert both_inputs(edge, (1.2, 1.0)) == (-1.0, -1.0)


def test_no_flow_implies_zero_solution():
    # A price ratio inside [right_slope(0), left_slope(0)] gives zero input.
    rng = np.random.default_rng(17)
    hits = 0
    for edge in sample_edges():
        gain = edge.gain
        for p in random_price_pairs(rng, 60):
            ratio = math.inf if p[1] == 0.0 else p[0] / p[1]
            if not gain.right_slope(0.0) <= ratio <= gain.left_slope(0.0):
                continue
            closed, reference = both_inputs(edge, p)
            assert abs(closed) <= 1e-12 and abs(reference) <= 1e-8
            hits += 1
    assert hits >= 50


def test_active_interval_endpoints():
    edge = lossless_edge(1.0)
    assert both_inputs(edge, (0.5, 1.0)) == (1.0, 1.0)
    assert both_inputs(edge, (2.0, 1.0)) == (0.0, 0.0)
    # Off the active interval (right_slope(lo), left_slope(hi)) the answer
    # is the idle or the saturating endpoint.
    rng = np.random.default_rng(23)
    idle = saturate = 0
    for edge in sample_edges():
        gain = edge.gain
        for p in random_price_pairs(rng, 60):
            if p[1] == 0.0:
                continue
            ratio = p[0] / p[1]
            if ratio > gain.right_slope(gain.input_lo):
                endpoint = gain.input_lo
                idle += 1
            elif ratio < gain.left_slope(gain.input_hi):
                endpoint = gain.input_hi
                saturate += 1
            else:
                continue
            for w in both_inputs(edge, p):
                assert w == pytest.approx(endpoint, abs=1e-12)
    assert idle >= 20 and saturate >= 20


def test_active_interval_opf_interior_peak():
    # Capacity above the gain's peak input 4 log 3: a ratio just under the
    # marginal gain at zero input leaves the optimum strictly inside.
    edge = opf_line_edge(16.0, 0.25, 10.0)
    for w in both_inputs(edge, (0.9, 1.0)):
        assert 0.0 < w < 4.0 * math.log(3.0)
        assert w == pytest.approx(4.0 * math.log(2.1 / 1.9), abs=1e-8)


def test_active_interval_matches_full_solve():
    # The closed form's value equals the reference solve's value.
    rng = np.random.default_rng(23)
    for edge in sample_edges():
        for p in random_price_pairs(rng, 60):
            closed = edge.evaluate_pair(float(p[0]), float(p[1]))[0]
            reference = solve_scalar_arbitrage(edge, p).value
            assert closed == pytest.approx(reference, abs=1e-9 * (1.0 + abs(reference)))


# -- transmission line closed form ----------------------------------------


def test_opf_arbitrage_examples():
    w, _ = opf_arbitrage(16.0, 0.25, 5.0, (1.0, 1.0))
    assert w == pytest.approx(0.0)
    w, _ = opf_arbitrage(16.0, 0.25, 10.0, (0.0, 1.0))
    assert w == pytest.approx(4.0 * math.log(3.0))
    w, _ = opf_arbitrage(16.0, 0.25, 5.0, (1.0, 0.2))
    assert w == pytest.approx(0.0)
    w, value = opf_arbitrage(16.0, 0.25, 5.0, (0.0, 0.0))
    assert (w, value) == (0.0, 0.0)


def test_opf_arbitrage_requires_loss_family():
    with pytest.raises(InvalidEdgeError):
        opf_arbitrage(16.0, 0.5, 1.0, (1.0, 1.0))


def test_opf_closed_form_matches_bisection():
    rng = np.random.default_rng(31)
    for _ in range(500):
        cap = rng.uniform(0.5, 10.0)
        p = rng.uniform(0.0, 3.0, size=2)
        if rng.random() < 0.1:
            p[rng.integers(2)] = 0.0
        w_closed, _ = opf_arbitrage(16.0, 0.25, cap, p)
        res = solve_scalar_arbitrage(opf_line_edge(16.0, 0.25, cap), p)
        assert abs(w_closed - res.input_amount) <= 1e-8


# -- generic concave gains -------------------------------------------------


def test_concave_gain_reproduces_lossless():
    edge = concave_gain_edge(lambda w: w, 1.0)
    rng = np.random.default_rng(2)
    ref = lossless_edge(1.0)
    for _ in range(20):
        p = rng.uniform(0.05, 2.0, size=2)
        a = solve_scalar_arbitrage(edge, p)
        b = solve_scalar_arbitrage(ref, p)
        assert a.value == pytest.approx(b.value, abs=1e-8)


def test_sqrt_gain_interior_solution():
    edge = concave_gain_edge(math.sqrt, 4.0)
    res = solve_scalar_arbitrage(edge, (1.0, 1.0))
    assert res.input_amount == pytest.approx(0.25, abs=1e-7)


def test_concave_gain_matches_line_closed_form():
    gamma = lambda w: w - (16.0 * (np.logaddexp(0.0, 0.25 * w) - math.log(2.0)) - 2.0 * w)
    edge = concave_gain_edge(gamma, 3.0)
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = rng.uniform(0.05, 2.0, size=2)
        res = solve_scalar_arbitrage(edge, p)
        w_closed, value_closed = opf_arbitrage(16.0, 0.25, 3.0, p)
        assert res.value == pytest.approx(value_closed, abs=1e-7)
        assert res.input_amount == pytest.approx(w_closed, abs=1e-5)


def test_concave_gain_rejects_nonconcave():
    with pytest.raises(InvalidEdgeError):
        concave_gain_edge(lambda w: w * w, 1.0)
    with pytest.raises(InvalidEdgeError):
        concave_gain_edge(lambda w: -1.0 + w, 1.0)


# -- support function properties -------------------------------------------


def test_homogeneity_and_certificate():
    rng = np.random.default_rng(77)
    for edge in sample_edges():
        for _ in range(25):
            p = rng.uniform(0.01, 3.0, size=2)
            t = rng.uniform(0.1, 5.0)
            base = edge.evaluate(p)
            scaled = edge.evaluate(t * p)
            assert scaled.value == pytest.approx(t * base.value, rel=1e-9, abs=1e-9)
            assert base.value == pytest.approx(float(p @ base.flow), abs=1e-9)
            assert edge.is_member(base.flow, 1e-7)


def test_convexity_in_prices():
    rng = np.random.default_rng(101)
    for edge in sample_edges():
        for _ in range(40):
            p = rng.uniform(0.01, 3.0, size=2)
            q = rng.uniform(0.01, 3.0, size=2)
            theta = rng.uniform()
            mix = edge.evaluate(theta * p + (1 - theta) * q).value
            split = theta * edge.evaluate(p).value + (1 - theta) * edge.evaluate(q).value
            assert mix <= split + 1e-9 * (1.0 + abs(split))


def test_supported_face_detection():
    edge = lossless_edge(1.0)
    face = edge.supported_face(np.array([1.0, 1.0]))
    assert face is not None
    p, q = face
    assert_allclose(p, [0.0, 0.0])
    assert_allclose(q, [-1.0, 1.0])
    assert edge.supported_face(np.array([2.0, 1.0])) is None
    assert opf_line_edge(16.0, 0.25, 1.0).supported_face(np.array([1.0, 1.0])) is None


def test_membership_checks():
    edge = lossless_edge(1.0)
    assert edge.is_member(np.array([-1.0, 1.0]), 1e-9)
    assert edge.is_member(np.array([-0.5, 0.4]), 1e-9)  # free disposal below the curve
    assert not edge.is_member(np.array([-2.0, 2.0]), 1e-9)
    assert not edge.is_member(np.array([-0.5, 0.6]), 1e-9)


def test_gain_validation_errors():
    with pytest.raises(InvalidEdgeError):
        LinearGain(slope=-1.0, capacity=1.0)
    with pytest.raises(InvalidEdgeError):
        PiecewiseLinearGain([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])  # convex corner
    with pytest.raises(InvalidEdgeError):
        PowerLossGain(alpha=16.0, beta=1.0, capacity=1.0)
    with pytest.raises(InvalidEdgeError):
        CallableGain(lambda w: w, 0.0, math.inf)
