"""The Newton-CG dual step: the power lines' exact Jacobians, the dual's
Hessian product built from them, and the instances that take it."""

import copy
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexflows import SolverConfig, solve
from convexflows.edges.two_node import PowerLossGain
from convexflows.io_cli import gen_cfmm, gen_maxflow, gen_opf, parse_instance
from convexflows.qn import minimize_bound_lbfgs
from convexflows.solver import DualProgram


def _rows(rng, m):
    """Random line parameters (``alpha * beta = 4``) as kernel columns."""
    beta = rng.uniform(0.1, 1.0, m)
    return 4.0 / beta, beta, rng.uniform(1.0, 3.0, m)


def _interior_prices(rng, beta, capacity):
    """Prices whose optimal input lies well inside ``(0, capacity)``:
    ``p_in = p_out h'(w)`` with ``h'(w) = 3 - 4 sigmoid(beta w)``, at a
    ``w`` between a tenth and nine tenths of the way to the capacity or
    to ``log(3) / beta``, where the marginal gain reaches 0."""
    w = rng.uniform(0.1, 0.9, len(beta)) * np.minimum(capacity, np.log(3.0) / beta)
    p_out = rng.uniform(0.5, 2.0, len(beta))
    slope = 3.0 - 4.0 / (1.0 + np.exp(-beta * w))
    return np.stack([p_out * slope, p_out], axis=1)


def test_line_jacobian_matches_central_differences():
    rng = np.random.default_rng(3)
    alpha, beta, capacity = _rows(rng, 200)
    prices = _interior_prices(rng, beta, capacity)
    jac = PowerLossGain.jacobian_rows(alpha, beta, capacity, prices)
    assert jac.shape == (200, 2, 2)
    step = 1e-6
    for j in range(2):
        shift = np.zeros(2)
        shift[j] = step
        up = PowerLossGain.evaluate_rows(alpha, beta, capacity, prices + shift)[1]
        down = PowerLossGain.evaluate_rows(alpha, beta, capacity, prices - shift)[1]
        assert_allclose(jac[:, :, j], (up - down) / (2.0 * step), rtol=1e-6, atol=1e-7)


def test_line_jacobian_is_zero_where_the_input_is_clipped():
    # The bench's lines: the input would pass the capacity at p_in = 0.
    alpha, beta, capacity = np.full(5, 16.0), np.full(5, 0.25), np.full(5, 2.0)
    prices = np.array(
        [
            [2.0, 1.0],  # input dearer than output: w = 0
            [1e-9, 1.0],  # nearly free input: w = capacity
            [1.0, 0.0],  # p_out = 0
            [0.0, 0.0],  # both prices zero
            [3.0, 1.0],  # num = 0
        ]
    )
    w = -PowerLossGain.evaluate_rows(alpha, beta, capacity, prices)[1][:, 0]
    assert_allclose(w, [0.0, capacity[1], 0.0, 0.0, 0.0])
    assert not np.any(PowerLossGain.jacobian_rows(alpha, beta, capacity, prices))


def test_line_jacobian_blocks_are_symmetric_psd():
    rng = np.random.default_rng(5)
    alpha, beta, capacity = _rows(rng, 500)
    prices = np.concatenate([_interior_prices(rng, beta[:250], capacity[:250]), rng.uniform(0.0, 2.0, (250, 2))])
    jac = PowerLossGain.jacobian_rows(alpha, beta, capacity, prices)
    assert_allclose(jac, jac.transpose(0, 2, 1), rtol=1e-12, atol=0.0)
    eigenvalues = np.linalg.eigvalsh(0.5 * (jac + jac.transpose(0, 2, 1)))
    assert np.all(eigenvalues >= -1e-12 * np.abs(eigenvalues).max(axis=1, keepdims=True))
    assert np.all(np.diagonal(jac, axis1=1, axis2=2) >= 0.0)


def test_hessian_product_matches_differences_of_the_gradient():
    program = DualProgram(parse_instance(json.dumps(gen_opf(30, 0))))
    assert program.has_hessian
    rng = np.random.default_rng(6)
    x = program.initial_vector(None) * rng.uniform(0.5, 1.5, program.n_vars)
    product = program.hessian_at(x)
    step = 1e-6
    for _ in range(3):
        v = rng.normal(size=program.n_vars)
        up = program.value_and_grad(x + step * v)[1]
        down = program.value_and_grad(x - step * v)[1]
        assert_allclose(product(v), (up - down) / (2.0 * step), rtol=1e-6, atol=1e-6)


def _opf_with(change):
    doc = copy.deepcopy(gen_opf(30, 0))
    change(doc["edges"][4])
    return doc


@pytest.mark.parametrize(
    "doc, expected",
    [
        (gen_opf(30, 0), True),
        (gen_cfmm(30, 0), False),
        (gen_cfmm(20, 0, edge_penalties=True), False),
        (gen_maxflow(12, 0.3, 0), False),
        (_opf_with(lambda edge: edge.update(edge_utility={"kind": "quadratic_penalty", "params": {}})), False),
        (_opf_with(lambda edge: edge.update(kind="lossless", params={"capacity": 1.0})), False),
    ],
    ids=["opf", "cfmm", "cfmm_pen", "maxflow", "opf_edge_utility", "opf_lossless"],
)
def test_only_smooth_line_networks_get_a_hessian_product(doc, expected):
    assert DualProgram(parse_instance(json.dumps(doc))).has_hessian is expected


@pytest.mark.parametrize("seed", [0, 1])
def test_newton_solves_opf_in_few_iterations(seed):
    result = solve(parse_instance(json.dumps(gen_opf(250, seed))))
    assert result.status == "converged"
    assert result.iterations <= 20


def test_newton_driver_counts_passes_not_products():
    # A bounded convex quadratic: the Newton-CG step lands on the free
    # coordinates' minimizer, and only calls of the objective are passes.
    rng = np.random.default_rng(7)
    root = rng.normal(size=(6, 6))
    hess = root @ root.T + np.eye(6)
    lin = rng.normal(size=6)
    calls = []

    def fun(x):
        calls.append(x)
        return 0.5 * float(x @ hess @ x) + float(lin @ x), hess @ x + lin

    lower = np.full(6, -0.2)
    newton = minimize_bound_lbfgs(fun, np.zeros(6), lower, hessian=lambda x: lambda v: hess @ v)
    assert newton.converged and newton.hessian_products > 0
    assert newton.n_evals == len(calls)
    plain = minimize_bound_lbfgs(fun, np.zeros(6), lower)
    assert plain.hessian_products == 0
    assert newton.iterations < plain.iterations
    assert_allclose(newton.x, plain.x, atol=1e-7)


def test_newton_keeps_the_two_loop_answer_on_opf():
    instance = parse_instance(json.dumps(gen_opf(60, 2)))
    program = DualProgram(instance)
    plain = minimize_bound_lbfgs(program.value_and_grad, program.initial_vector(None), program.lower)
    newton = solve(instance)
    assert newton.status == "converged"
    assert abs(newton.dual_value - plain.value) <= 1e-9 * (1.0 + abs(plain.value))
    assert abs(newton.primal_value - newton.dual_value) <= SolverConfig().feas_tol * (1.0 + abs(newton.dual_value))
