import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    cfmm_instance,
    interior_dual_point,
    maxflow_arcs,
    opf_instance,
    path_maxflow_instance,
    quadratic_penalty_on,
    three_asset_pool_instance,
    two_pool_arbitrage_instance,
)
from convexflows import (
    EdgeIncidence,
    Hyperedge,
    MinCostObjective,
    ProblemInstance,
    allocations_from_flows,
    fisher_equilibrium_prices,
    fisher_instance,
    lossless_edge,
    solve,
)
from convexflows.solver import DualProgram, SolverConfig
from convexflows.validation import (
    brute_force_primal,
    fd_gradient_check,
    fisher_kkt_check,
    maxflow_oracle,
)


# -- augmenting path oracle --------------------------------------------------


def test_maxflow_oracle_path():
    assert maxflow_oracle(3, [(0, 1, 1.0), (1, 2, 2.0)]) == pytest.approx(1.0)


def test_maxflow_oracle_diamond():
    arcs = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
    assert maxflow_oracle(4, arcs) == pytest.approx(2.0)


def test_maxflow_oracle_single_edge():
    assert maxflow_oracle(2, [(0, 1, 7.0)]) == pytest.approx(7.0)


# -- finite difference harness ----------------------------------------------


def test_fd_check_passes_on_random_opf():
    rng = np.random.default_rng(0)
    instance = opf_instance(n=8, seed=3)
    report = fd_gradient_check(instance, interior_dual_point(instance, rng))
    assert report.passed and report.max_rel_error < 1e-5
    assert not report.skipped


def test_fd_check_skips_kinks():
    # At an exactly tied point the maximizer is not unique; the check
    # must skip rather than fail.
    instance = path_maxflow_instance((1.0, 2.0))
    from convexflows.solver import DualPoint

    nu = np.array([0.0, 1.0, 1.0])
    point = DualPoint(nu, [e.incidence.gather(nu) for e in instance.edges])
    report = fd_gradient_check(instance, point)
    assert report.skipped
    assert report.passed


def test_fd_check_differentiates_the_driver_gradient(monkeypatch):
    # The check must see the gradient the driver steps on: a 1% error in
    # value_and_grad's gradient (nodes and edge blocks) has to fail it.
    instance = quadratic_penalty_on(cfmm_instance(m=8, seed=4))
    point = interior_dual_point(instance, np.random.default_rng(8))
    report = fd_gradient_check(instance, point)
    assert report.passed and report.checked > 0

    exact = DualProgram.value_and_grad

    def scaled(self, x):
        value, grad = exact(self, x)
        return value, None if grad is None else 1.01 * grad

    monkeypatch.setattr(DualProgram, "value_and_grad", scaled)
    assert not fd_gradient_check(instance, point).passed


def test_fd_check_rejects_bad_step():
    instance = opf_instance(n=4, seed=0)
    with pytest.raises(ValueError):
        fd_gradient_check(instance, step=0.0)


# -- grid oracle --------------------------------------------------------------


def test_brute_force_matches_solver_on_two_pools():
    instance = two_pool_arbitrage_instance()
    result = solve(instance, config=SolverConfig(grad_tol=1e-11))
    ref = brute_force_primal(instance, resolution=400)
    assert result.primal_value >= ref - 1e-3
    assert abs(result.primal_value - ref) <= 1e-3 * (1.0 + abs(ref))


def test_brute_force_matches_solver_on_three_asset_pool():
    instance = three_asset_pool_instance()
    result = solve(instance, config=SolverConfig(grad_tol=1e-10))
    ref = brute_force_primal(instance, resolution=120)
    assert result.primal_value >= ref - 1e-3
    assert abs(result.primal_value - ref) <= 2e-3 * (1.0 + abs(ref))


def test_brute_force_exact_on_lossless_path():
    instance = path_maxflow_instance((1.0, 2.0))
    ref = brute_force_primal(instance, resolution=41)  # grid hits integers
    result = solve(instance)
    assert ref == pytest.approx(result.primal_value, abs=1e-9)


def test_brute_force_reports_infeasible_as_minus_inf():
    edges = [Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0))]
    instance = ProblemInstance(
        n=2, edges=edges, net_objective=MinCostObjective(2, target=5.0)
    )
    assert brute_force_primal(instance, resolution=30) == -math.inf


def test_brute_force_refuses_large_fixtures():
    instance = two_pool_arbitrage_instance()
    instance.edges = instance.edges * 2  # dimension 8 > 6
    with pytest.raises(ValueError):
        brute_force_primal(instance)


# -- market clearing ----------------------------------------------------------


def test_fisher_kkt_by_hand_single_buyer():
    report = fisher_kkt_check(
        allocations=np.array([[1.0]]),
        prices=np.array([1.0]),
        budgets=np.array([1.0]),
        valuations=np.array([[1.0]]),
        tol=1e-6,
    )
    assert report.passed


def test_fisher_symmetric_buyers_split_goods():
    budgets = np.array([1.0, 1.0])
    valuations = np.array([[1.0, 1.0], [1.0, 1.0]])
    instance, layout = fisher_instance(budgets, valuations)
    result = solve(instance, config=SolverConfig(grad_tol=1e-10))
    alloc = allocations_from_flows(layout, result.flows)
    assert_allclose(alloc.sum(axis=0), [1.0, 1.0], atol=1e-6)
    prices = fisher_equilibrium_prices(result.dual_point.node_prices, valuations, layout)
    report = fisher_kkt_check(alloc, prices, budgets, valuations, tol=1e-6)
    assert report.passed, report.violations


def test_fisher_kkt_flags_tampered_prices():
    report = fisher_kkt_check(
        allocations=np.array([[1.0]]),
        prices=np.array([2.0]),
        budgets=np.array([1.0]),
        valuations=np.array([[1.0]]),
        tol=1e-6,
    )
    assert not report.passed
    assert report.violations
