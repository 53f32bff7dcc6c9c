import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    interior_dual_point,
    cfmm_instance,
    maxflow_arcs,
    maxflow_instance,
    opf_instance,
    path_maxflow_instance,
    quadratic_penalty_on,
)
from convexflows import (
    EdgeIncidence,
    Hyperedge,
    LinearNonnegObjective,
    OpfQuadraticObjective,
    PrimalPoint,
    ProblemInstance,
    QuadraticPenalty,
    TwoAssetGeometricPool,
    fisher_instance,
    lossless_edge,
)
from convexflows import solver
from convexflows.solver import (
    DualPoint,
    DualProgram,
    SolverConfig,
    duality_gap,
    eval_dual,
    solve,
    solve_dual,
)
from convexflows.validation import fd_gradient_check, maxflow_oracle


# -- transformation ----------------------------------------------------------
#
# The reduced vector of DualProgram holds the free node prices, then one
# block eta_i - A_i^T nu per edge with a utility.


def test_transform_round_trip():
    rng = np.random.default_rng(1)
    for instance in (
        quadratic_penalty_on(cfmm_instance(m=6, seed=3)),
        quadratic_penalty_on(maxflow_instance(8, 0.4, 0), every=2),
    ):
        program = DualProgram(instance)
        point = interior_dual_point(instance, rng)
        x = program.initial_vector(point)
        back = program.to_point(x)
        assert_allclose(back.node_prices, point.node_prices, atol=1e-14)
        for a, b in zip(back.edge_prices, point.edge_prices):
            assert_allclose(a, b, atol=1e-12)
        assert_allclose(program.initial_vector(back), x, atol=1e-12)


def test_transform_zero_prices_identity():
    # Path 0 -> 1 -> 2 -> 3 with a penalty on the middle edge only: at
    # zero node prices its block is its edge prices, and the utility-free
    # edges own no block.
    edges = [
        Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0)),
        Hyperedge(EdgeIncidence((1, 2)), lossless_edge(2.0), QuadraticPenalty(2)),
        Hyperedge(EdgeIncidence((2, 3)), lossless_edge(3.0)),
    ]
    instance = ProblemInstance(n=4, edges=edges, net_objective=LinearNonnegObjective(np.zeros(4)))
    program = DualProgram(instance)
    etas = [np.zeros(2), np.array([0.3, 0.7]), np.zeros(2)]
    x = program.initial_vector(DualPoint(np.zeros(4), etas))
    assert_allclose(x, [0.0, 0.0, 0.0, 0.0, 0.3, 0.7])
    back = program.to_point(x)
    for a, b in zip(back.edge_prices, etas):
        assert_allclose(a, b)


def test_transform_maps_feasible_set_to_orthant():
    # A start outside the domain eta_i >= A_i^T nu has a negative block
    # and is clipped onto the orthant, so the round trip is exact exactly
    # when the start was feasible.
    rng = np.random.default_rng(5)
    instance = quadratic_penalty_on(cfmm_instance(m=5, seed=9))
    program = DualProgram(instance)
    lower = np.maximum(np.asarray(instance.net_objective.lower_bounds(), float), 0.0)
    seen = set()
    for k in range(20):
        nu = lower + rng.uniform(0.0, 2.0, instance.n)
        low = -0.5 if k % 2 else 0.0
        etas = [e.incidence.gather(nu) + rng.uniform(low, 1.0, e.incidence.dim) for e in instance.edges]
        x = program.initial_vector(DualPoint(nu, etas))
        blocks = np.concatenate([eta - e.incidence.gather(nu) for e, eta in zip(instance.edges, etas)])
        assert_allclose(x[instance.n :], np.maximum(blocks, 0.0), atol=1e-15)
        feasible = bool(np.all(blocks >= 0.0))
        back = program.to_point(x)
        kept = all(np.allclose(a, b, rtol=0.0, atol=1e-12) for a, b in zip(back.edge_prices, etas))
        assert kept == feasible
        seen.add(feasible)
    assert seen == {True, False}


# -- dual evaluation ---------------------------------------------------------


def test_eval_dual_hand_composed():
    edges = [Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0))]
    instance = ProblemInstance(n=2, edges=edges, net_objective=LinearNonnegObjective([1.0, 2.0]))
    nu = np.array([1.0, 2.0])
    value = eval_dual(instance, DualPoint(nu, [nu.copy()]))
    assert isinstance(value, float)
    assert value == pytest.approx(1.0)  # capacity * positive price spread


def test_eval_dual_infinite_cases():
    edges = [Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0))]
    instance = ProblemInstance(n=2, edges=edges, net_objective=LinearNonnegObjective([1.0, 2.0]))
    assert eval_dual(instance, DualPoint(np.array([-0.5, 2.0]), [np.array([-0.5, 2.0])])) == math.inf
    # A zero-utility edge pins its local prices to the gathered node prices.
    assert eval_dual(instance, DualPoint(np.array([1.0, 2.0]), [np.array([1.5, 2.0])])) == math.inf


def test_eval_dual_matches_solve_dual_at_its_point():
    instance = quadratic_penalty_on(cfmm_instance(m=8, seed=4), every=2)
    result = solve_dual(instance)
    assert eval_dual(instance, result.dual_point) == pytest.approx(result.dual_value, rel=1e-12)


def test_eval_dual_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    for build in (
        lambda: opf_instance(n=6, seed=2),
        lambda: cfmm_instance(m=8, seed=4),
        lambda: quadratic_penalty_on(cfmm_instance(m=8, seed=4)),
        lambda: quadratic_penalty_on(cfmm_instance(m=8, seed=4), every=2),
        lambda: fisher_instance([1.0, 2.0], [[2.0, 1.0], [1.0, 3.0]])[0],
    ):
        instance = build()
        report = fd_gradient_check(instance, interior_dual_point(instance, rng))
        assert report.passed, f"max rel err {report.max_rel_error}"
        assert report.checked > 0


# -- end-to-end solves -------------------------------------------------------


def test_maxflow_path_instance():
    instance = path_maxflow_instance((1.0, 2.0))
    result = solve(instance)
    assert result.dual_value == pytest.approx(1.0, abs=1e-8)
    assert result.primal_value == pytest.approx(1.0, abs=1e-8)
    assert abs(result.net_flow[1]) <= 1e-9  # interior conservation
    assert result.duality_gap <= 1e-7


def test_maxflow_random_instances_match_oracle():
    for seed in range(5):
        instance = maxflow_instance(n=7, density=0.3, seed=seed)
        value = maxflow_oracle(instance.n, maxflow_arcs(instance))
        result = solve(instance)
        assert round(result.dual_value) == value
        assert round(result.primal_value) == value
        assert result.relative_gap <= 1e-7


def test_opf_zero_demand_is_idle():
    doc_instance = opf_instance(n=8, seed=1)
    idle = ProblemInstance(
        n=doc_instance.n,
        edges=doc_instance.edges,
        net_objective=OpfQuadraticObjective(np.zeros(doc_instance.n)),
    )
    result = solve(idle)
    assert result.dual_value == pytest.approx(0.0, abs=1e-9)
    assert_allclose(result.dual_point.node_prices, np.zeros(idle.n), atol=1e-8)
    assert max(np.max(np.abs(x)) for x in result.flows) <= 1e-8


def test_opf_small_instance_converges():
    instance = opf_instance(n=10, seed=0)
    result = solve(instance)
    assert result.converged
    assert result.trace.rows[-1].primal_residual <= 1e-6
    assert result.duality_gap <= 1e-6 * (1.0 + abs(result.dual_value))
    best = result.trace.best_values()
    assert np.all(np.diff(best) <= 1e-12)


def test_cfmm_single_pool_stationary_at_pool_price():
    pool = TwoAssetGeometricPool([100.0, 50.0], 0.5, 1.0)
    price = pool.marginal_price()
    edges = [Hyperedge(EdgeIncidence((0, 1)), pool)]
    instance = ProblemInstance(
        n=2, edges=edges, net_objective=LinearNonnegObjective([price, 1.0])
    )
    result = solve(instance)
    assert result.dual_value == pytest.approx(0.0, abs=1e-10)
    assert max(np.max(np.abs(x)) for x in result.flows) <= 1e-8


def test_partial_edge_utilities_solve_certified():
    # Penalties on edges 0, 2, 4, 6 leave two utility-free two-node pools
    # and two utility-free multi-asset pools: every evaluator plan is used.
    instance = quadratic_penalty_on(cfmm_instance(m=8, seed=4), every=2)
    result = solve(instance)
    assert math.isfinite(result.primal_value)
    assert abs(result.relative_gap) <= 1e-6


def test_cfmm_instance_solves_with_nonnegative_net_flow():
    # The pg tolerance is relative to |g|, which is large for arbitrage
    # objectives; tighten it so the reconstructed flow meets 1e-7.
    instance = cfmm_instance(m=12, seed=7)
    result = solve(instance, config=SolverConfig(grad_tol=1e-11))
    assert float(np.min(result.net_flow)) >= -1e-7
    assert result.relative_gap <= 1e-6
    assert result.duality_gap >= -1e-7 * (1.0 + abs(result.dual_value))


def test_weak_duality_along_trace():
    instance = cfmm_instance(m=8, seed=2)
    result = solve(instance, config=SolverConfig(grad_tol=1e-11))
    primal = result.primal_value
    for row in result.trace.rows:
        if math.isfinite(row.gap):
            assert row.value >= primal - 1e-8 * (1.0 + abs(primal))


def test_duality_gap_markers():
    instance = path_maxflow_instance((1.0, 2.0))
    result = solve(instance)
    point = PrimalPoint(result.flows, result.net_flow)
    gap = duality_gap(instance, result.dual_value, point)
    assert 0 <= gap + 1e-9 and gap <= 1e-7
    # A worse dual point only increases the gap.
    nu = result.dual_point.node_prices + np.array([0.0, 0.4, 0.0])
    worse = DualPoint(nu, [e.incidence.gather(nu) for e in instance.edges])
    assert duality_gap(instance, worse, point) > gap + 0.1
    # Infeasible primal is flagged with an infinite gap.
    bad = PrimalPoint([x + 1.0 for x in result.flows], result.net_flow)
    assert duality_gap(instance, result.dual_value, bad) == math.inf


def test_mincost_routes_target_at_least_cost():
    from convexflows import MinCostObjective

    edges = [
        Hyperedge(EdgeIncidence((0, 1)), lossless_edge(2.0), QuadraticPenalty(2)),
        Hyperedge(EdgeIncidence((1, 2)), lossless_edge(2.0), QuadraticPenalty(2)),
    ]
    instance = ProblemInstance(n=3, edges=edges, net_objective=MinCostObjective(3, target=1.5))
    result = solve(instance)
    # Tendering costs are quadratic, so exactly the target is routed.
    assert result.net_flow[2] == pytest.approx(1.5, abs=1e-6)
    assert result.primal_value == pytest.approx(-2.25, abs=1e-6)
    assert abs(result.duality_gap) <= 1e-6


@pytest.mark.parametrize("name", ["grad_tol", "max_iter", "feas_tol"])
@pytest.mark.parametrize("value", [0, -1.0, math.nan])
def test_solver_config_rejects_nonpositive_fields(name, value):
    # Unchecked, a negative feas_tol would score every primal point -inf,
    # and a bad grad_tol would surface only after the dual is built.
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: value})


def test_solver_determinism():
    for build in (
        lambda: cfmm_instance(m=10, seed=3),
        lambda: quadratic_penalty_on(cfmm_instance(m=6, seed=5)),
    ):
        res_a = solve(build())
        res_b = solve(build())
        assert [r.value for r in res_a.trace.rows] == [r.value for r in res_b.trace.rows]


def test_trace_csv_export(tmp_path):
    instance = path_maxflow_instance((1.0, 2.0))
    result = solve(instance)
    out = tmp_path / "trace.csv"
    result.trace.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,g,pg_norm,primal_residual,gap,time_s,nonsmooth"
    assert len(lines) == len(result.trace.rows) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0 and len(first) == 7


@pytest.mark.parametrize(
    "instance, polished",
    [(opf_instance(12, 0), False), (maxflow_instance(8, 0.35, 0), True)],
    ids=["strictly_convex_opf", "maxflow"],
)
def test_polish_runs_only_with_flat_faces(instance, polished, monkeypatch):
    calls = []
    original = solver._threshold_candidates

    def counting(x):
        calls.append(1)
        return original(x)

    monkeypatch.setattr(solver, "_threshold_candidates", counting)
    result = solve(instance)
    assert bool(calls) == polished
    assert result.converged or result.status == "polished"
