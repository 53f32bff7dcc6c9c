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
    TwoAssetGeometricPool,
    fisher_instance,
    lossless_edge,
)
from convexflows import solver
from convexflows.solver import (
    DualPoint,
    SolverConfig,
    duality_gap,
    eval_dual,
    solve,
    solve_dual,
    solve_zero_edge,
    transform,
    untransform,
)
from convexflows.validation import fd_gradient_check, maxflow_oracle


def random_dual_point(instance, rng, lo=0.1, hi=2.0):
    nu = rng.uniform(lo, hi, size=instance.n)
    etas = []
    for edge in instance.edges:
        base = edge.incidence.gather(nu)
        if edge.utility is None:
            etas.append(base)
        else:
            etas.append(base + rng.uniform(0.0, 1.0, size=edge.incidence.dim))
    return DualPoint(node_prices=nu, edge_prices=etas)


# -- transformation ----------------------------------------------------------


def test_transform_round_trip():
    rng = np.random.default_rng(1)
    instance = quadratic_penalty_on(cfmm_instance(m=6, seed=3))
    point = random_dual_point(instance, rng)
    stacked = transform(instance, point)
    back = untransform(instance, stacked)
    assert_allclose(back.node_prices, point.node_prices, atol=1e-14)
    for a, b in zip(back.edge_prices, point.edge_prices):
        assert_allclose(a, b, atol=1e-12)
    assert_allclose(transform(instance, back), stacked, atol=1e-12)


def test_transform_zero_prices_identity():
    instance = path_maxflow_instance()
    etas = [np.array([0.3, 0.7]), np.array([0.1, 0.4])]
    point = DualPoint(np.zeros(3), etas)
    stacked = transform(instance, point)
    assert_allclose(stacked[3:5], etas[0])
    assert_allclose(stacked[5:7], etas[1])


def test_transform_maps_feasible_set_to_orthant():
    rng = np.random.default_rng(5)
    instance = quadratic_penalty_on(cfmm_instance(m=5, seed=9))
    for _ in range(20):
        nu = rng.uniform(0.0, 2.0, instance.n)
        etas = [
            e.incidence.gather(nu) + rng.uniform(-0.5, 1.0, e.incidence.dim)
            for e in instance.edges
        ]
        point = DualPoint(nu, etas)
        stacked = transform(instance, point)
        feasible = all(
            np.all(eta >= e.incidence.gather(nu) - 1e-12)
            for e, eta in zip(instance.edges, etas)
        )
        assert feasible == bool(np.all(stacked[instance.n :] >= -1e-12))


# -- dual evaluation ---------------------------------------------------------


def test_eval_dual_hand_composed():
    edges = [Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0))]
    instance = ProblemInstance(n=2, edges=edges, net_objective=LinearNonnegObjective([1.0, 2.0]))
    nu = np.array([1.0, 2.0])
    ev = eval_dual(instance, DualPoint(nu, [nu.copy()]))
    assert ev.value == pytest.approx(1.0)  # capacity * positive price spread


def test_eval_dual_infinite_cases():
    edges = [Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0))]
    instance = ProblemInstance(n=2, edges=edges, net_objective=LinearNonnegObjective([1.0, 2.0]))
    ev = eval_dual(instance, DualPoint(np.array([-0.5, 2.0]), [np.array([-0.5, 2.0])]))
    assert ev.value == math.inf and ev.grad_nodes is None
    # A zero-utility edge pins its local prices to the gathered node prices.
    ev = eval_dual(instance, DualPoint(np.array([1.0, 2.0]), [np.array([1.5, 2.0])]))
    assert ev.value == math.inf


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


def test_zero_edge_and_full_dual_agree():
    for build in (
        lambda: path_maxflow_instance((2.0, 3.0, 1.0)),
        lambda: opf_instance(n=8, seed=5),
        lambda: cfmm_instance(m=10, seed=11),
    ):
        fast = solve_zero_edge(build())
        full = solve_dual(build())
        denom = 1.0 + abs(full.dual_value)
        assert abs(fast.dual_value - full.dual_value) <= 1e-7 * denom


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
    from convexflows import MinCostObjective, QuadraticPenalty

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
