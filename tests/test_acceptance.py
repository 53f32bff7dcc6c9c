"""Acceptance suite: one check per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import interior_dual_point, lp_optimum, maxflow_arcs, mincost_instance, quadratic_penalty_on
from convexflows import (
    EdgeIncidence,
    Hyperedge,
    OpfQuadraticObjective,
    ProblemInstance,
    allocations_from_flows,
    fisher_equilibrium_prices,
    fisher_instance,
    lossless_edge,
    opf_arbitrage,
    solve,
    solve_dual,
)
from convexflows.edges import opf_line_edge, opf_loss, solve_scalar_arbitrage
from convexflows.io_cli import gen_cfmm, gen_maxflow, gen_opf, instance_from_dict
from convexflows.solver import SolverConfig
from convexflows.validation import (
    brute_force_primal,
    fd_gradient_check,
    fisher_kkt_check,
    maxflow_oracle,
)


def _verdict(number: int, ok: bool, message: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, message


def test_criterion_01_maxflow_mincut_equivalence():
    rng = np.random.default_rng(2024)
    failures = []
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(4, 21))
        density = float(rng.uniform(0.15, 0.5))
        seed = int(rng.integers(0, 100_000))
        instance = instance_from_dict(gen_maxflow(n, density, seed))
        reference = maxflow_oracle(instance.n, maxflow_arcs(instance))
        result = solve(instance)
        ok = (
            math.isfinite(result.primal_value)
            and round(result.primal_value) == reference
            and round(result.dual_value) == reference
            and result.relative_gap <= 1e-7
        )
        if not ok:
            failures.append((n, seed, reference, result.dual_value, result.primal_value))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        not failures,
        f"max-flow/min-cut on 50 random graphs, {elapsed:.1f}s"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_02_line_loss_anchors():
    frac1 = float(opf_loss(16.0, 0.25, 1.0)) / 1.0
    frac3 = float(opf_loss(16.0, 0.25, 3.0)) / 3.0
    ok = 0.10 <= frac1 <= 0.14 and 0.33 <= frac3 <= 0.40
    _verdict(2, ok, f"loss fractions l(1)={frac1:.4f}, l(3)/3={frac3:.4f}")


def test_criterion_03_opf_solves():
    config = SolverConfig(grad_tol=1e-9, max_iter=1000)
    worst_resid = 0.0
    worst_time = 0.0
    ok = True
    for seed in (0, 1, 2):
        instance = instance_from_dict(gen_opf(100, seed))
        start = time.perf_counter()
        result = solve(instance, config=config)
        worst_time = max(worst_time, time.perf_counter() - start)
        last = result.trace.rows[-1]
        rel_pg = last.pg_norm / max(1.0, abs(last.value))
        best = result.trace.best_values()
        worst_resid = max(worst_resid, last.primal_residual)
        ok = ok and result.converged and result.iterations <= 1000
        ok = ok and rel_pg <= 1e-7 and last.primal_residual <= 1e-6
        ok = ok and bool(np.all(np.diff(best) <= 1e-12))
    _verdict(3, ok, f"opf n=100 solves, worst residual {worst_resid:.2e}, {worst_time:.2f}s/instance")


def test_criterion_04_closed_form_vs_bisection():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        cap = float(rng.uniform(0.3, 10.0))
        prices = rng.uniform(0.0, 3.0, size=2)
        if rng.random() < 0.05:
            prices[int(rng.integers(2))] = 0.0
        w_closed, _ = opf_arbitrage(16.0, 0.25, cap, prices)
        res = solve_scalar_arbitrage(opf_line_edge(16.0, 0.25, cap), prices)
        worst = max(worst, abs(w_closed - res.input_amount))
    elapsed = time.perf_counter() - start
    _verdict(4, worst <= 1e-8, f"closed form vs bisection, max |dw| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_cfmm_solves():
    config = SolverConfig(grad_tol=1e-11)
    ok = True
    details = []
    for penalties in (False, True):
        for seed in (0, 1):
            instance = instance_from_dict(gen_cfmm(100, seed, edge_penalties=penalties))
            assert instance.n == 20
            start = time.perf_counter()
            result = solve(instance, config=config)
            elapsed = time.perf_counter() - start
            y_min = float(np.min(result.net_flow))
            ok = ok and y_min >= -1e-7 and result.relative_gap <= 1e-6
            details.append(f"{'pen' if penalties else 'plain'}/{seed}: y_min={y_min:.1e} "
                           f"gap={result.relative_gap:.1e} {elapsed:.2f}s")
    _verdict(5, ok, "cfmm m=100 with/without penalties; " + "; ".join(details))


def test_criterion_06_brute_force_equivalence():
    from conftest import three_asset_pool_instance, two_pool_arbitrage_instance

    start = time.perf_counter()
    ok = True
    details = []
    for name, instance, resolution in (
        ("two-pools", two_pool_arbitrage_instance(), 400),
        ("three-asset", three_asset_pool_instance(), 120),
    ):
        result = solve(instance, config=SolverConfig(grad_tol=1e-11))
        reference = brute_force_primal(instance, resolution=resolution)
        ok = ok and result.primal_value >= reference - 1e-3
        ok = ok and abs(result.duality_gap) <= 1e-6 * (1.0 + abs(result.dual_value))
        details.append(f"{name}: solver={result.primal_value:.6f} grid={reference:.6f}")
    elapsed = time.perf_counter() - start
    _verdict(6, ok, f"grid-oracle equivalence ({elapsed:.1f}s); " + "; ".join(details))


def test_criterion_07_gradient_suite():
    rng = np.random.default_rng(99)
    fixtures = [
        instance_from_dict(gen_opf(12, 0)),
        instance_from_dict(gen_cfmm(15, 1)),
        quadratic_penalty_on(instance_from_dict(gen_cfmm(15, 2))),
        fisher_instance([1.0, 2.0, 1.5], rng.uniform(0.5, 2.0, size=(3, 3)))[0],
    ]
    checked = 0
    worst = 0.0
    start = time.perf_counter()
    while checked < 100:
        for instance in fixtures:
            report = fd_gradient_check(instance, interior_dual_point(instance, rng))
            if report.checked:
                checked += 1
                worst = max(worst, report.max_rel_error)
    elapsed = time.perf_counter() - start
    _verdict(7, worst <= 1e-5, f"{checked} smooth points, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_recovery_with_ties():
    edges = [
        Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0)),
        Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0)),
    ]
    instance = ProblemInstance(
        n=2, edges=edges, net_objective=OpfQuadraticObjective([0.0, 3.0])
    )
    result = solve(instance)
    members = all(
        edge.oracle.is_member(flow, 1e-8) for edge, flow in zip(instance.edges, result.flows)
    )
    ok = result.recovery_residual <= 1e-8 and members
    _verdict(
        8, ok, f"tied parallel edges recover, residual {result.recovery_residual:.2e}"
    )


def test_criterion_09_dual_matches_lp_optimum():
    fixtures = [instance_from_dict(gen_maxflow(10, 0.3, 3))] + [mincost_instance(seed) for seed in range(3)]
    worst = 0.0
    start = time.perf_counter()
    for instance in fixtures:
        reference = lp_optimum(instance)
        result = solve_dual(instance)
        worst = max(worst, abs(result.dual_value - reference) / (1.0 + abs(reference)))
    elapsed = time.perf_counter() - start
    _verdict(9, worst <= 1e-7, f"dual value vs HiGHS LP optimum, worst rel diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_10_fisher_clearing():
    rng = np.random.default_rng(11)
    cases = [
        (np.array([1.0]), np.array([[1.0]])),
        (np.array([1.0, 1.0]), np.array([[1.0, 1.0], [1.0, 1.0]])),
        (np.array([1.0, 2.0, 1.5]), rng.uniform(0.5, 2.5, size=(3, 4))),
        (np.array([2.0, 1.0, 1.0, 3.0]), rng.uniform(0.5, 2.5, size=(4, 3))),
    ]
    ok = True
    details = []
    for budgets, valuations in cases:
        instance, layout = fisher_instance(budgets, valuations)
        result = solve(instance, config=SolverConfig(grad_tol=1e-10))
        alloc = allocations_from_flows(layout, result.flows)
        prices = fisher_equilibrium_prices(result.dual_point.node_prices, valuations, layout)
        report = fisher_kkt_check(alloc, prices, budgets, valuations, tol=1e-6)
        ok = ok and report.passed
        details.append(
            f"{len(budgets)}x{valuations.shape[1]}: "
            + ("ok" if report.passed else "; ".join(report.violations[:2]))
        )
    _verdict(10, ok, "market clearing certificates; " + "; ".join(details))


def test_criterion_11_scaling_sanity():
    sizes = [100, 400, 1600]
    medians = []
    start = time.perf_counter()
    for m in sizes:
        times = []
        for trial in range(3):
            instance = instance_from_dict(gen_cfmm(m, 100 + trial))
            t0 = time.perf_counter()
            solve(instance, config=SolverConfig(grad_tol=1e-9))
            times.append(time.perf_counter() - t0)
        medians.append(float(np.median(times)))
    elapsed = time.perf_counter() - start
    # Subquadratic growth: fitted log-log slope below 2.
    slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
    ok = slope < 2.0 and elapsed < 120.0
    _verdict(
        11,
        ok,
        f"cfmm medians {['%.3fs' % t for t in medians]} over m={sizes}, "
        f"log-log slope {slope:.2f}, total {elapsed:.0f}s",
    )
