"""The line-search screen and the face table it reads.

``DualProgram._faces`` finds every flat face at a point with one
vectorized comparison over the piecewise-linear two-node edges, at each
edge's own prices.  ``DualProgram.rises_at_probe`` applies the descent
bound over the exactly tied faces to the direction the driver searches,
and the driver ends a search whose first trial failed when it answers
True.
"""

import math

import numpy as np
import pytest

from conftest import cfmm_instance, maxflow_instance, opf_instance, quadratic_penalty_on
from convexflows import EdgeIncidence, Hyperedge, LinearNonnegObjective, ProblemInstance, qn, solver
from convexflows.qn import escape_probes, minimize_bound_lbfgs
from convexflows.solver import DualProgram, solve, solve_dual
from test_edges import sample_edges
from test_escape_screen import stall_points, unit_vertices


def expected_faces(program, x):
    """``{edge position: (P, Q)}`` from ``supported_face`` at the node
    prices of each edge without a penalty (a penalized edge has no face)."""
    nu = program.node_prices(x)
    found = {}
    for pos, edge in enumerate(program.instance.edges):
        if edge.utility is not None:
            continue
        face = edge.oracle.supported_face(edge.incidence.gather(nu), 1e-7)
        if face is not None:
            found[pos] = face
    return found


def assert_same_faces(program, x):
    got, want = program.supported_faces(x), expected_faces(program, x)
    assert sorted(got) == sorted(want)
    for pos, (p, q) in want.items():
        assert np.array_equal(got[pos][0], p) and np.array_equal(got[pos][1], q)
    return len(want)


def sample_edge_program():
    """Each of ``sample_edges()`` on its own pair of nodes, every price free."""
    edges = [Hyperedge(EdgeIncidence((2 * k, 2 * k + 1)), oracle) for k, oracle in enumerate(sample_edges())]
    n = 2 * len(edges)
    return DualProgram(ProblemInstance(n=n, edges=edges, net_objective=LinearNonnegObjective(np.zeros(n))))


def test_vectorized_faces_match_supported_face():
    program = sample_edge_program()
    slopes = [[1.0], [1.5], [1.1, 0.9, 0.6], [1.0], [1.0]]
    rng = np.random.default_rng(0)
    points, found = [], 0
    for _ in range(30):
        points.append(rng.uniform(0.0, 3.0, program.n_vars))
        # Tied: the input price is a segment slope times the output price,
        # exactly or just inside or outside the face tolerance.
        x = rng.uniform(0.1, 3.0, program.n_vars)
        for k, edge_slopes in enumerate(slopes):
            nudge = rng.choice([1.0, 1.0 + 5e-8, 1.0 - 5e-8, 1.0 + 3e-7])
            x[2 * k] = rng.choice(edge_slopes) * x[2 * k + 1] * nudge
        points.append(x)
        # Zero prices: both, the input only or the output only.
        x = rng.uniform(0.1, 3.0, program.n_vars)
        for k in range(len(slopes)):
            x[2 * k : 2 * k + 2] *= [(0, 0), (0, 1), (1, 0), (1, 1)][rng.integers(4)]
        points.append(x)
    for x in points:
        found += assert_same_faces(program, x)
    assert found > 50


def test_penalized_edges_have_no_faces(monkeypatch):
    # The table holds the utility-free edges only, and their faces are
    # found at their node prices next to penalized edges.
    found = 0
    rng = np.random.default_rng(1)
    for seed in range(6):
        instance = quadratic_penalty_on(maxflow_instance(10, 0.4, seed), every=2)
        program = DualProgram(instance)
        free = [pos for pos, edge in enumerate(instance.edges) if edge.utility is None]
        assert program._face_pos.tolist() == free
        for x in stall_points(instance, monkeypatch) + unit_vertices(instance, rng, 5):
            found += assert_same_faces(program, x)
    assert found > 0


def recorded_rejections(instance, monkeypatch):
    """``(x, d, bound, margin)`` of every search the screen ends while solving."""
    rejected = []
    original = DualProgram.rises_at_probe

    def recording(self, x, d):
        rises = original(self, x, d)
        if rises:
            bounds, margin = self._descent_bounds(x, [d], ties_only=True)
            rejected.append((np.array(x), np.array(d), bounds[0], margin))
        return rises

    monkeypatch.setattr(DualProgram, "rises_at_probe", recording)
    solve_dual(instance)
    monkeypatch.setattr(DualProgram, "rises_at_probe", original)
    return rejected


def test_every_rejection_is_sound(monkeypatch):
    checked = 0
    for seed in range(5):
        instance = maxflow_instance(20, 0.3, seed)
        program = DualProgram(instance)
        for x, d, bound, margin in recorded_rejections(instance, monkeypatch):
            f, _ = program.value_and_grad(x)
            probe = escape_probes(x, [d], program.lower)[0][0]
            f_probe, _ = program.value_and_grad(probe)
            assert bound > margin
            assert f_probe - f >= bound - 1e-12 * (1.0 + abs(f))
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("build", [lambda: opf_instance(12, 0), lambda: cfmm_instance(m=10)], ids=["opf", "cfmm"])
def test_strictly_convex_instances_never_screen(build, monkeypatch):
    screens, calls = [], []
    original = solver.minimize_bound_lbfgs

    def driver(*args, **kwargs):
        screens.append(kwargs.get("line_search_screen"))
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "minimize_bound_lbfgs", driver)
    monkeypatch.setattr(DualProgram, "rises_at_probe", lambda self, x, d: calls.append(1))
    result = solve(build())
    assert screens == [None] and calls == []
    assert math.isfinite(result.dual_value)


def test_screen_cuts_maxflow_evaluations():
    # 1411 evaluations without the screen.
    assert solve(maxflow_instance(20, 0.3, 0)).n_evals <= 1000


def test_driver_ends_a_screened_search_without_evaluating():
    # |x - 0.3| from 1: the quasi-Newton steps overshoot the kink, so
    # first trials fail; a True screen must end each such search at once.
    events = []

    def fun(x):
        events.append("eval")
        return abs(x[0] - 0.3), np.array([math.copysign(1.0, x[0] - 0.3)])

    def screen(x, d):
        events.append("screen")
        return True

    result = minimize_bound_lbfgs(
        fun, np.array([1.0]), np.array([0.0]), callback=lambda *a: events.append("iterate"), line_search_screen=screen
    )
    assert "screen" in events and result.status == "stalled"
    after = [events[k + 1] for k, e in enumerate(events[:-1]) if e == "screen"]
    assert "eval" not in after


def test_polished_point_is_not_evaluated_again(monkeypatch):
    # Polish can keep a candidate and then evaluate worse ones; the final
    # assembly must read the kept candidate's pass.  The start check does
    # that on all three seeds, and seeds 12 and 27 end on the point it
    # certifies; the final polish of seed 2 does it too, and its
    # certificate then ends the run on the kept point.
    statuses, late, kept = [], [], []
    original_driver = solver.minimize_bound_lbfgs
    original_pass = DualProgram._evaluate_pass
    original_polish = qn._polish

    def driver(*args, **kwargs):
        result = original_driver(*args, **kwargs)
        statuses.append(result.status)
        return result

    def counting(self, nu):
        late.append(len(statuses))
        return original_pass(self, nu)

    def polish(*args):
        out = original_polish(*args)
        kept.append((len(statuses), out[4]))
        return out

    monkeypatch.setattr(solver, "minimize_bound_lbfgs", driver)
    monkeypatch.setattr(DualProgram, "_evaluate_pass", counting)
    monkeypatch.setattr(qn, "_polish", polish)
    for seed in (2, 12, 27):
        late.clear()
        solve(maxflow_instance(20, 0.3, seed))
        assert late.count(len(statuses)) == 0, seed
    # Seed 2 polishes twice, at its start and at its end, and keeps a
    # point in the final polish.
    assert [flag for run, flag in kept if run == 0][1:] == [True]
    assert statuses[0] == "converged"
