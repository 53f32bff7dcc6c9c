"""The first-order screen on tie-graph escape directions.

``DualProgram._descent_bounds`` bounds ``f(x + s) - f(x)`` from below at
each direction's escape probe ``s`` from the pass at ``x`` alone, and
``escape_directions`` drops the directions whose bound shows no descent.
"""

import math

import numpy as np
import pytest

from conftest import maxflow_arcs, maxflow_instance, piecewise_dag_instance, quadratic_penalty_on
from convexflows import qn
from convexflows.qn import escape_probes
from convexflows.solver import DualProgram, solve, solve_dual
from convexflows.validation import maxflow_oracle

def stall_points(instance, monkeypatch):
    """Iterates at which the driver attempts an escape while solving."""
    points = []
    original = qn._escape_move

    def recording(fun, x, f, lower, directions):
        points.append(np.array(x))
        return original(fun, x, f, lower, directions)

    monkeypatch.setattr(qn, "_escape_move", recording)
    solve_dual(instance)
    monkeypatch.setattr(qn, "_escape_move", original)
    return points


def bound_gaps(instance, points, rng=None):
    """``f(x + s) - f(x) - LB(d)`` over every tie-graph move at every point,
    relative to ``1 + |f(x)|``; with ``rng``, random directions are added."""
    program = DualProgram(instance)
    gaps = []
    for x in points:
        f, _ = program.value_and_grad(x)
        assert math.isfinite(f)
        candidates = program._tie_graph(x)
        if rng is not None:
            candidates += list(rng.normal(size=(4, program.n_vars)))
        if not candidates:
            continue
        bounds = program._descent_bounds(x, candidates)[0]
        probes, _, _ = escape_probes(x, candidates, program.lower)
        for bound, probe in zip(bounds, probes):
            f_probe, _ = program.value_and_grad(probe)
            gaps.append((f_probe - f - bound) / (1.0 + abs(f)))
    return np.array(gaps)


def unit_vertices(instance, rng, count):
    n_vars = DualProgram(instance).n_vars
    return [rng.integers(0, 2, n_vars).astype(float) for _ in range(count)]


# Most generated instances certify their start and never stall; these
# three do stall.
@pytest.mark.parametrize("seed", [2, 16, 33])
def test_bound_is_sound_on_maxflow(seed, monkeypatch):
    instance = maxflow_instance(20, 0.3, seed)
    stalls = stall_points(instance, monkeypatch)
    assert stalls
    points = stalls + unit_vertices(instance, np.random.default_rng(seed), 15)
    gaps = bound_gaps(instance, points)
    assert len(gaps) > 100
    assert np.all(gaps >= -1e-12)


def test_bound_is_sound_on_piecewise_linear(monkeypatch):
    rng = np.random.default_rng(7)
    stalls, gaps = 0, []
    for seed in range(3):
        instance = piecewise_dag_instance(seed)
        points = stall_points(instance, monkeypatch)
        stalls += len(points)
        points += unit_vertices(instance, rng, 15)
        # Near ties: prices on {0, 1, 2}, some nudged just past the face
        # tolerance, so a probe step can carry an edge across a kink.
        n_vars = DualProgram(instance).n_vars
        for _ in range(15):
            x = rng.integers(0, 3, n_vars).astype(float)
            points.append(x + rng.choice([0.0, 0.0, 2.5e-7, 4e-7], size=n_vars) * (x > 0))
        gaps.append(bound_gaps(instance, points))
    gaps = np.concatenate(gaps)
    assert stalls > 0 and len(gaps) > 100
    assert np.all(gaps >= -1e-12)
    # {z, P, Q} misses the maximizer somewhere: the bound is not exact.
    assert np.max(gaps) > 1e-9


def test_bound_is_sound_next_to_penalized_edges(monkeypatch):
    # A penalized edge is smooth in its node prices and has no face: the
    # bound covers it through the gradient term, next to the faces of the
    # utility-free edges.
    rng = np.random.default_rng(3)
    gaps = []
    for seed in range(3):
        instance = quadratic_penalty_on(maxflow_instance(10, 0.4, seed), every=2)
        program = DualProgram(instance)
        points = stall_points(instance, monkeypatch) + unit_vertices(instance, rng, 15)
        faces = 0
        for x in points:
            program.value_and_grad(x)
            positions = program._face_pos[program._faces(x).rows]
            assert all(instance.edges[pos].utility is None for pos in positions)
            faces += len(positions)
        assert faces > 0
        # Random directions move the penalized edges' prices too.
        gaps.append(bound_gaps(instance, points, rng))
    gaps = np.concatenate(gaps)
    assert len(gaps) > 100
    assert np.all(gaps >= -1e-12)


def test_screen_keeps_descending_candidates_in_order():
    instance = maxflow_instance(20, 0.3, 1)
    program = DualProgram(instance)
    rng = np.random.default_rng(5)
    dropped = 0
    for x in unit_vertices(instance, rng, 10):
        program.value_and_grad(x)
        candidates = program._tie_graph(x)
        bounds = program._descent_bounds(x, candidates)[0]
        _, _, margin = escape_probes(x, candidates, program.lower)
        expected = [d for d, b in zip(candidates, bounds) if b < -margin]
        kept = program.escape_directions(x)
        assert len(kept) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(kept, expected))
        dropped += len(candidates) - len(kept)
    assert dropped > 0


def test_screen_reads_the_iterate_pass(monkeypatch):
    # An escape after a failed line search: the trial points evaluated
    # since the callback must not force a fresh pass at the iterate.
    instance = maxflow_instance(20, 0.3, 0)
    program = DualProgram(instance)
    x = np.random.default_rng(2).integers(0, 2, program.n_vars).astype(float)
    program.trace_info(x)
    for scale in (0.5, 0.25, 0.125):
        program.value_and_grad(np.maximum(x * scale, program.lower))
    passes = []
    original = DualProgram._evaluate_pass

    def counting(self, nu):
        passes.append(1)
        return original(self, nu)

    monkeypatch.setattr(DualProgram, "_evaluate_pass", counting)
    assert program._tie_graph(x)
    program.escape_directions(x)
    assert passes == []


def test_escape_move_evaluations_on_maxflow(monkeypatch):
    # Unscreened, the escapes of this solve spend 493 evaluations.
    evals = []
    original = qn._escape_move

    def counting(fun, *args):
        def counted(x):
            evals.append(1)
            return fun(x)

        return original(counted, *args)

    monkeypatch.setattr(qn, "_escape_move", counting)
    instance = maxflow_instance(20, 0.3, 2)
    result = solve(instance)
    assert 0 < len(evals) <= 150
    truth = maxflow_oracle(instance.n, maxflow_arcs(instance))
    assert result.primal_value == pytest.approx(truth, rel=1e-9)
