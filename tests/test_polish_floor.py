"""The polish floor: polish skips the proposals it cannot keep.

``DualProgram.polish_floor`` bounds the dual value at polish proposals
from below, from the cached pass at the best point so far, and the
driver's ``_polish`` skips a proposal whose bound ``polish_keeps`` would
reject.  What polish keeps, and so every solve, stays as without it;
only the evaluation count falls.
"""

import math

import numpy as np
import pytest

from conftest import cfmm_instance, maxflow_instance, opf_instance, piecewise_dag_instance
from convexflows import qn, solver
from convexflows.io_cli import fisher_instance
from convexflows.qn import polish_keeps
from convexflows.solver import DualProgram, SolverConfig, solve


def fisher_market(seed, buyers, goods):
    rng = np.random.default_rng(seed)
    return fisher_instance(rng.uniform(1.0, 3.0, buyers), rng.uniform(0.5, 2.5, (buyers, goods)))[0]


def flat_instances():
    yield maxflow_instance(20, 0.3, 0)
    yield maxflow_instance(20, 0.3, 2)
    yield maxflow_instance(12, 0.3, 5)
    for seed in range(3):
        yield piecewise_dag_instance(seed)
    yield fisher_market(0, 3, 3)
    yield fisher_market(1, 4, 3)


def iterates(instance, every=7):
    """The start and every ``every``-th iterate of a solve, as copies."""
    points = []
    original = solver.minimize_bound_lbfgs

    def recording(fun, *args, callback, **kwargs):
        def record(k, x, *rest):
            if k % every == 0:
                points.append(np.array(x, copy=True))
            return callback(k, x, *rest)

        return original(fun, *args, callback=record, **kwargs)

    solver.minimize_bound_lbfgs = recording
    try:
        solve(instance)
    finally:
        solver.minimize_bound_lbfgs = original
    return points


def proposals(program, x):
    """Every proposal of both polish generators at ``x``, clipped."""
    points = [np.round(x), *solver._threshold_candidates(x)]
    return np.maximum(np.array(points), program.lower)


def test_floor_is_sound_and_every_dropped_proposal_is_rejected():
    dropped = kept = 0
    for instance in flat_instances():
        program = DualProgram(instance)
        assert program.has_flat_faces
        for x in iterates(instance):
            f, _ = program.value_and_grad(x)
            points = proposals(program, x)
            floors = program.polish_floor(x, points)
            for point, floor in zip(points, floors):
                value, _ = program.value_and_grad(point)
                # Polish evaluates every proposal anyway here.
                assert not value < floor, (value, floor)
                if floor > -math.inf and not polish_keeps(floor, f):
                    assert not polish_keeps(value, f)
                    dropped += 1
                elif polish_keeps(value, f):
                    kept += 1
    # The floor rules many proposals out, and never one polish would keep.
    assert dropped > 100 and kept > 0, (dropped, kept)


def test_floor_reads_only_a_cached_pass(monkeypatch):
    instance = maxflow_instance(12, 0.3, 5)
    program = DualProgram(instance)
    x = program.initial_vector(None)
    far = np.full(program.n_vars, 0.5)
    program.value_and_grad(x)
    passes = []
    original = DualProgram._evaluate_pass

    def counting(self, nu):
        passes.append(1)
        return original(self, nu)

    monkeypatch.setattr(DualProgram, "_evaluate_pass", counting)
    points = proposals(program, far)
    assert np.all(np.isfinite(program.polish_floor(x, points)))
    assert np.all(program.polish_floor(far, points) == -math.inf)
    assert passes == []


def fields(result):
    return (
        result.status,
        result.iterations,
        result.dual_value,
        result.primal_value,
        result.recovery_residual,
        result.relative_gap,
        np.asarray(result.flows.data).tobytes(),
        result.net_flow.tobytes(),
        result.dual_point.node_prices.tobytes(),
        np.asarray(result.dual_point.edge_prices.data).tobytes(),
    )


@pytest.mark.parametrize(
    "instance",
    [
        maxflow_instance(20, 0.3, 0),
        maxflow_instance(20, 0.3, 16),
        maxflow_instance(40, 0.3, 0),
        piecewise_dag_instance(1),
        fisher_market(2, 4, 4),
    ],
    ids=["maxflow-20-0", "maxflow-20-16", "maxflow-40-0", "dag-1", "fisher-4x4"],
)
def test_screened_solve_equals_the_unscreened_one(instance, monkeypatch):
    config = SolverConfig(grad_tol=1e-10)
    screened = solve(instance, config=config)
    monkeypatch.setattr(DualProgram, "polish_floor", lambda self, x, points: np.full(len(points), -math.inf))
    plain = solve(instance, config=config)
    assert fields(screened) == fields(plain)
    assert screened.n_evals <= plain.n_evals


def counted(values):
    """A 1-D objective with the given value per proposal index, and its
    evaluation log."""
    log = []

    def fun(x):
        log.append(float(x[0]))
        return values[int(x[0])], np.zeros(1)

    return fun, log


def test_polish_evaluates_only_what_the_floor_leaves():
    # Proposals 1..4 from a best of value 2 at 0.  An exact floor rules
    # out 1 and 3 at once; 2 is kept, and 4, two ulps above it (within the
    # tie slack), is bounded again from 2 and kept.
    values = {0: 2.0, 1: 5.0, 2: 1.0, 3: 3.0, 4: 1.0 + 4.0 * np.finfo(float).eps}
    points = [np.array([float(k)]) for k in (1, 2, 3, 4)]
    asked = []

    def floor(x, rows):
        asked.append((float(x[0]), [float(r[0]) for r in rows]))
        return np.array([values[int(r[0])] for r in rows])

    fun, log = counted(values)
    x, f, _, evals, kept = qn._polish(fun, np.zeros(1), 2.0, np.zeros(1), np.zeros(1), [lambda x: points], floor)
    assert (float(x[0]), f, kept) == (4.0, values[4], True)
    assert log == [2.0, 4.0] and evals == 2
    assert asked == [(0.0, [1.0, 2.0, 3.0, 4.0]), (2.0, [3.0, 4.0])]
    # Without the floor, or with one that proves nothing, every proposal
    # is evaluated and the outcome is the same.
    for floor in (None, lambda x, rows: np.full(len(rows), -math.inf), lambda x, rows: np.full(len(rows), math.nan)):
        fun, log = counted(values)
        x, f, _, evals, kept = qn._polish(fun, np.zeros(1), 2.0, np.zeros(1), np.zeros(1), [lambda x: points], floor)
        assert (float(x[0]), f, kept) == (4.0, values[4], True)
        assert log == [1.0, 2.0, 3.0, 4.0] and evals == 4


@pytest.mark.parametrize(
    "instance",
    [
        piecewise_dag_instance(0),
        piecewise_dag_instance(1),
        piecewise_dag_instance(2),
        fisher_market(0, 3, 3),
        cfmm_instance(m=30),
        cfmm_instance(m=20, edge_penalties=True),
        opf_instance(30),
        maxflow_instance(20, 0.3, 0),
    ],
    ids=["dag-0", "dag-1", "dag-2", "fisher-3x3", "cfmm", "cfmm_pen", "opf", "maxflow"],
)
def test_every_dual_pass_is_counted(instance, monkeypatch):
    # The best rounded start is certified from the pass polish_floor kept
    # for it, though the candidates rejected after it were evaluated
    # later.  (A failed escape's probes are still left out of n_evals;
    # none of these solves has one.)
    passes = []
    original = DualProgram._evaluate_pass

    def counting(self, nu):
        passes.append(1)
        return original(self, nu)

    monkeypatch.setattr(DualProgram, "_evaluate_pass", counting)
    result = solve(instance)
    assert len(passes) == result.n_evals
