"""The start and polish certificates on flat-faced instances.

After the first iterate the driver evaluates the polish candidates of the
start point, and the solver recovers and scores a primal point at the best
of them; a gap within ``feas_tol`` ends the solve there.  A point the
final polish keeps is asked about the same way.
"""

import math

import numpy as np
import pytest

from conftest import maxflow_arcs, maxflow_instance
from convexflows import recovery, solver
from convexflows.solver import solve
from convexflows.validation import maxflow_oracle


@pytest.mark.parametrize("n, seed", [(20, 0), (20, 1), (40, 0)])
def test_certified_start_ends_after_one_iteration(n, seed, monkeypatch):
    recoveries = []
    original = recovery.recover_flows

    def counting(*args, **kwargs):
        recoveries.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(recovery, "recover_flows", counting)
    instance = maxflow_instance(n, 0.3, seed)
    result = solve(instance)
    assert result.status == "converged" and result.converged
    assert result.iterations == 1
    assert result.primal_value == pytest.approx(maxflow_oracle(instance.n, maxflow_arcs(instance)), rel=1e-9)
    assert abs(result.duality_gap) <= 1e-6 * (1.0 + abs(result.dual_value))
    # The certificate's primal point is the result's: one recovery.
    assert len(recoveries) == 1
    # The trace ends with a row at the adopted point.
    assert [row.iteration for row in result.trace.rows] == [0, 1]
    assert result.trace.rows[-1].value == result.dual_value


def _start_phase(events):
    """Evaluations between the first callback and the certificate."""
    first = events.index("iterate")
    return events[first:events.index("certificate")].count("eval")


def test_failed_start_changes_only_the_evaluation_count(monkeypatch):
    original = solver.minimize_bound_lbfgs
    events = []

    def recording(fun, *args, callback, certificate=None, **kwargs):
        def counted(x):
            events.append("eval")
            return fun(x)

        def iterate(*cb_args):
            events.append("iterate")
            return callback(*cb_args)

        def asked(x, f):
            # The start is refused on its own; the point the final polish
            # keeps would certify, and is refused here so that both runs
            # end as the run without a certificate does.
            events.append("certificate")
            return certificate(x, f) and events.count("certificate") == 1

        return original(counted, *args, callback=iterate, certificate=certificate and asked, **kwargs)

    def uncertified(*args, certificate=None, **kwargs):
        return original(*args, **kwargs)

    # Two of this instance's start candidates survive the polish floor.
    instance = maxflow_instance(12, 0.3, 5)
    monkeypatch.setattr(solver, "minimize_bound_lbfgs", recording)
    checked = solve(instance)
    assert events.count("certificate") == 2  # the start and the polished point
    assert events[-1] == "certificate"
    candidates = _start_phase(events)
    assert candidates > 1
    monkeypatch.setattr(solver, "minimize_bound_lbfgs", uncertified)
    plain = solve(instance)

    assert checked.status == plain.status != "converged"
    assert checked.iterations == plain.iterations
    assert checked.dual_value == plain.dual_value
    assert checked.n_evals == plain.n_evals + candidates
    assert np.array_equal(checked.dual_point.node_prices, plain.dual_point.node_prices)
    assert checked.primal_value == plain.primal_value
    assert all(np.array_equal(a, b) for a, b in zip(checked.flows, plain.flows))
    assert [row.value for row in checked.trace.rows] == [row.value for row in plain.trace.rows]
    assert math.isfinite(checked.primal_value)


@pytest.mark.parametrize("seed, iterations, evals", [(2, 679, 1437), (16, 298, 783)])
def test_polished_point_is_certified(seed, iterations, evals, monkeypatch):
    # These runs refuse their start, stop on no gradient test and keep a
    # point in the final polish, where the gap is below 1e-13: the one
    # certificate asked there ends them converged, with the counts of the
    # uncertified ending and the recovered flows as the result's.
    recoveries = []
    original = recovery.recover_flows

    def counting(*args, **kwargs):
        recoveries.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(recovery, "recover_flows", counting)
    instance = maxflow_instance(20, 0.3, seed)
    result = solve(instance)
    assert result.status == "converged" and result.converged
    assert (result.iterations, result.n_evals) == (iterations, evals)
    assert len(recoveries) == 2  # the refused start and the polished point
    assert result.primal_value == pytest.approx(maxflow_oracle(instance.n, maxflow_arcs(instance)), rel=1e-9)
    assert abs(result.duality_gap) <= 1e-13 * (1.0 + abs(result.dual_value))
