import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexflows import (
    EdgeIncidence,
    Hyperedge,
    OpfQuadraticObjective,
    ProblemInstance,
    TwoNodeEdge,
    lossless_edge,
    opf_line_edge,
    recovery,
    restore_primal,
    solve,
)
from convexflows.core import DimensionError, EdgeVectors
from convexflows.io_cli import gen_maxflow, gen_opf, instance_from_dict
from convexflows.recovery import RecoveryError, recover_flows
from convexflows.solver import DualProgram, solve_dual


def _buffer(*flows):
    """The flows of a list of edges as one buffer, laid out in edge order."""
    return EdgeVectors.pack([np.asarray(f, dtype=float) for f in flows], np.cumsum([0, *map(len, flows)]))


def test_restore_parallel_edges_split_target():
    # Two tied unit edges from node 0 to node 1 must jointly carry 1.5.
    incidences = [EdgeIncidence((0, 1)), EdgeIncidence((0, 1))]
    segments = {
        0: (np.array([0.0, 0.0]), np.array([-1.0, 1.0])),
        1: (np.array([0.0, 0.0]), np.array([-1.0, 1.0])),
    }
    flows, residual = restore_primal(
        np.array([-1.5, 1.5]), _buffer([9.0, 9.0], [9.0, 9.0]), segments, incidences, 2, tol=1e-8
    )
    assert residual <= 1e-10
    assert isinstance(flows, EdgeVectors)
    total = flows[0] + flows[1]
    assert_allclose(total, [-1.5, 1.5], atol=1e-9)
    for flow in flows:
        assert -1.0 - 1e-12 <= flow[0] <= 0.0 + 1e-12


def test_restore_without_segments_reports_residual():
    incidences = [EdgeIncidence((0, 1))]
    buffer = _buffer([-1.0, 1.0])
    flows, residual = restore_primal(np.array([-1.0, 1.0]), buffer, {}, incidences, 2, tol=1e-8)
    assert residual == 0.0
    assert flows is buffer


def test_restore_unreachable_target_raises():
    incidences = [EdgeIncidence((0, 1))]
    segments = {0: (np.array([0.0, 0.0]), np.array([-1.0, 1.0]))}
    with pytest.raises(RecoveryError) as info:
        restore_primal(np.array([-3.0, 3.0]), _buffer([0.0, 0.0]), segments, incidences, 2, tol=1e-6)
    assert info.value.residual > 1.0


def test_restore_writes_only_the_face_entries():
    # Edge 1 is on a face; edges 0 and 2 keep the bytes of their
    # entries, whatever the fit does, and the output keeps the offsets.
    incidences = [EdgeIncidence((0, 1, 2)), EdgeIncidence((1, 2)), EdgeIncidence((0, 2))]
    buffer = _buffer([-0.1, 0.2, -0.1], [0.5, 0.5], [-0.3, 0.3])
    segments = {1: (np.array([0.0, 0.0]), np.array([-2.0, 2.0]))}
    flows, residual = restore_primal(
        np.array([-0.4, -0.8, 1.2]), buffer, segments, incidences, 3, tol=1e-8
    )
    assert residual <= 1e-10
    assert flows.offsets is buffer.offsets
    assert_allclose(flows[1], [-1.0, 1.0])
    fixed = np.r_[0:3, 5:7]
    assert flows.data[fixed].tobytes() == buffer.data[fixed].tobytes()


def test_restore_rejects_a_segment_or_buffer_of_the_wrong_length():
    incidences = [EdgeIncidence((0, 1))]
    segments = {0: (np.array([0.0, 0.0, 0.0]), np.array([-1.0, 1.0, 0.0]))}
    with pytest.raises(DimensionError):
        restore_primal(np.array([-1.0, 1.0]), _buffer([0.0, 0.0]), segments, incidences, 2)
    with pytest.raises(DimensionError):
        restore_primal(np.array([-1.0, 1.0]), _buffer([0.0, 0.0, 0.0]), {}, incidences, 2)


def _parallel_tie_instance():
    # Quadratic generation at node 1 (demand 3) against two unit edges
    # from node 0: the optimum ties both edges at price 1.5 and routes
    # 1.5 units total, forcing fractional segment parameters.
    edges = [
        Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0)),
        Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0)),
    ]
    return ProblemInstance(
        n=2, edges=edges, net_objective=OpfQuadraticObjective([0.0, 3.0])
    )


def test_parallel_tie_instance_end_to_end():
    instance = _parallel_tie_instance()
    result = solve(instance)
    assert result.recovery_residual <= 1e-8
    assert_allclose(result.net_flow, [-1.5, 1.5], atol=1e-7)
    for edge, flow in zip(instance.edges, result.flows):
        assert edge.oracle.is_member(flow, 1e-8)
    # Strong duality after recovery.
    assert abs(result.duality_gap) <= 1e-7 * (1.0 + abs(result.dual_value))


def test_recovery_noop_for_strictly_convex_instance():
    edges = [Hyperedge(EdgeIncidence((0, 1)), opf_line_edge(16.0, 0.25, 2.0))]
    instance = ProblemInstance(
        n=2, edges=edges, net_objective=OpfQuadraticObjective([0.0, 1.0])
    )
    result = solve(instance)
    assert result.flows.data.tobytes() == solve_dual(instance).flows.data.tobytes()


@pytest.mark.parametrize(
    "doc", [gen_opf(30, 0), gen_maxflow(12, 0.3, 0)], ids=["opf", "maxflow"]
)
def test_recovery_makes_no_per_edge_pass(doc, monkeypatch):
    # Recovery reads and writes the pass buffer as a whole: it never
    # walks the flows edge by edge.
    original = recovery.recover_flows
    calls = []

    def per_edge(self):
        raise AssertionError("recovery iterated the flows edge by edge")

    def guarded(*args, **kwargs):
        calls.append(1)
        with monkeypatch.context() as patch:
            patch.setattr(EdgeVectors, "__iter__", per_edge)
            return original(*args, **kwargs)

    monkeypatch.setattr(recovery, "recover_flows", guarded)
    result = solve(instance_from_dict(doc))
    assert calls and result.converged


def test_box_fit_stops_once_rounds_stop_improving(monkeypatch):
    # On this instance float noise holds the projected gradient of the
    # segment fit just above 1e-13 after the first round; the fit must
    # stop there instead of running every active-set round.
    instance = instance_from_dict(gen_maxflow(20, 0.3, 1))
    dual = solve_dual(instance)
    lstsq = np.linalg.lstsq
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    nu = dual.dual_point.node_prices
    program = DualProgram(instance)
    faces = program.supported_faces(program.initial_vector(dual.dual_point))
    flows, residual = recover_flows(instance, nu, dual.flows, instance.net_objective.conj(nu), faces)
    assert residual <= 1e-12
    assert 0 < len(calls) <= 100


def test_solve_recovers_on_the_face_table(monkeypatch):
    # Recovery fits the faces of the dual program's table at the final
    # iterate, looked up through the recovery module; no per-edge face
    # rule runs.
    handed = []
    original = recovery.recover_flows

    def recording(instance, node_prices, flows, conj_u, faces, tol):
        handed.append(faces)
        return original(instance, node_prices, flows, conj_u, faces, tol=tol)

    def per_edge(*args):
        raise AssertionError("per-edge face rule called")

    monkeypatch.setattr(recovery, "recover_flows", recording)
    monkeypatch.setattr(TwoNodeEdge, "supported_face", per_edge)
    instance = instance_from_dict(gen_maxflow(20, 0.3, 1))
    result = solve(instance)
    program = DualProgram(instance)
    want = program.supported_faces(program.initial_vector(result.dual_point))
    assert len(handed) == 1 and list(handed[0]) == list(want) and want
    for pos, (p, q) in want.items():
        assert np.array_equal(handed[0][pos][0], p) and np.array_equal(handed[0][pos][1], q)
    assert result.recovery_residual <= 1e-9
