import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexflows import (
    EdgeIncidence,
    Hyperedge,
    OpfQuadraticObjective,
    ProblemInstance,
    detect_ambiguous,
    lossless_edge,
    opf_line_edge,
    restore_primal,
    solve,
)
from convexflows.io_cli import gen_maxflow, instance_from_dict
from convexflows.recovery import FaceSegment, RecoveryError, recover_flows
from convexflows.solver import solve_dual


def test_detect_segment_at_tied_prices():
    edge = lossless_edge(1.0)
    out = detect_ambiguous(edge, np.array([1.0, 1.0]), edge_index=3)
    assert isinstance(out, FaceSegment)
    assert out.edge_index == 3
    assert_allclose(out.p, [0.0, 0.0])
    assert_allclose(out.q, [-1.0, 1.0])


def test_detect_unique_off_ties():
    edge = lossless_edge(1.0)
    assert detect_ambiguous(edge, np.array([2.0, 1.0])) is None
    strict = opf_line_edge(16.0, 0.25, 1.0)
    assert detect_ambiguous(strict, np.array([1.0, 1.0])) is None


def test_segment_endpoints_share_dual_value():
    edge = lossless_edge(2.0)
    prices = np.array([1.5, 1.5])
    seg = detect_ambiguous(edge, prices)
    value = edge.evaluate(prices).value
    assert float(prices @ seg.p) == pytest.approx(value, abs=1e-9)
    assert float(prices @ seg.q) == pytest.approx(value, abs=1e-9)


def test_restore_parallel_edges_split_target():
    # Two tied unit edges from node 0 to node 1 must jointly carry 1.5.
    incidences = [EdgeIncidence((0, 1)), EdgeIncidence((0, 1))]
    segments = [
        FaceSegment(0, np.array([0.0, 0.0]), np.array([-1.0, 1.0])),
        FaceSegment(1, np.array([0.0, 0.0]), np.array([-1.0, 1.0])),
    ]
    flows, residual = restore_primal(
        np.array([-1.5, 1.5]), {}, segments, incidences, 2, tol=1e-8
    )
    assert residual <= 1e-10
    total = flows[0] + flows[1]
    assert_allclose(total, [-1.5, 1.5], atol=1e-9)
    for flow in flows:
        assert -1.0 - 1e-12 <= flow[0] <= 0.0 + 1e-12


def test_restore_without_segments_reports_residual():
    incidences = [EdgeIncidence((0, 1))]
    flows, residual = restore_primal(
        np.array([-1.0, 1.0]), {0: np.array([-1.0, 1.0])}, [], incidences, 2, tol=1e-8
    )
    assert residual == 0.0
    assert_allclose(flows[0], [-1.0, 1.0])


def test_restore_unreachable_target_raises():
    incidences = [EdgeIncidence((0, 1))]
    segments = [FaceSegment(0, np.array([0.0, 0.0]), np.array([-1.0, 1.0]))]
    with pytest.raises(RecoveryError) as info:
        restore_primal(np.array([-3.0, 3.0]), {}, segments, incidences, 2, tol=1e-6)
    assert info.value.residual > 1.0


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
    for flow, raw in zip(result.flows, solve_dual(instance).flows):
        assert_allclose(flow, raw)


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
    conj_u = instance.net_objective.conj(dual.dual_point.node_prices)
    flows, residual = recover_flows(instance, dual.dual_point, dual.flows, conj_u)
    assert residual <= 1e-12
    assert 0 < len(calls) <= 100
