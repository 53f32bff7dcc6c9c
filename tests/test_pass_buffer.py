"""The groups of a dual program and the one buffer of a dual pass.

Every edge belongs to one group, a kernel of a bundled kind or a loop
over records that answer one by one, and every edge's maximizer lands in
one :class:`~convexflows.core.EdgeVectors` buffer on the program's
offsets, whichever group answered it.  Values and net flows are added in
edge order, as :func:`~convexflows.eval_dual` and
:func:`~convexflows.assemble_net_flow` add them.
"""

import json
import math
import traceback

import numpy as np
import pytest

from conftest import answered_by, group_edges, maxflow_instance
from convexflows import (
    EdgeIncidence,
    GeometricMeanPool,
    Hyperedge,
    LinearNonnegObjective,
    OpfQuadraticObjective,
    ProblemInstance,
    QuadraticPenalty,
    TwoAssetGeometricPool,
    assemble_net_flow,
    concave_gain_edge,
    eval_dual,
    lossless_edge,
    opf_line_edge,
    piecewise_linear_edge,
)
from convexflows.core import _KERNEL_KINDS
from convexflows.edges import LinearGain, PowerLossGain, TwoNodeEdge
from convexflows.io_cli import gen_cfmm, gen_maxflow, gen_opf, parse_instance
from convexflows.solver import DualProgram, UnboundedDualError, solve, solve_dual


def _mixed_instance():
    """Edges of every kind of group, interleaved so that no group's edges
    are consecutive and every node is touched by more than one group."""
    edges = [
        Hyperedge(EdgeIncidence((0, 1, 2)), GeometricMeanPool([100.0, 150.0, 200.0], [0.2, 0.3, 0.5], 0.997)),
        Hyperedge(EdgeIncidence((1, 2)), opf_line_edge(16.0, 0.25, 2.0)),
        Hyperedge(EdgeIncidence((2, 0)), TwoAssetGeometricPool([100.0, 120.0], 0.5, 0.997), QuadraticPenalty(2)),
        Hyperedge(EdgeIncidence((0, 3)), lossless_edge(1.5)),
        Hyperedge(EdgeIncidence((3, 1)), piecewise_linear_edge([(0.0, 0.0), (1.0, 0.9), (2.0, 1.5)])),
        Hyperedge(EdgeIncidence((1, 0)), lossless_edge(1.0), QuadraticPenalty(2)),
        Hyperedge(EdgeIncidence((2, 3)), concave_gain_edge(lambda w: 0.9 * w - 0.05 * w * w, 3.0)),
        Hyperedge(EdgeIncidence((3, 2, 0)), GeometricMeanPool([50.0, 80.0, 60.0], [0.5, 0.25, 0.25], 1.0)),
    ]
    return ProblemInstance(n=4, edges=edges, net_objective=OpfQuadraticObjective([0.5, 1.0, 2.0, 1.5]))


def _points(program, count=20):
    rng = np.random.default_rng(4)
    return [rng.uniform(0.2, 3.0, program.n_vars) for _ in range(count)]


def test_mixed_instance_fills_every_plan():
    program = DualProgram(_mixed_instance())
    kernels = {0: GeometricMeanPool, 1: PowerLossGain, 2: TwoAssetGeometricPool, 3: LinearGain, 7: GeometricMeanPool}
    assert answered_by(program) == {k: kernels.get(k) for k in range(8)}
    # One loop group answers every other edge, the penalized lossless line too.
    assert [group_edges(program, g) for g in program._groups if g.kind is None] == [[4, 5, 6]]


class _UserLine(TwoNodeEdge):
    """A subclass of the two-node edge, which the loop answers."""


def _failing_method(exc):
    """The oracle method a dual pass's error came from: the innermost
    frame of the edge error it wraps."""
    return traceback.extract_tb(exc.__cause__.__traceback__)[-1].name


def test_a_pass_raises_the_first_kernel_error_before_any_loop_error():
    # Both lines below can withdraw input without limit at a zero output
    # price.  The loop edge comes first in edge order, but a pass calls
    # the kernel groups first, so when both fail the kernel's error is
    # the one raised; the loop edge's is raised when it fails alone.
    unbounded = LinearGain(1.0, 2.0, -math.inf)
    edges = [
        Hyperedge(EdgeIncidence((0, 1)), _UserLine(unbounded)),
        Hyperedge(EdgeIncidence((1, 2)), TwoAssetGeometricPool([100.0, 120.0], 0.5, 0.997), QuadraticPenalty(2)),
        Hyperedge(EdgeIncidence((2, 3)), TwoNodeEdge(unbounded)),
    ]
    program = DualProgram(ProblemInstance(n=4, edges=edges, net_objective=LinearNonnegObjective(np.zeros(4))))
    assert [group.kind for group in program._groups] == [TwoAssetGeometricPool, LinearGain, None]
    for x, method in (([1.0, 0.0, 1.0, 0.0], "evaluate_rows"), ([1.0, 0.0, 1.0, 1.0], "evaluate_pair")):
        with pytest.raises(UnboundedDualError) as raised:
            program.value_and_grad(np.array(x))
        assert _failing_method(raised.value) == method
    assert math.isfinite(program.value_and_grad(np.array([1.0, 2.0, 1.0, 2.0]))[0])


def _parsed(doc):
    return parse_instance(json.dumps(doc))


# The mixed instance and a parsed seed-0 instance of each bench family.
_LAYOUTS = {
    "mixed": _mixed_instance,
    "cfmm": lambda: _parsed(gen_cfmm(1600, 0)),
    "cfmm_pen": lambda: _parsed(gen_cfmm(100, 0, edge_penalties=True)),
    "opf": lambda: _parsed(gen_opf(1000, 0)),
    "maxflow": lambda: _parsed(gen_maxflow(20, 0.3, 0)),
}


@pytest.mark.parametrize("name", sorted(_LAYOUTS))
def test_groups_partition_the_edges_and_the_buffer_in_edge_order(name):
    instance = _LAYOUTS[name]()
    program = DualProgram(instance)
    positions = np.concatenate([group.positions for group in program._groups])
    assert np.array_equal(np.sort(positions), np.arange(instance.m))
    entries = np.concatenate([np.ravel(group.entries) for group in program._groups])
    assert np.array_equal(np.sort(entries), np.arange(len(program.incidences.nodes)))
    for group in program._groups:
        assert group_edges(program, group) == group.positions.tolist()
        assert np.all(np.diff(group.positions) > 0)


def test_every_kernel_kind_has_the_row_protocol():
    for kind in _KERNEL_KINDS:
        for name in ("evaluate_rows", "row_params", "row_oracle", "invalid_rows"):
            assert callable(getattr(kind, name, None)), (kind.__name__, name)
    for kind in (TwoAssetGeometricPool, GeometricMeanPool):
        assert callable(getattr(kind, "penalized_rows", None)), kind.__name__


@pytest.mark.parametrize("name", ["cfmm", "maxflow", "mixed", "opf"])
def test_a_pass_adds_as_the_explicit_forms_do(name):
    # The pass adds in edge order, so its net flow is assemble_net_flow's
    # bit for bit and, where no edge has a penalty (whose utility's
    # conjugate eval_dual adds as a term of its own), its value is
    # eval_dual's at the same point.  On cfmm the two pool kinds'
    # groups interleave in edge order.
    instance = _LAYOUTS[name]()
    program = DualProgram(instance)
    # The solution, and random points above it: a cfmm objective's
    # conjugate is finite only above its prices.
    solved = solve_dual(instance).dual_point.node_prices[program.free_nodes]
    for x in [solved, *(np.maximum(solved, point) for point in _points(program, 5))]:
        raw = program._cached_pass(x)
        assert raw.flows.offsets is program.offsets
        net = assemble_net_flow(raw.flows, instance.incidences, instance.n)
        assert net.tobytes() == raw.y_arb.tobytes()
        if name != "mixed":
            assert raw.value == eval_dual(instance, program.to_point(x))


def test_solve_dual_returns_the_final_pass_buffer(monkeypatch):
    passes = []
    original = DualProgram._evaluate_pass

    def recording(self, nu):
        raw = original(self, nu)
        passes.append(raw)
        return raw

    monkeypatch.setattr(DualProgram, "_evaluate_pass", recording)
    result = solve_dual(_mixed_instance())
    final = [raw for raw in passes if raw is not None and raw.flows is result.flows]
    assert len(final) == 1
    assert result.net_flow is final[0].y_arb
    assert result.dual_value == final[0].value
    assert not result.flows.data.flags.writeable


def test_to_point_adds_tendered_flow_on_penalized_edges_only():
    instance = _mixed_instance()
    program = DualProgram(instance)
    tendering = free_tendering = 0
    for x in _points(program):
        point = program.to_point(x)
        flows = program._cached_pass(x).flows
        for edge, eta, flow in zip(instance.edges, point.edge_prices, flows):
            base = edge.incidence.gather(point.node_prices)
            if edge.utility is None:
                assert np.array_equal(eta, base)
                free_tendering += bool(np.any(flow < 0.0))
            else:
                assert np.array_equal(eta, base + np.maximum(-flow, 0.0))
                tendering += bool(np.any(flow < 0.0))
    # Both kinds of edge tender at some point, so the check is not vacuous.
    assert tendering > 0 and free_tendering > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_solve_evaluates_at_most_two_passes_beyond_the_driver(monkeypatch, seed):
    # The driver's evaluations, plus a fresh pass for each certificate
    # asked at a polish point (the best rounded start, a point the final
    # polish keeps) whose pass later candidates evicted.
    passes = []
    original = DualProgram._evaluate_pass

    def counting(self, nu):
        passes.append(1)
        return original(self, nu)

    monkeypatch.setattr(DualProgram, "_evaluate_pass", counting)
    result = solve(maxflow_instance(20, 0.3, seed))
    assert len(passes) <= result.n_evals + 2
