import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convexflows import (
    EdgeIncidence,
    Hyperedge,
    LinearNonnegObjective,
    OpfQuadraticObjective,
    PrimalPoint,
    ProblemInstance,
    assemble_net_flow,
    check_feasibility,
    lossless_edge,
    opf_line_edge,
    primal_objective,
    scatter_prices,
    solve,
)
from convexflows.core import DimensionError, EdgeVectors

from conftest import path_maxflow_instance


def test_single_edge_identity_scatter():
    y = assemble_net_flow([np.array([-1.0, 1.0])], [EdgeIncidence((0, 1))], 2)
    assert_allclose(y, [-1.0, 1.0])


def test_interior_node_nets_to_zero():
    flows = [np.array([-1.0, 1.0]), np.array([-1.0, 1.0])]
    incs = [EdgeIncidence((0, 1)), EdgeIncidence((1, 2))]
    assert_allclose(assemble_net_flow(flows, incs, 3), [-1.0, 0.0, 1.0])


def test_conserving_edges_give_zero_total():
    # Edges with 1^T x = 0 must produce 1^T y = 0 exactly.
    rng = np.random.default_rng(7)
    incs = [EdgeIncidence(tuple(rng.choice(6, size=2, replace=False))) for _ in range(20)]
    flows = []
    for _ in incs:
        w = rng.normal()
        flows.append(np.array([-w, w]))
    y = assemble_net_flow(flows, incs, 6)
    assert float(np.sum(y)) == pytest.approx(0.0, abs=1e-12)


def test_scatter_linearity():
    rng = np.random.default_rng(3)
    incs = [EdgeIncidence(tuple(rng.choice(5, size=3, replace=False))) for _ in range(4)]
    xs = [rng.normal(size=3) for _ in incs]
    zs = [rng.normal(size=3) for _ in incs]
    a, b = 1.7, -0.4
    lhs = assemble_net_flow([a * x + b * z for x, z in zip(xs, zs)], incs, 5)
    rhs = a * assemble_net_flow(xs, incs, 5) + b * assemble_net_flow(zs, incs, 5)
    assert_allclose(lhs, rhs, atol=1e-12)


def test_assemble_dimension_mismatch():
    with pytest.raises(DimensionError):
        assemble_net_flow([np.array([1.0, -1.0, 0.0])], [EdgeIncidence((0, 1))], 2)


def test_assemble_matches_per_edge_scatter_bit_for_bit():
    # Many edges over few nodes, so every node sums many terms of mixed
    # magnitude: the order of the additions shows in the last bits.
    rng = np.random.default_rng(11)
    n = 7
    incs = [
        EdgeIncidence(tuple(rng.choice(n, size=int(rng.integers(2, 5)), replace=False)))
        for _ in range(300)
    ]
    flows = [rng.normal(size=inc.dim) * 10.0 ** rng.integers(-8, 8) for inc in incs]
    expected = np.zeros(n)
    for flow, inc in zip(flows, incs):
        expected[list(inc.nodes)] += flow
    assert assemble_net_flow(flows, incs, n).tobytes() == expected.tobytes()
    assert assemble_net_flow([], [], 3).tobytes() == np.zeros(3).tobytes()
    with pytest.raises(DimensionError, match="out of range"):
        assemble_net_flow(flows, incs, n - 1)


def test_incidence_equality_hash_and_immutability():
    a = EdgeIncidence((3, 1))
    assert a == EdgeIncidence([3, 1]) and a != EdgeIncidence((1, 3))
    assert hash(a) == hash(EdgeIncidence((3, 1))) == hash(((3, 1),))
    assert len({a, EdgeIncidence((3, 1)), EdgeIncidence((1, 3))}) == 2
    assert a.gather(np.arange(5.0)).tolist() == [3.0, 1.0]
    assert a == EdgeIncidence((3, 1)) and hash(a) == hash(((3, 1),))
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.nodes = (0, 1)
    # A slotted record: no per-instance dictionary.
    assert not hasattr(a, "__dict__")


def test_incidence_rejects_duplicates_and_small():
    with pytest.raises(ValueError):
        EdgeIncidence((1, 1))
    with pytest.raises(ValueError):
        EdgeIncidence((2,))


def test_scatter_prices_selection():
    assert_allclose(scatter_prices(np.array([1.0, 2.0, 3.0]), EdgeIncidence((2, 0))), [3.0, 1.0])
    assert_allclose(scatter_prices(np.zeros(3), EdgeIncidence((1, 2))), [0.0, 0.0])
    assert_allclose(scatter_prices(np.array([5.0, 5.0, 5.0]), EdgeIncidence((0, 2))), [5.0, 5.0])


def test_scatter_prices_out_of_range():
    with pytest.raises(DimensionError):
        scatter_prices(np.array([1.0, 2.0]), EdgeIncidence((0, 3)))


def _linear_instance():
    edges = [Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0))]
    return ProblemInstance(n=2, edges=edges, net_objective=LinearNonnegObjective([1.0, 2.0]))


def test_primal_objective_linear():
    instance = _linear_instance()
    point = PrimalPoint([np.array([-1.0, 1.0])], np.array([1.0, 1.0]))
    assert primal_objective(instance, point) == pytest.approx(3.0)


def test_primal_objective_indicator_violation():
    instance = _linear_instance()
    point = PrimalPoint([np.array([0.0, 0.0])], np.array([-0.1, 1.0]))
    assert primal_objective(instance, point) == -np.inf


def test_primal_objective_opf_quadratic():
    # Two unit demands served by nothing cost 1/2 each.
    edges = [Hyperedge(EdgeIncidence((0, 1)), opf_line_edge(16.0, 0.25, 1.0))]
    instance = ProblemInstance(n=2, edges=edges, net_objective=OpfQuadraticObjective([1.0, 1.0]))
    point = PrimalPoint([np.zeros(2)], np.zeros(2))
    assert primal_objective(instance, point) == pytest.approx(-1.0)


def test_primal_objective_monotone_in_net_flow():
    rng = np.random.default_rng(11)
    instance = _linear_instance()
    for _ in range(25):
        y = np.abs(rng.normal(size=2))
        delta = np.abs(rng.normal(size=2))
        p0 = primal_objective(instance, PrimalPoint([np.zeros(2)], y))
        p1 = primal_objective(instance, PrimalPoint([np.zeros(2)], y + delta))
        assert p1 >= p0 - 1e-12


def test_check_feasibility_consistent_point():
    instance = _linear_instance()
    flows = [np.array([-0.5, 0.5])]
    y = assemble_net_flow(flows, instance.incidences, 2)
    report = check_feasibility(instance, PrimalPoint(flows, y), tol=1e-9)
    assert report.net_flow_residual == 0.0
    assert report.ok


def test_check_feasibility_perturbed_net_flow():
    instance = _linear_instance()
    flows = [np.array([-0.5, 0.5])]
    y = assemble_net_flow(flows, instance.incidences, 2)
    y[1] += 1e-3
    report = check_feasibility(instance, PrimalPoint(flows, y), tol=1e-9)
    assert report.net_flow_residual == pytest.approx(1e-3)


def test_check_feasibility_fails_a_nan_net_flow():
    # A solved point whose net flow is NaN in one entry is not feasible,
    # although every edge flow is a member of its set.
    instance = path_maxflow_instance()
    result = solve(instance)
    net_flow = np.array(result.net_flow)
    assert check_feasibility(instance, PrimalPoint(result.flows, net_flow), tol=1e-6).ok
    net_flow[1] = np.nan
    report = check_feasibility(instance, PrimalPoint(result.flows, net_flow), tol=1e-6)
    assert all(report.edge_membership)
    assert report.ok is False
    # A finite residual past tol·(1 + |net_flow|_inf) fails it too.
    net_flow[1] = result.net_flow[1] + 1e-5
    assert not check_feasibility(instance, PrimalPoint(result.flows, net_flow), tol=1e-6).ok


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_check_feasibility_rejects_a_tolerance_that_cannot_judge(tol):
    # A NaN tolerance fails every comparison, so it would judge a
    # consistent point infeasible rather than be refused.
    instance = _linear_instance()
    flows = [np.array([-0.5, 0.5])]
    y = assemble_net_flow(flows, instance.incidences, 2)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        check_feasibility(instance, PrimalPoint(flows, y), tol=tol)


def test_check_feasibility_capacity_exceeded():
    instance = _linear_instance()
    flows = [np.array([-2.0, 2.0])]
    y = assemble_net_flow(flows, instance.incidences, 2)
    report = check_feasibility(instance, PrimalPoint(flows, y), tol=1e-9)
    assert report.edge_membership == [False]
    assert not report.ok


def test_instance_rejects_unsupported_edge_utilities():
    # The solver minimizes a penalized edge's local prices inside the
    # edge's oracle, so an edge utility must be the quadratic penalty on an
    # oracle with a penalized subproblem.
    from convexflows import FisherBasketEdge, QuadraticPenalty, TwoAssetGeometricPool

    pool = Hyperedge(EdgeIncidence((0, 1)), TwoAssetGeometricPool([100.0, 50.0]), QuadraticPenalty(2))
    objective = LinearNonnegObjective(np.ones(3))
    assert ProblemInstance(n=3, edges=[pool], net_objective=objective).utility_edges == (0,)
    basket = Hyperedge(EdgeIncidence((0, 1, 2)), FisherBasketEdge([2.0, 1.0]), QuadraticPenalty(3))
    with pytest.raises(ValueError, match="edge 1: unsupported edge utility QuadraticPenalty on FisherBasketEdge"):
        ProblemInstance(n=3, edges=[pool, basket], net_objective=objective)
    other = Hyperedge(EdgeIncidence((0, 1)), lossless_edge(1.0), OpfQuadraticObjective(np.zeros(2)))
    with pytest.raises(ValueError, match="edge 0: unsupported edge utility OpfQuadraticObjective on TwoNodeEdge"):
        ProblemInstance(n=3, edges=[other], net_objective=objective)


# -- packed per-edge vectors ---------------------------------------------------


def _packed():
    vectors = [np.array([1.0, -2.0]), np.array([3.0, 4.0, 5.0]), np.array([-6.0, 7.0])]
    return vectors, EdgeVectors(np.concatenate(vectors), [0, 2, 5, 7])


def test_edge_vectors_read_as_a_list():
    vectors, packed = _packed()
    assert len(packed) == 3
    assert [v.tolist() for v in packed] == [v.tolist() for v in vectors]
    for k in range(-3, 3):
        assert np.array_equal(packed[k], vectors[k])
    assert [v.tolist() for v in packed[1:]] == [v.tolist() for v in vectors[1:]]
    assert [v.tolist() for v in packed[::-2]] == [v.tolist() for v in vectors[::-2]]
    assert packed[5:] == []
    assert list(reversed(packed))[0].tolist() == [-6.0, 7.0]
    for index in (3, -4, 10):
        with pytest.raises(IndexError):
            packed[index]
    with pytest.raises(TypeError):
        packed[1.0]


def test_edge_vectors_are_read_only_views_of_one_buffer():
    _, packed = _packed()
    view = packed[1]
    assert np.shares_memory(view, packed.data) and view.base is not None
    with pytest.raises(ValueError):
        view[0] = 0.0
    with pytest.raises(ValueError):
        view.flags.writeable = True
    with pytest.raises(ValueError):
        packed.data[0] = 0.0
    with pytest.raises(ValueError):
        packed.offsets[1] = 1
    with pytest.raises(AttributeError):
        packed.extra = 1
    assert packed[1].tolist() == [3.0, 4.0, 5.0]


def test_edge_vectors_pack_checks_the_layout():
    vectors, packed = _packed()
    again = EdgeVectors.pack(vectors, packed.offsets)
    assert np.array_equal(again.data, packed.data) and again.offsets is packed.offsets
    assert EdgeVectors.pack(again, packed.offsets) is again
    with pytest.raises(DimensionError):
        EdgeVectors.pack(vectors[:2], packed.offsets)
    with pytest.raises(DimensionError):
        EdgeVectors.pack([vectors[1], vectors[0], vectors[2]], packed.offsets)
    for offsets in ([0, 2, 5], [1, 2, 5, 7], [0, 5, 2, 7]):
        with pytest.raises(DimensionError):
            EdgeVectors(packed.data, offsets)


def test_net_flow_from_packed_flows_matches_the_list_bit_for_bit():
    rng = np.random.default_rng(11)
    incs = [EdgeIncidence(tuple(rng.choice(9, size=int(rng.integers(2, 5)), replace=False))) for _ in range(40)]
    flows = [rng.normal(size=inc.dim) * 10.0 ** rng.integers(-8, 8) for inc in incs]
    offsets = np.cumsum([0] + [inc.dim for inc in incs])
    packed = EdgeVectors.pack(flows, offsets)
    assert np.array_equal(assemble_net_flow(packed, incs, 9), assemble_net_flow(flows, incs, 9))
    with pytest.raises(DimensionError):
        assemble_net_flow(packed, incs[:-1], 9)
    with pytest.raises(DimensionError):
        assemble_net_flow(EdgeVectors(packed.data, [0, *offsets[2:]]), incs[1:], 9)
