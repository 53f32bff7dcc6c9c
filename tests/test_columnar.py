"""Column-stored two-node edges and the pair plan's kernels.

A parsed instance keeps its utility-free ``opf_line``, ``lossless`` and
``linear_gain`` edges as columns (``core.EdgeTable``), and the dual
program answers every ``TwoNodeEdge`` whose gain is exactly a
``PowerLossGain`` or a ``LinearGain`` with one kernel per gain type
(``evaluate_pairs``).  These tests hold both to the per-edge forms they
replace: the kernels to ``TwoNodeEdge.evaluate_pair`` bit for bit, the
reader to the messages and documents of the record path, and the solve
to the per-edge solve bit for bit.
"""

import copy
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from convexflows import (
    EdgeIncidence,
    Hyperedge,
    OpfQuadraticObjective,
    ProblemInstance,
    concave_gain_edge,
    linear_gain_edge,
    lossless_edge,
    opf_line_edge,
    piecewise_linear_edge,
)
from convexflows.core import EdgeTable, TwoNodeColumns
from convexflows.edges import LinearGain, PowerLossGain, TwoNodeEdge, UnboundedEdgeError
from convexflows.io_cli import (
    InstanceValidationError,
    ParseError,
    gen_maxflow,
    gen_opf,
    instance_to_dict,
    parse_instance,
)
from convexflows.solver import DualProgram, solve

# -- kernels ------------------------------------------------------------------


def _prices(rng, m, slopes):
    """Price pairs covering every branch of the two-node closed forms."""
    p_in = rng.uniform(0.0, 2.0, m) * 10.0 ** rng.integers(-3, 4, m)
    p_out = rng.uniform(0.0, 2.0, m) * 10.0 ** rng.integers(-3, 4, m)
    kind = rng.integers(0, 7, m)
    p_in[kind == 1] = p_out[kind == 1] = 0.0  # both zero
    p_out[kind == 2] = 0.0  # zero output only
    p_in[kind == 3] = slopes[kind == 3] * p_out[kind == 3]  # exactly tied
    p_in[kind == 4] = 1e-6 * p_out[kind == 4]  # clipped at capacity
    p_in[kind == 5], p_out[kind == 5] = 1e-300, 1e300
    p_in[kind == 6], p_out[kind == 6] = 1e300, 1e-300
    return p_in, p_out


def _assert_matches_evaluate_pair(gain_type, params, p_in, p_out):
    value, flow_in, flow_out, tie = gain_type.evaluate_pairs(*params, p_in, p_out)
    for k in range(len(p_in)):
        edge = TwoNodeEdge(gain_type(*(float(column[k]) for column in params)))
        want = edge.evaluate_pair(float(p_in[k]), float(p_out[k]))
        got = (value[k], flow_in[k], flow_out[k])
        # Bytes, so that a signed zero or a last bit shows.
        assert np.array(got).tobytes() == np.array(want[:3]).tobytes(), (gain_type, k, got, want)
        assert bool(tie[k]) is want[3]


def test_power_loss_kernel_equals_evaluate_pair_bit_for_bit():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = 400
        beta = rng.choice([0.25, 1.0, 4.0, 0.01, -0.25], m)
        capacity = rng.choice([1.0, 2.0, 3.0, 1e-3, 40.0], m)
        params = (4.0 / beta, beta, capacity)
        # A power line's price ratio 1 is its own tie; slope 1 at zero input.
        p_in, p_out = _prices(rng, m, np.ones(m))
        _assert_matches_evaluate_pair(PowerLossGain, params, p_in, p_out)


def test_linear_gain_kernel_equals_evaluate_pair_bit_for_bit():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = 400
        slope = rng.choice([1.0, 0.5, 2.0, 0.0, 0.3], m)
        capacity = rng.choice([1.0, 2.0, 3.0, 1e-3, 7.5], m)
        input_lo = np.where(rng.random(m) < 0.7, 0.0, rng.uniform(-2.0, 0.5, m) * capacity)
        p_in, p_out = _prices(rng, m, slope)
        _assert_matches_evaluate_pair(LinearGain, (slope, capacity, input_lo), p_in, p_out)


@pytest.mark.parametrize(
    "gain_type, params",
    [(PowerLossGain, (16.0, 0.25, 2.0)), (LinearGain, (1.0, 2.0, 0.0))],
)
def test_kernels_keep_the_negative_price_error(gain_type, params):
    columns = [np.full(3, value) for value in params]
    with pytest.raises(ValueError) as scalar:
        TwoNodeEdge(gain_type(*params)).evaluate_pair(1.0, -0.5)
    with pytest.raises(ValueError) as batch:
        gain_type.evaluate_pairs(*columns, np.array([1.0, 1.0, 2.0]), np.array([1.0, -0.5, -1.0]))
    assert str(batch.value) == str(scalar.value) == "prices must be nonnegative, got (1.0, -0.5)"


def test_linear_kernel_keeps_the_unbounded_withdrawal_error():
    params = (np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([0.0, -math.inf]))
    with pytest.raises(UnboundedEdgeError):
        LinearGain.evaluate_pairs(*params, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(UnboundedEdgeError):
        TwoNodeEdge(LinearGain(1.0, 2.0, -math.inf)).evaluate_pair(1.0, 0.0)


def _interleaved(seed, per_edge=False):
    """opf lines, piecewise-linear and user gains, interleaved by hand.

    With ``per_edge`` the bundled gains sit on a subclass of
    ``TwoNodeEdge``, which the pair plan answers one by one, as it
    answered every two-node edge before the kernels.
    """

    class PerEdge(TwoNodeEdge):
        __slots__ = ()

    rng = np.random.default_rng(seed)
    n = 12
    edges = []
    for k in range(48):
        u, v = (int(j) for j in rng.choice(n, size=2, replace=False))
        cap = float(rng.choice([1.0, 2.0, 3.0]))
        kind = k % 5
        if kind == 0:
            oracle = opf_line_edge(16.0, 0.25, cap)
        elif kind == 1:
            oracle = piecewise_linear_edge([(0.0, 0.0), (cap, 0.9 * cap), (2 * cap, 1.5 * cap)])
        elif kind == 2:
            oracle = concave_gain_edge(lambda w, cap=cap: 0.9 * w - 0.05 * w * w, cap)
        elif kind == 3:
            oracle = lossless_edge(cap)
        else:
            oracle = linear_gain_edge(0.8, cap)
        if per_edge and type(oracle.gain) in (PowerLossGain, LinearGain):
            oracle = PerEdge(oracle.gain)
        edges.append(Hyperedge(EdgeIncidence((u, v)), oracle))
    demands = rng.choice([0.5, 1.0, 2.0], size=n)
    return ProblemInstance(n=n, edges=edges, net_objective=OpfQuadraticObjective(demands))


def _fingerprint(result):
    """Every number a solve reports, as bytes."""
    parts = [
        np.array([result.dual_value, result.primal_value, result.recovery_residual]),
        result.net_flow,
        result.dual_point.node_prices,
        result.flows.data,
        result.dual_point.edge_prices.data,
    ]
    return (result.status, result.iterations, result.n_evals, b"".join(np.asarray(p, float).tobytes() for p in parts))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interleaved_hand_built_instance_solves_as_edge_by_edge(seed):
    kernels = DualProgram(_interleaved(seed))._kernels
    assert sorted(k.gain_type.__name__ for k in kernels) == ["LinearGain", "PowerLossGain"]
    assert not DualProgram(_interleaved(seed, per_edge=True))._kernels
    assert _fingerprint(solve(_interleaved(seed))) == _fingerprint(solve(_interleaved(seed, per_edge=True)))


def test_parsed_instances_solve_as_their_records():
    # The records of a parsed instance, as a hand-built list, take the
    # same kernels from their gain objects instead of the columns.
    for doc in (gen_opf(40, 2), gen_maxflow(12, 0.5, 1)):
        parsed = parse_instance(json.dumps(doc))
        assert isinstance(parsed.edges, EdgeTable)
        listed = ProblemInstance(n=parsed.n, edges=list(parsed.edges), net_objective=parsed.net_objective)
        assert _fingerprint(solve(parsed)) == _fingerprint(solve(listed))


# -- the reader ---------------------------------------------------------------


def _linear_gain_doc():
    doc = gen_maxflow(10, 0.4, 3)
    for k, edge in enumerate(doc["edges"]):
        edge["kind"] = "linear_gain"
        edge["params"] = {"gain": [0.5, 0.8, 1.25][k % 3], "capacity": edge["params"]["capacity"]}
    return doc


@pytest.mark.parametrize(
    "doc",
    [gen_opf(30, 1), gen_maxflow(15, 0.3, 2), _linear_gain_doc()],
    ids=["opf_line", "lossless", "linear_gain"],
)
def test_column_stored_instances_serialize_to_their_documents(doc):
    instance = parse_instance(json.dumps(doc))
    assert isinstance(instance.edges, EdgeTable) and not instance.edges.records
    assert instance_to_dict(instance) == doc


def test_edge_table_reads_as_a_list_of_records():
    doc = gen_opf(8, 0)
    doc["edges"][3]["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
    instance = parse_instance(json.dumps(doc))
    edges = instance.edges
    assert len(edges.records) == 1 and edges[3] is edges.records[0]
    assert instance.utility_edges == (3,)
    assert edges[-1].incidence == edges[len(edges) - 1].incidence
    assert [e.incidence.nodes for e in edges[2:5]] == [tuple(e["nodes"]) for e in doc["edges"][2:5]]
    with pytest.raises(IndexError):
        edges[len(edges)]
    # A column-stored record is new at every access: writing to it is lost.
    assert edges[0] is not edges[0]
    assert instance.incidences.nodes.tolist() == [j for e in doc["edges"] for j in e["nodes"]]


def _with(doc, k, **changes):
    doc = copy.deepcopy(doc)
    for key, value in changes.items():
        if key == "nodes":
            doc["edges"][k]["nodes"] = value
        else:
            doc["edges"][k]["params"][key] = value
    return doc


_OPF = gen_opf(10, 0)
_MAXFLOW = gen_maxflow(10, 0.4, 0)
_LINEAR = _linear_gain_doc()


# Each fault sits after good rows of its kind; the messages are the
# record path's, word for word.
@pytest.mark.parametrize(
    "doc, error, message",
    [
        (_with(_OPF, 7, capacity=True), ParseError, r"$.edges[7].capacity: expected float, got bool"),
        (_with(_OPF, 7, capacity=10**400), InstanceValidationError, r"$.edges[7]: capacity must be positive and finite"),
        (_with(_OPF, 7, alpha=15.0), InstanceValidationError, r"$.edges[7]: loss family requires alpha * beta = 4"),
        (_with(_OPF, 7, nodes=[0, 10]), InstanceValidationError, r"$.edges[7].nodes: index out of range for n=10"),
        (_with(_OPF, 7, nodes=[0, 1, 2]), InstanceValidationError, r"$: edge 7: oracle dimension 2 does not match incidence of size 3"),
        (_with(_MAXFLOW, 5, capacity=False), ParseError, r"$.edges[5].capacity: expected float, got bool"),
        (_with(_MAXFLOW, 5, capacity=10**400), InstanceValidationError, r"$.edges[5]: capacity must be finite and exceed the lower input bound"),
        (_with(_MAXFLOW, 5, capacity=-1.0), InstanceValidationError, r"$.edges[5]: capacity must be finite and exceed the lower input bound"),
        (_with(_MAXFLOW, 5, nodes=[2, 2]), InstanceValidationError, r"$.edges[5].nodes: duplicate node in incidence (2, 2)"),
        (_with(_MAXFLOW, 5, nodes=[0, 1, 2]), InstanceValidationError, r"$: edge 5: oracle dimension 2 does not match incidence of size 3"),
        (_with(_LINEAR, 6, gain=-0.5), InstanceValidationError, r"$.edges[6]: gain slope must be nonnegative and finite"),
        (_with(_LINEAR, 6, gain=True), ParseError, r"$.edges[6].gain: expected float, got bool"),
        (_with(_LINEAR, 6, capacity=10**400), InstanceValidationError, r"$.edges[6]: capacity must be finite and exceed the lower input bound"),
        (_with(_LINEAR, 6, nodes=[0, 99]), InstanceValidationError, r"$.edges[6].nodes: index out of range for n=10"),
        (_with(_LINEAR, 6, nodes=[0, 1, 2]), InstanceValidationError, r"$: edge 6: oracle dimension 2 does not match incidence of size 3"),
    ],
)
def test_a_bad_row_after_good_ones_keeps_its_message(doc, error, message):
    with pytest.raises(error) as info:
        parse_instance(json.dumps(doc))
    assert type(info.value) is error and str(info.value) == message


def test_the_first_fault_in_edge_order_is_reported():
    # A column row's range fault is found after the loop, a record's at
    # once; the earlier edge still wins either way.
    early_column = _with(_with(_OPF, 2, capacity=-1.0), 6, alpha=True)
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[2\]: capacity"):
        parse_instance(json.dumps(early_column))
    early_record = _with(_with(_OPF, 2, alpha=True), 6, capacity=-1.0)
    with pytest.raises(ParseError, match=r"^\$\.edges\[2\]\.alpha: expected float"):
        parse_instance(json.dumps(early_record))
    # Dimension faults are found on the whole instance, after every edge.
    late_dimension = _with(_with(_OPF, 2, nodes=[0, 1, 2]), 6, capacity=-1.0)
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[6\]: capacity"):
        parse_instance(json.dumps(late_dimension))


def test_column_rows_hold_integers_as_floats():
    doc = gen_maxflow(8, 0.5, 0)  # integer capacities
    instance = parse_instance(json.dumps(doc))
    (columns,) = instance.edges.columns
    assert columns.gain_type is LinearGain and columns.params[1].dtype == float
    assert [e.oracle.gain.capacity for e in instance.edges] == [float(e["params"]["capacity"]) for e in doc["edges"]]


# -- memory -------------------------------------------------------------------


def test_solving_a_parsed_opf_instance_builds_no_record(monkeypatch):
    instance = parse_instance(json.dumps(gen_opf(100, 0)))
    built = []
    record = TwoNodeColumns.record

    def counting(self, row):
        built.append(row)
        return record(self, row)

    monkeypatch.setattr(TwoNodeColumns, "record", counting)
    result = solve(instance)
    assert result.converged
    assert built == []
    instance.edges[5]
    assert built == [5]


def test_parsed_opf_instance_keeps_little_memory_per_edge():
    # A node pair and three gain parameters in columns, plus the table's
    # group and row index: about 58 bytes an edge of gen_opf(1000, 0),
    # against about 417 with five Python objects per edge.
    text = json.dumps(gen_opf(1000, 0))
    parse_instance(text)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        instance = parse_instance(text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert kept / instance.m <= 100
