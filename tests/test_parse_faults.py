"""Faults of a column-stored edge, named as a record would name them.

The reader stores the edges of each column kind as columns (a pool with
a penalty too, in a flagged group) and tests each field of a group at
once; when a test fails, every edge
is read as a record, which names the first fault in edge order.  The
table below holds the type and message of each fault as the per-edge
reader that the column reader replaced gave them (recorded at commit
e797b71), for every column kind, at the first, a middle and the last
edge of that kind in a document that mixes the column kinds with
records.  Since then a parameter fault names the field's path under
``params``, and a boolean in a pool field is a ``ParseError`` that
names its path.
"""

import copy
import json

import pytest

from convexflows.core import EdgeTable
from convexflows.io_cli import InstanceValidationError, ParseError, parse_instance

N = 12

# Each column kind: its params, its nodes (the same on each of its
# edges, so that a message names the same nodes at every position), and
# the field that the table corrupts.
KINDS = {
    "opf_line": ({"alpha": 16.0, "beta": 0.25, "capacity": 2.0}, [0, 1], "capacity"),
    "lossless": ({"capacity": 3.0}, [2, 3], "capacity"),
    "linear_gain": ({"gain": 0.5, "capacity": 2.0}, [4, 5], "gain"),
    "uniswap": ({"reserves": [100.0, 150.0], "weight": 0.5, "fee": 0.997}, [6, 7], "reserves"),
    "geometric_mean": ({"reserves": [100.0, 150.0, 120.0], "weights": [0.25, 0.25, 0.5], "fee": 1.0}, [8, 9, 10], "weights"),
}
_PENALTY = {"kind": "quadratic_penalty", "params": {}}
RECORDS = [
    {"kind": "piecewise_linear", "params": {"points": [[0.0, 0.0], [1.0, 1.5], [2.0, 2.0]]}, "nodes": [1, 11]},
    {"kind": "uniswap", "params": {"reserves": [100.0, 150.0]}, "nodes": [7, 11], "edge_utility": _PENALTY},
    {"kind": "opf_line", "params": {"alpha": 16.0, "beta": 0.25, "capacity": 1.0}, "nodes": [11, 0], "edge_utility": _PENALTY},
    {
        "kind": "geometric_mean",
        "params": {"reserves": [1.0, 2.0, 3.0], "weights": [0.25, 0.25, 0.5]},
        "nodes": [11, 2, 9],
        "edge_utility": _PENALTY,
    },
]


def _doc():
    """Four rounds of one edge of each column kind and one record."""
    edges = []
    for record in RECORDS:
        edges += [{"kind": tag, "params": copy.deepcopy(params), "nodes": list(nodes)} for tag, (params, nodes, _) in KINDS.items()]
        edges.append(copy.deepcopy(record))
    return {"version": 1, "n": N, "objective": {"kind": "linear_nonneg", "params": {"prices": [1.0] * N}}, "edges": edges}


# The column-stored edges of each kind, in edge order.
POSITIONS = {tag: [k for k, edge in enumerate(_doc()["edges"]) if edge["kind"] == tag and "edge_utility" not in edge] for tag in KINDS}

# Placeholders for the JSON literals that json.dumps does not write.
_LITERALS = {"@NaN@": "NaN", "@1e400@": "1e400"}


def _corrupt(doc, k, fault):
    edge = doc["edges"][k]
    params, nodes, name = edge["params"], edge["nodes"], KINDS[edge["kind"]][2]
    if fault == "missing":
        del params[name]
    elif fault == "node_out_of_range":
        nodes[1] = N
    elif fault == "repeated_node":
        nodes[1] = nodes[0]
    elif fault == "non_integer_node":
        nodes[1] = 1.5
    else:
        value = {"true": True, "string": "1.0", "nested_list": [1.0], "nan": "@NaN@", "1e400": "@1e400@", "huge_int": 10**400}[fault]
        # A list field gets the bad value as its second entry.
        if type(params[name]) is list:
            params[name][1] = value
        else:
            params[name] = value
    return doc


def _text(doc):
    text = json.dumps(doc)
    for mark, literal in _LITERALS.items():
        text = text.replace(json.dumps(mark), literal)
    return text


# (kind, fault, error type, message with the edge position as {k}).
FAULTS = [
    ("opf_line", "missing", ParseError, "$.edges[{k}].params: missing required field 'capacity'"),
    ("opf_line", "true", ParseError, "$.edges[{k}].params.capacity: expected float, got bool"),
    ("opf_line", "string", ParseError, "$.edges[{k}].params.capacity: expected float, got str"),
    ("opf_line", "nested_list", ParseError, "$.edges[{k}].params.capacity: expected float, got list"),
    ("opf_line", "nan", ParseError, "$: non-finite number NaN is not valid in an instance"),
    ("opf_line", "1e400", InstanceValidationError, "$.edges[{k}]: capacity must be positive and finite"),
    ("opf_line", "huge_int", InstanceValidationError, "$.edges[{k}]: capacity must be positive and finite"),
    ("opf_line", "node_out_of_range", InstanceValidationError, "$.edges[{k}].nodes: index out of range for n=12"),
    ("opf_line", "repeated_node", InstanceValidationError, "$.edges[{k}].nodes: duplicate node in incidence (0, 0)"),
    ("opf_line", "non_integer_node", ParseError, "$.edges[{k}].nodes: node indices must be integers"),
    ("lossless", "missing", ParseError, "$.edges[{k}].params: missing required field 'capacity'"),
    ("lossless", "true", ParseError, "$.edges[{k}].params.capacity: expected float, got bool"),
    ("lossless", "string", ParseError, "$.edges[{k}].params.capacity: expected float, got str"),
    ("lossless", "nested_list", ParseError, "$.edges[{k}].params.capacity: expected float, got list"),
    ("lossless", "nan", ParseError, "$: non-finite number NaN is not valid in an instance"),
    ("lossless", "1e400", InstanceValidationError, "$.edges[{k}]: capacity must be finite and exceed the lower input bound"),
    ("lossless", "huge_int", InstanceValidationError, "$.edges[{k}]: capacity must be finite and exceed the lower input bound"),
    ("lossless", "node_out_of_range", InstanceValidationError, "$.edges[{k}].nodes: index out of range for n=12"),
    ("lossless", "repeated_node", InstanceValidationError, "$.edges[{k}].nodes: duplicate node in incidence (2, 2)"),
    ("lossless", "non_integer_node", ParseError, "$.edges[{k}].nodes: node indices must be integers"),
    ("linear_gain", "missing", ParseError, "$.edges[{k}].params: missing required field 'gain'"),
    ("linear_gain", "true", ParseError, "$.edges[{k}].params.gain: expected float, got bool"),
    ("linear_gain", "string", ParseError, "$.edges[{k}].params.gain: expected float, got str"),
    ("linear_gain", "nested_list", ParseError, "$.edges[{k}].params.gain: expected float, got list"),
    ("linear_gain", "nan", ParseError, "$: non-finite number NaN is not valid in an instance"),
    ("linear_gain", "1e400", InstanceValidationError, "$.edges[{k}]: gain slope must be nonnegative and finite"),
    ("linear_gain", "huge_int", InstanceValidationError, "$.edges[{k}]: gain slope must be nonnegative and finite"),
    ("linear_gain", "node_out_of_range", InstanceValidationError, "$.edges[{k}].nodes: index out of range for n=12"),
    ("linear_gain", "repeated_node", InstanceValidationError, "$.edges[{k}].nodes: duplicate node in incidence (4, 4)"),
    ("linear_gain", "non_integer_node", ParseError, "$.edges[{k}].nodes: node indices must be integers"),
    ("uniswap", "missing", ParseError, "$.edges[{k}].params: missing required field 'reserves'"),
    ("uniswap", "true", ParseError, "$.edges[{k}].params.reserves[1]: expected a number, got bool"),
    ("uniswap", "string", InstanceValidationError, "$.edges[{k}]: reserves must be a list of numbers, got [100.0, '1.0']"),
    ("uniswap", "nested_list", InstanceValidationError, "$.edges[{k}]: reserves must be a list of numbers, got [100.0, [1.0]]"),
    ("uniswap", "nan", ParseError, "$: non-finite number NaN is not valid in an instance"),
    ("uniswap", "1e400", InstanceValidationError, "$.edges[{k}]: reserves must be positive and finite, got [100.0, inf]"),
    ("uniswap", "huge_int", InstanceValidationError, "$.edges[{k}]: reserves must be positive and finite, got [100.0, inf]"),
    ("uniswap", "node_out_of_range", InstanceValidationError, "$.edges[{k}].nodes: index out of range for n=12"),
    ("uniswap", "repeated_node", InstanceValidationError, "$.edges[{k}].nodes: duplicate node in incidence (6, 6)"),
    ("uniswap", "non_integer_node", ParseError, "$.edges[{k}].nodes: node indices must be integers"),
    ("geometric_mean", "missing", ParseError, "$.edges[{k}].params: missing required field 'weights'"),
    ("geometric_mean", "true", ParseError, "$.edges[{k}].params.weights[1]: expected a number, got bool"),
    ("geometric_mean", "string", InstanceValidationError, "$.edges[{k}]: weights must be a list of numbers, got [0.25, '1.0', 0.5]"),
    ("geometric_mean", "nested_list", InstanceValidationError, "$.edges[{k}]: weights must be a list of numbers, got [0.25, [1.0], 0.5]"),
    ("geometric_mean", "nan", ParseError, "$: non-finite number NaN is not valid in an instance"),
    ("geometric_mean", "1e400", InstanceValidationError, "$.edges[{k}]: weights must be positive and sum to one"),
    ("geometric_mean", "huge_int", InstanceValidationError, "$.edges[{k}]: weights must be positive and sum to one"),
    ("geometric_mean", "node_out_of_range", InstanceValidationError, "$.edges[{k}].nodes: index out of range for n=12"),
    ("geometric_mean", "repeated_node", InstanceValidationError, "$.edges[{k}].nodes: duplicate node in incidence (8, 8, 10)"),
    ("geometric_mean", "non_integer_node", ParseError, "$.edges[{k}].nodes: node indices must be integers"),
]


def _assert_fault(text, error, message):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert type(info.value) is error and str(info.value) == message


def test_the_mixed_document_parses_to_columns_and_records():
    instance = parse_instance(_text(_doc()))
    assert isinstance(instance.edges, EdgeTable)
    groups = [
        (columns.kind.__name__, columns.nodes.shape[1], len(columns), columns.penalized) for columns in instance.edges.columns
    ]
    # lossless and linear_gain edges share the LinearGain group, and a
    # penalized pool is a row of a flagged group of its kind and size.
    assert groups == [
        ("PowerLossGain", 2, 4, False),
        ("LinearGain", 2, 8, False),
        ("TwoAssetGeometricPool", 2, 4, False),
        ("GeometricMeanPool", 3, 4, False),
        ("TwoAssetGeometricPool", 2, 1, True),
        ("GeometricMeanPool", 3, 1, True),
    ]
    # The piecewise-linear edge and the penalized line stay records.
    assert [k for k, _ in instance.edge_records()] == [5, 17]
    assert instance.utility_edges == (11, 17, 23)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("tag, fault, error, message", FAULTS, ids=[f"{tag}-{fault}" for tag, fault, *_ in FAULTS])
def test_a_fault_is_named_as_its_record_names_it(tag, fault, error, message, where):
    k = POSITIONS[tag][{"first": 0, "middle": 2, "last": -1}[where]]
    _assert_fault(_text(_corrupt(_doc(), k, fault)), error, message.format(k=k))


def test_a_value_fault_before_a_structural_fault_is_named_first():
    # A value fault is found by a group's column-wise checks, a structural
    # one by its type or node tests; the earlier edge is named either way.
    value_first = _doc()
    value_first["edges"][0]["params"]["capacity"] = -1.0
    _corrupt(value_first, POSITIONS["lossless"][-1], "node_out_of_range")
    _assert_fault(_text(value_first), InstanceValidationError, "$.edges[0]: capacity must be positive and finite")
    structural_first = _corrupt(_doc(), POSITIONS["lossless"][0], "non_integer_node")
    structural_first["edges"][POSITIONS["uniswap"][-1]]["params"]["fee"] = 1.5
    _assert_fault(_text(structural_first), ParseError, "$.edges[1].nodes: node indices must be integers")
    # A value fault in a column row before a record's fault.
    before_record = _doc()
    before_record["edges"][POSITIONS["geometric_mean"][0]]["params"]["fee"] = 0.0
    del before_record["edges"][5]["params"]["points"]
    _assert_fault(_text(before_record), InstanceValidationError, "$.edges[4]: fee must lie in (0, 1], got 0.0")
