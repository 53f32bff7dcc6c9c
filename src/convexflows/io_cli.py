"""Instance files, problem generators, and the command-line interface.

Instances travel as self-describing JSON documents with a closed set of
``kind`` tags; no executable content.  Generators are pure functions of
``(size, seed)``.  The CLI wraps solve / generate / check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .core import (
    _KERNEL_KINDS,
    EdgeColumns,
    EdgeIncidence,
    EdgeTable,
    Hyperedge,
    PrimalPoint,
    ProblemInstance,
    _bundled,
    check_feasibility,
    primal_objective,
)
from .edges import (
    FisherBasketEdge,
    GainFunction,
    GeometricMeanPool,
    InvalidEdgeError,
    LinearGain,
    PiecewiseLinearGain,
    PowerLossGain,
    TwoAssetGeometricPool,
    TwoNodeEdge,
)
from .objectives import (
    FisherObjective,
    LinearNonnegObjective,
    MaxFlowObjective,
    MinCostObjective,
    OpfQuadraticObjective,
    QuadraticPenalty,
)
from .solver import InfeasibleStartError, SolveResult, SolverConfig, UnboundedDualError, solve

__all__ = [
    "ParseError",
    "InstanceValidationError",
    "parse_instance",
    "serialize_instance",
    "instance_from_dict",
    "instance_to_dict",
    "gen_opf",
    "gen_cfmm",
    "gen_maxflow",
    "fisher_instance",
    "FisherLayout",
    "allocations_from_flows",
    "fisher_equilibrium_prices",
    "result_to_dict",
    "main",
]

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed instance document; the message carries the JSON path."""


class InstanceValidationError(ParseError):
    """Structurally valid document describing an inconsistent instance."""


def _get(obj: dict, key: str, path: str, kind=None):
    try:
        value = obj[key]
    except KeyError:
        raise ParseError(f"{path}: missing required field '{key}'") from None
    except TypeError:
        raise ParseError(f"{path}: expected dict, got {type(obj).__name__}") from None
    # An exact type test: JSON's true and false are neither integers nor
    # numbers here; an integer is read as a float where one belongs.
    if kind is not None and type(value) is not kind:
        if kind is float and type(value) is int:
            return _to_float(value, path)
        raise ParseError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _params(doc: dict, path: str) -> dict:
    params = doc.get("params", {})
    if type(params) is not dict:
        raise ParseError(f"{path}.params: expected dict, got {type(params).__name__}")
    return params


def _to_float(value, path: str) -> float:
    """A JSON number as a Python float; true and false are not numbers."""
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            # Past the float range an integer reads as infinite, like
            # 1e400, and is rejected where a finite number is needed.
            return math.inf if value > 0 else -math.inf
    raise ParseError(f"{path}: expected a number, got {type(value).__name__}")


def _floats(value, path: str) -> np.ndarray:
    if type(value) is not list:
        raise ParseError(f"{path}: expected a list of numbers, got {type(value).__name__}")
    return np.array([_to_float(v, path) for v in value], dtype=float)


def _build_objective(doc: dict, n: int, path: str):
    kind = _get(doc, "kind", path, str)
    params = _params(doc, path)
    if kind == "linear_nonneg":
        prices = _floats(_get(params, "prices", f"{path}.params"), f"{path}.params.prices")
        if len(prices) != n:
            raise InstanceValidationError(f"{path}: prices length {len(prices)} != n={n}")
        return LinearNonnegObjective(prices)
    if kind == "opf_quadratic":
        demands = _floats(_get(params, "demands", f"{path}.params"), f"{path}.params.demands")
        if len(demands) != n:
            raise InstanceValidationError(f"{path}: demands length {len(demands)} != n={n}")
        return OpfQuadraticObjective(demands)
    if kind == "maxflow":
        return MaxFlowObjective(n, source=params.get("source", 0), sink=params.get("sink"))
    if kind == "mincost":
        return MinCostObjective(
            n,
            _get(params, "target", f"{path}.params", float),
            source=params.get("source", 0),
            sink=params.get("sink"),
        )
    if kind == "fisher":
        budgets = _floats(_get(params, "budgets", f"{path}.params"), f"{path}.params.budgets")
        n_goods = _get(params, "n_goods", f"{path}.params", int)
        if len(budgets) + n_goods != n:
            raise InstanceValidationError(f"{path}: buyers + goods != n={n}")
        return FisherObjective(budgets, n_goods)
    raise ParseError(f"{path}.kind: unknown objective kind '{kind}'")


def _build_edge_oracle(kind: str, params: dict, path: str):
    """The oracle of an edge whose kind is not a column kind."""
    if kind == "piecewise_linear":
        points = _get(params, "points", f"{path}.params", list)
        where = f"{path}.params.points"
        if not all(type(point) is list and len(point) == 2 for point in points):
            raise ParseError(f"{where}: expected a list of [input, output] pairs")
        return TwoNodeEdge(
            PiecewiseLinearGain([(_to_float(w, where), _to_float(h, where)) for w, h in points])
        )
    if kind == "fisher_basket":
        return FisherBasketEdge(_floats(_get(params, "valuations", f"{path}.params"), f"{path}.params.valuations"))
    raise ParseError(f"{path}.kind: unknown edge kind '{kind}'")


def _checked_edge(edge_doc, n: int, path: str) -> tuple[str, dict, list]:
    """Kind, params and nodes of an edge document, with path-annotated errors."""
    kind = _get(edge_doc, "kind", path, str)
    params = _params(edge_doc, path)
    nodes = _get(edge_doc, "nodes", path, list)
    if any(type(j) is not int for j in nodes):
        raise ParseError(f"{path}.nodes: node indices must be integers")
    if any(j < 0 or j >= n for j in nodes):
        raise InstanceValidationError(f"{path}.nodes: index out of range for n={n}")
    return kind, params, nodes


class _Field(NamedTuple):
    """A JSON field of a column kind's edges: its name, its value when it
    is missing (``None``: the field is required), and its shape: a
    ``"number"`` (one argument), a ``"pair"`` of numbers (one argument
    each), or a list of one number ``"per node"`` (one argument, an ``m
    x d`` column)."""

    name: str
    default: float | None = None
    shape: str = "number"


# The document kinds of ``core._KERNEL_KINDS``, read and written here
# and nowhere else: the type whose kernel answers them, and the arguments
# of its ``row_oracle`` in order, each a JSON field or a float constant.
# A kind without a per-node field takes two nodes.
_COLUMN_KINDS = {
    "opf_line": (PowerLossGain, (_Field("alpha"), _Field("beta"), _Field("capacity"))),
    "lossless": (LinearGain, (1.0, _Field("capacity"), 0.0)),
    "linear_gain": (LinearGain, (_Field("gain"), _Field("capacity"), 0.0)),
    "uniswap": (TwoAssetGeometricPool, (_Field("reserves", shape="pair"), _Field("weight", 0.5), _Field("fee", 1.0))),
    "geometric_mean": (
        GeometricMeanPool,
        (_Field("reserves", shape="per node"), _Field("weights", shape="per node"), _Field("fee", 1.0)),
    ),
}


def _read_oracle(kind: type, fields, params: dict, path: str):
    """The oracle of one edge of a column kind, its fields read one by
    one from ``params`` (at JSON path ``path``): a gain's numbers in
    order, so that a missing or non-numeric field raises the error of
    :func:`_get` (an integer reads as a float), and a pool's fields as
    its constructor takes them, so that it reads the numbers and names
    the first fault, except that a number field that holds no JSON number
    is a ``ParseError`` naming its path, and so is a boolean in a list of
    numbers (JSON's true and false are not numbers)."""
    if issubclass(kind, GainFunction):
        return kind.row_oracle(*[field if type(field) is float else _get(params, field.name, path, float) for field in fields])
    args = [_get(params, name, path) if default is None else params.get(name, default) for name, default, _ in fields]
    for (name, _, shape), value in zip(fields, args):
        if shape == "number" and type(value) not in (int, float):
            raise ParseError(f"{path}.{name}: expected a number, got {type(value).__name__}")
        if shape != "number" and type(value) is list and bool in map(type, value):
            raise ParseError(f"{path}.{name}[{[type(v) for v in value].index(bool)}]: expected a number, got bool")
    return kind(*args)


def _record(edge_doc, n: int, path: str) -> Hyperedge:
    """An edge document read as a record; the first fault of the edge
    raises, with its JSON path."""
    kind, params, nodes = _checked_edge(edge_doc, n, path)
    column = _COLUMN_KINDS.get(kind)
    try:
        if column is None:
            oracle = _build_edge_oracle(kind, params, path)
        else:
            oracle = _read_oracle(*column, params, f"{path}.params")
    except InvalidEdgeError as exc:
        raise InstanceValidationError(f"{path}: {exc}") from exc
    try:
        incidence = EdgeIncidence(tuple(nodes))
    except ValueError as exc:
        raise InstanceValidationError(f"{path}.nodes: {exc}") from exc
    utility = None
    u_doc = edge_doc.get("edge_utility")
    if u_doc is not None:
        u_kind = _get(u_doc, "kind", f"{path}.edge_utility", str)
        if u_kind != "quadratic_penalty":
            raise ParseError(f"{path}.edge_utility.kind: unknown kind '{u_kind}'")
        utility = QuadraticPenalty(len(nodes))
    return Hyperedge(incidence=incidence, oracle=oracle, utility=utility)


def _float_column(values: list) -> np.ndarray | None:
    """JSON numbers as one float array, an integer read as a float; None
    if a value is not a number or is an integer past the float range
    (which no field accepts)."""
    types = set(map(type, values))
    if types <= {float}:
        return np.array(values, dtype=float)
    if types <= {float, int}:
        try:
            return np.array(list(map(float, values)))
        except OverflowError:
            return None
    return None


def _read_group(fields, docs: list, d: int, n: int):
    """``(nodes, columns)`` of edges of one column kind on ``d`` nodes
    each, read field by field: an ``m x d`` node array and the
    ``row_oracle`` argument columns.  None unless every node is an
    integer in ``range(n)`` and every field holds numbers of its shape;
    whatever builds the edges checks the rest."""
    nodes = [doc["nodes"] for doc in docs]
    params = [doc.get("params") for doc in docs]
    if set(map(type, nodes)) != {list} or set(map(type, params)) != {dict}:
        return None
    flat = list(chain.from_iterable(nodes))
    if not set(map(type, flat)) <= {int}:
        return None
    try:
        nodes = np.array(flat, dtype=np.intp).reshape(-1, d)
    except OverflowError:  # an index past the machine's integers
        return None
    if nodes.min() < 0 or nodes.max() >= n:
        return None
    m = len(docs)
    columns = []
    for field in fields:
        if type(field) is float:
            columns.append(np.full(m, field))
            continue
        name, default, shape = field
        values = [p.get(name, default) for p in params]
        if shape != "number":
            width = 2 if shape == "pair" else d
            if set(map(type, values)) != {list} or set(map(len, values)) != {width}:
                return None
            values = list(chain.from_iterable(values))
        column = _float_column(values)
        if column is None:
            return None
        if shape == "number":
            columns.append(column)
        elif shape == "pair":
            columns.extend(column.reshape(m, 2).T)
        else:
            columns.append(column.reshape(m, d))
    return nodes, columns


def _penalties(docs: list) -> bool:
    """Whether every edge's ``edge_utility`` is a quadratic penalty."""
    utilities = [doc["edge_utility"] for doc in docs]
    return set(map(type, utilities)) == {dict} and [u.get("kind") for u in utilities].count("quadratic_penalty") == len(docs)


def _read_table(edges_doc: list, n: int) -> EdgeTable | None:
    """The edge table of an edge list, or None when a test fails.

    One pass sorts the edges by kind, node count and utility.  The edges
    of a column kind are read per key, field by field
    (:func:`_read_group`), into the columns of their kernel type, size and
    penalty, which :meth:`~convexflows.core.EdgeTable.pack` groups and
    numbers: a pool's penalty is its group's flag, and a two-node edge
    with a penalty, which no kernel answers, is read as a record.  Every
    other edge is read as a record (:func:`_record`), in edge order, once
    every edge of a column kind has passed its tests.  None means that an
    edge of a column kind is faulty, or that its oracle cannot take its
    nodes; the caller names the fault.
    """
    if not set(map(type, edges_doc)) <= {dict}:
        return None
    by_key: dict[tuple, list[int]] = defaultdict(list)
    try:
        for k, edge_doc in enumerate(edges_doc):
            by_key[edge_doc.get("kind"), len(edge_doc.get("nodes")), edge_doc.get("edge_utility") is not None].append(k)
    except TypeError:  # a kind that cannot be a key, or nodes without a length
        return None
    parts = []  # (positions, columns) of the edges read field by field
    others = []  # positions of the edges read one by one
    for (tag, d, penalized), positions in by_key.items():
        column = _COLUMN_KINDS.get(tag)
        if column is None or not _bundled(column[0], penalized):
            others += positions
            continue
        kind, fields = column
        per_node = any(type(field) is not float and field.shape == "per node" for field in fields)
        docs = list(map(edges_doc.__getitem__, positions))
        if not (d == 2 or (d > 2 and per_node)) or (penalized and not _penalties(docs)):
            return None
        read = _read_group(fields, docs, d, n)
        if read is None:
            return None
        try:
            columns = EdgeColumns(kind, *read, penalized)
        except ValueError:  # a node repeated in an edge
            return None
        if kind.invalid_rows(*columns.params).any():
            return None
        parts.append((np.array(positions, dtype=np.intp), columns))
    records = [(k, _record(edges_doc[k], n, f"$.edges[{k}]")) for k in sorted(others)]
    return EdgeTable.pack(records, parts)


def instance_from_dict(doc: dict) -> ProblemInstance:
    """Build an instance from its document; errors carry the JSON path.

    An ``opf_line``, ``lossless``, ``linear_gain``, ``uniswap`` or
    ``geometric_mean`` edge on distinct nodes, one per asset of a pool,
    is read field by field into the columns of its kind, size and penalty
    (an :class:`~convexflows.core.EdgeTable`, up to 255 groups), unless
    it is a two-node edge with a penalty; every other edge becomes a
    record.  When a test of that reader fails, every edge is read as a
    record, in edge order, which names the first fault with the message
    its record gives, and the instance packs them as any list of edges.
    """
    version = _get(doc, "version", "$", int)
    if version != FORMAT_VERSION:
        raise ParseError(f"$.version: unsupported version {version}")
    n = _get(doc, "n", "$", int)
    if n < 1:
        raise InstanceValidationError("$.n: need at least one node")
    try:
        objective = _build_objective(_get(doc, "objective", "$", dict), n, "$.objective")
    except ParseError:
        raise
    except ValueError as exc:
        raise InstanceValidationError(f"$.objective: {exc}") from exc
    edges_doc = _get(doc, "edges", "$", list)
    edges = _read_table(edges_doc, n)
    if edges is None:
        # A fault that no record raises (an oracle that does not fit its
        # nodes) is the instance's, named below.
        edges = [_record(edge_doc, n, f"$.edges[{k}]") for k, edge_doc in enumerate(edges_doc)]
    try:
        return ProblemInstance(n=n, edges=edges, net_objective=objective)
    except ValueError as exc:
        raise InstanceValidationError(f"$: {exc}") from exc


def _reject_constant(name: str):
    raise ParseError(f"$: non-finite number {name} is not valid in an instance")


def parse_instance(text: str) -> ProblemInstance:
    """Parse an instance document; errors carry the offending JSON path.

    The ``NaN`` and ``Infinity`` literals that Python's JSON reader
    accepts are rejected.  Parsing builds trees of new objects, not
    reference cycles, so the cyclic garbage collector is paused while it
    runs and left as the caller had it.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ParseError(f"$: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ParseError("$: expected a JSON object")
        return instance_from_dict(doc)
    finally:
        if gc_was_enabled:
            gc.enable()


def _objective_to_dict(objective) -> dict:
    if isinstance(objective, LinearNonnegObjective):
        return {"kind": "linear_nonneg", "params": {"prices": objective.c.tolist()}}
    if isinstance(objective, OpfQuadraticObjective):
        return {"kind": "opf_quadratic", "params": {"demands": objective.demands.tolist()}}
    if isinstance(objective, MaxFlowObjective):
        c = objective.conservation
        return {"kind": "maxflow", "params": {"source": c.source, "sink": c.sink}}
    if isinstance(objective, MinCostObjective):
        c = objective.conservation
        return {
            "kind": "mincost",
            "params": {"target": c.target, "source": c.source, "sink": c.sink},
        }
    if isinstance(objective, FisherObjective):
        return {
            "kind": "fisher",
            "params": {"budgets": objective.budgets.tolist(), "n_goods": objective.n_goods},
        }
    raise ValueError(f"cannot serialize objective type {type(objective).__name__}")


def _row_doc(kind: type, row) -> tuple[str, dict]:
    """The edge kind and params of one row of ``kind.row_oracle``
    arguments: those of the first column kind of ``kind`` whose constants
    the row holds (a linear gain of slope 1 is ``lossless``)."""
    for tag, (tag_kind, fields) in _COLUMN_KINDS.items():
        if not issubclass(kind, tag_kind):
            continue
        params, args = {}, iter(row)
        for field in fields:
            if type(field) is float:
                if next(args) != field:
                    break
            elif field.shape == "pair":
                params[field.name] = [next(args), next(args)]
            elif field.shape == "per node":
                params[field.name] = list(next(args))
            else:
                params[field.name] = next(args)
        else:
            return tag, params
    # A document has no field for, say, a linear gain's lower input bound.
    raise ValueError(f"cannot serialize {kind.__name__}{tuple(row)}: no edge kind holds these arguments")


def _oracle_to_dict(oracle) -> tuple[str, dict]:
    # A bundled gain's arguments sit on the gain, a pool's on itself.
    owner = oracle.gain if isinstance(oracle, TwoNodeEdge) else oracle
    if isinstance(owner, _KERNEL_KINDS):
        return _row_doc(type(owner), owner.row_params())
    if isinstance(owner, PiecewiseLinearGain):
        points = [[float(w), float(h)] for w, h in zip(owner._ws, owner._hs)]
        return "piecewise_linear", {"points": points}
    if isinstance(oracle, TwoNodeEdge):
        raise ValueError(f"cannot serialize gain type {type(owner).__name__}")
    if isinstance(oracle, FisherBasketEdge):
        return "fisher_basket", {"valuations": oracle.valuations.tolist()}
    raise ValueError(f"cannot serialize edge type {type(oracle).__name__}")


def _record_to_dict(edge: Hyperedge) -> dict:
    kind, params = _oracle_to_dict(edge.oracle)
    doc = {"kind": kind, "params": params, "nodes": list(edge.incidence.nodes)}
    if edge.utility is not None:
        doc["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
    return doc


def _columns_to_dicts(columns: EdgeColumns) -> list[dict]:
    """The documents of a column group's rows, in row order, written
    from its columns, each with the group's penalty if it has one."""
    docs = []
    rows = zip(*(column.tolist() for column in columns.params))
    for row, nodes in zip(rows, columns.nodes.tolist()):
        kind, params = _row_doc(columns.kind, row)
        docs.append({"kind": kind, "params": params, "nodes": nodes})
        if columns.penalized:
            docs[-1]["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
    return docs


def instance_to_dict(instance: ProblemInstance) -> dict:
    """The document of an instance; a column group is written from its
    columns, with no record built."""
    edges = instance.edges
    # Each group's documents in its row order, dealt out in edge order.
    groups = [iter(list(map(_record_to_dict, edges.records)))]
    groups += [iter(_columns_to_dicts(columns)) for columns in edges.columns]
    docs = [next(groups[g]) for g in edges.group.tolist()]
    return {
        "version": FORMAT_VERSION,
        "n": instance.n,
        "objective": _objective_to_dict(instance.net_objective),
        "edges": docs,
    }


def serialize_instance(instance: ProblemInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2, sort_keys=True) + "\n"


# -- generators ----------------------------------------------------------


def gen_maxflow(n: int, density: float, seed: int) -> dict:
    """Random directed max-flow instance with a guaranteed source-sink path."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if not (0.0 < density <= 1.0):
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    arcs: dict[tuple[int, int], int] = {}

    interior = rng.permutation(np.arange(1, n - 1))
    length = int(rng.integers(0, len(interior) + 1))
    path = [0, *interior[:length].tolist(), n - 1]
    for u, v in zip(path[:-1], path[1:]):
        arcs[(u, v)] = int(rng.integers(1, 11))
    for u in range(n):
        for v in range(n):
            if u == v or (u, v) in arcs:
                continue
            if rng.random() < density:
                arcs[(u, v)] = int(rng.integers(1, 11))

    edges = [
        {"kind": "lossless", "params": {"capacity": cap}, "nodes": [u, v]}
        for (u, v), cap in sorted(arcs.items())
    ]
    return {
        "version": FORMAT_VERSION,
        "n": n,
        "objective": {"kind": "maxflow", "params": {"source": 0, "sink": n - 1}},
        "edges": edges,
    }


def gen_opf(n: int, seed: int) -> dict:
    """Random power network: local 3-nearest-neighbor lines plus a few
    long-range ones, all bidirectional, with the standard loss family."""
    if n < 2:
        raise ValueError("need at least two nodes")
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))

    lines: set[tuple[int, int]] = set()
    for i in range(n):
        dists = np.linalg.norm(points - points[i], axis=1)
        order = np.argsort(dists)
        neighbors = [int(j) for j in order if j != i][: min(3, n - 1)]
        for j in neighbors:
            lines.add((min(i, j), max(i, j)))
    available = n * (n - 1) // 2 - len(lines)
    n_long = min(math.ceil(0.05 * n), available)
    added = 0
    while added < n_long:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in lines:
            continue
        lines.add(key)
        added += 1

    edges = []
    for i, j in sorted(lines):
        capacity = float(rng.choice([1.0, 2.0, 3.0]))
        params = {"alpha": 16.0, "beta": 0.25, "capacity": capacity}
        edges.append({"kind": "opf_line", "params": dict(params), "nodes": [i, j]})
        edges.append({"kind": "opf_line", "params": dict(params), "nodes": [j, i]})
    demands = rng.choice([0.5, 1.0, 2.0], size=n)
    return {
        "version": FORMAT_VERSION,
        "n": n,
        "objective": {"kind": "opf_quadratic", "params": {"demands": demands.tolist()}},
        "edges": edges,
    }


def gen_cfmm(m: int, seed: int, edge_penalties: bool = False) -> dict:
    """Random market network: two-asset pools (plain and weighted) and
    three-asset pools over ``ceil(2 sqrt(m))`` assets, unit reference prices."""
    if m < 1:
        raise ValueError("need at least one market")
    rng = np.random.default_rng(seed)
    n = math.ceil(2.0 * math.sqrt(m))
    edges = []
    for _ in range(m):
        kind = int(rng.choice(3, p=[0.4, 0.4, 0.2]))
        if kind == 2 and n < 3:
            kind = 0
        size = 3 if kind == 2 else 2
        nodes = [int(v) for v in rng.choice(n, size=size, replace=False)]
        reserves = rng.uniform(100.0, 200.0, size=size).tolist()
        if kind == 0:
            doc = {
                "kind": "uniswap",
                "params": {"reserves": reserves, "weight": 0.5, "fee": 1.0},
                "nodes": nodes,
            }
        elif kind == 1:
            doc = {
                "kind": "uniswap",
                "params": {"reserves": reserves, "weight": 0.8, "fee": 1.0},
                "nodes": nodes,
            }
        else:
            doc = {
                "kind": "geometric_mean",
                "params": {"reserves": reserves, "weights": [1.0 / 3.0] * 3, "fee": 1.0},
                "nodes": nodes,
            }
        if edge_penalties:
            doc["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
        edges.append(doc)
    return {
        "version": FORMAT_VERSION,
        "n": n,
        "objective": {"kind": "linear_nonneg", "params": {"prices": [1.0] * n}},
        "edges": edges,
    }


# -- bundled market fixture ------------------------------------------------


@dataclass
class FisherLayout:
    """Node and edge layout of a bipartite linear Fisher instance."""

    n_buyers: int
    n_goods: int
    pairs: list[tuple[int, int]] = field(default_factory=list)  # (buyer, good) per edge

    def buyer_node(self, i: int) -> int:
        return i

    def good_node(self, j: int) -> int:
        return self.n_buyers + j


def fisher_instance(budgets, valuations) -> tuple[ProblemInstance, FisherLayout]:
    """Linear Fisher market as a flow instance.

    Buyers are nodes ``0..n_b-1``, goods ``n_b..n_b+n_g-1``.  Each
    positive valuation becomes a two-node edge from the good to the
    buyer with gain equal to the valuation and capacity one (at most one
    unit of the good exists); segment recovery on these edges yields the
    equilibrium allocations.
    """
    budgets = np.asarray(budgets, dtype=float)
    valuations = np.asarray(valuations, dtype=float)
    n_b, n_g = valuations.shape
    if len(budgets) != n_b:
        raise ValueError("one budget per buyer required")
    layout = FisherLayout(n_buyers=n_b, n_goods=n_g)
    edges = []
    for i in range(n_b):
        for j in range(n_g):
            if valuations[i, j] <= 0.0:
                continue
            edges.append(
                Hyperedge(
                    incidence=EdgeIncidence((layout.good_node(j), layout.buyer_node(i))),
                    oracle=TwoNodeEdge(LinearGain(slope=float(valuations[i, j]), capacity=1.0)),
                )
            )
            layout.pairs.append((i, j))
    instance = ProblemInstance(
        n=n_b + n_g, edges=edges, net_objective=FisherObjective(budgets, n_g)
    )
    return instance, layout


def allocations_from_flows(layout: FisherLayout, flows) -> np.ndarray:
    """Buyer-by-good allocation matrix from recovered edge flows."""
    alloc = np.zeros((layout.n_buyers, layout.n_goods))
    for (i, j), flow in zip(layout.pairs, flows):
        alloc[i, j] = -float(flow[0])
    return alloc


def fisher_equilibrium_prices(node_prices, valuations, layout: FisherLayout) -> np.ndarray:
    """Equilibrium good prices from a solved dual point.

    The dual optimum is flat in a good's price whenever the good sells
    entirely to one buyer; complementary slackness picks the endpoint
    where no buyer's value-per-money strictly exceeds the price:
    ``mu_j = max_i nu_i * v_ij``.
    """
    buyer_prices = np.asarray(node_prices, dtype=float)[: layout.n_buyers]
    valuations = np.asarray(valuations, dtype=float)
    return np.max(buyer_prices[:, None] * valuations, axis=0)


# -- CLI -------------------------------------------------------------------


def result_to_dict(result: SolveResult) -> dict:
    return {
        "dual_value": result.dual_value,
        "primal_value": result.primal_value,
        "duality_gap": result.duality_gap,
        "relative_gap": result.relative_gap,
        "converged": result.converged,
        "status": result.status,
        "iterations": result.iterations,
        "node_prices": result.dual_point.node_prices.tolist(),
        "edge_prices": [eta.tolist() for eta in result.dual_point.edge_prices],
        "flows": [x.tolist() for x in result.flows],
        "net_flow": result.net_flow.tolist(),
    }


def _read_instance(path: str) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _cmd_solve(args) -> int:
    instance = _read_instance(args.instance)
    config = SolverConfig(grad_tol=args.tol, max_iter=args.max_iter)
    # A start outside the dual's domain or an unbounded edge subproblem
    # ends the solve with no result; report it as a status, not a crash.
    try:
        result = solve(instance, config=config)
    except InfeasibleStartError as exc:
        print(f"status=infeasible_start {exc}")
        return 2
    except UnboundedDualError as exc:
        print(f"status=unbounded {exc}")
        return 2
    if args.trace:
        result.trace.to_csv(args.trace)
    if args.out:
        # JSON has no infinities: a non-finite value (say, the -inf primal
        # value of an infeasible recovered point) is written as null.
        doc = {
            key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in result_to_dict(result).items()
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, allow_nan=False)
            handle.write("\n")
    print(
        f"status={result.status} iterations={result.iterations} "
        f"dual={result.dual_value:.10g} primal={result.primal_value:.10g} "
        f"rel_gap={result.relative_gap:.3e}"
    )
    certified = result.converged or result.relative_gap <= args.tol
    return 0 if certified and math.isfinite(result.primal_value) else 2


def _cmd_generate(args) -> int:
    if args.family == "opf":
        doc = gen_opf(args.size, args.seed)
    elif args.family == "cfmm":
        doc = gen_cfmm(args.size, args.seed, edge_penalties=args.edge_penalties)
    else:
        doc = gen_maxflow(args.size, args.density, args.seed)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _cmd_check(args) -> int:
    if not 0 < args.gap_tol < math.inf:
        raise ValueError(f"gap-tol must be positive and finite, got {args.gap_tol!r}")
    instance = _read_instance(args.instance)
    with open(args.result, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    path = args.result
    flows = [_floats(x, f"{path}.flows[{k}]") for k, x in enumerate(_get(doc, "flows", path, list))]
    net_flow = _floats(_get(doc, "net_flow", path), f"{path}.net_flow")
    dual_value = _get(doc, "dual_value", path, float)
    point = PrimalPoint(edge_flows=flows, net_flow=net_flow)
    report = check_feasibility(instance, point, args.tol)
    primal = primal_objective(instance, point, tol=args.tol)
    gap = dual_value - primal if math.isfinite(primal) else math.inf
    rel_gap = gap / (1.0 + abs(dual_value))
    ok = (
        report.ok
        and math.isfinite(primal)
        and rel_gap >= -args.tol
        and rel_gap <= args.gap_tol
    )
    print(
        f"feasible={report.ok} net_residual={report.net_flow_residual:.3e} "
        f"primal={primal:.10g} dual={dual_value:.10g} rel_gap={rel_gap:.3e} "
        f"=> {'OK' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexflows", description="Convex network flow solver over hypergraphs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--trace", help="write per-iteration CSV trace")
    p_solve.add_argument("--tol", type=float, default=1e-7)
    p_solve.add_argument("--max-iter", type=int, default=1000)
    p_solve.add_argument("--out", help="write the result JSON")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("generate", help="generate a random instance")
    p_gen.add_argument("family", choices=["opf", "cfmm", "maxflow"])
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--density", type=float, default=0.3, help="maxflow arc density")
    p_gen.add_argument("--edge-penalties", action="store_true", help="cfmm: quadratic edge penalties")
    p_gen.add_argument("-o", "--output", default="-")
    p_gen.set_defaults(func=_cmd_generate)

    p_check = sub.add_parser("check", help="verify a result file against its instance")
    p_check.add_argument("instance")
    p_check.add_argument("result")
    p_check.add_argument("--tol", type=float, default=1e-6)
    p_check.add_argument("--gap-tol", type=float, default=1e-4)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
