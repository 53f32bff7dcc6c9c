"""Hypergraph problem model: incidences, net flows, objective evaluation.

A problem instance is a hypergraph with ``n`` nodes and ``m`` hyperedges.
Each hyperedge carries a flow vector in its own local coordinates; an
incidence list maps local coordinates to global node indices.  The net
flow at a node is the sum of the local flows scattered onto it.  Positive
entries mean flow out of an edge (into a node), negative entries mean
flow into an edge.

Incidences are stored as index lists, never as dense matrices: typical
instances have far more edges than nodes, and every incidence operation
is a gather or scatter loop.  An incidence keeps only its node tuple, in
a slotted record like the edge that holds it: ``gather`` indexes with
the tuple on demand.  An instance's incidences read as one node array
over the concatenated edge nodes, in edge order, and one offsets array
(:class:`Incidences`), and the solver and recovery index with those.

A solve's per-edge vectors (its flows and edge prices) are laid out the
same way: one float buffer and the same offsets (:class:`EdgeVectors`).

An instance, parsed or built by hand, keeps its bundled edges (every
``opf_line``, ``lossless``, ``linear_gain``, ``uniswap`` and
``geometric_mean`` edge: an oracle, or a ``TwoNodeEdge``'s gain, of
exactly a kind of ``_KERNEL_KINDS``; a pool with or without the
quadratic penalty, a gain without one) as columns, one
:class:`EdgeColumns` per kind, edge size and penalty: an ``m x d`` node
array, one array per constructor argument and a penalty flag.  Its
``edges`` are an :class:`EdgeTable`, which reads as a list of records
does, building a column-stored record on its first access and keeping
it.  The solver and :func:`check_feasibility` read the columns
themselves and build no record: each kind answers a whole group at once
(``evaluate_rows`` or ``penalized_rows`` for prices, ``member_rows`` for
flows).  :func:`primal_objective` scores the penalized edges from their
packed flows and builds none either.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .edges.cfmm import GeometricMeanPool, TwoAssetGeometricPool
from .edges.two_node import LinearGain, PowerLossGain, TwoNodeEdge
from .objectives import QuadraticPenalty

__all__ = [
    "DimensionError",
    "EdgeIncidence",
    "EdgeTable",
    "EdgeVectors",
    "Hyperedge",
    "Incidences",
    "EdgeColumns",
    "ProblemInstance",
    "PrimalPoint",
    "FeasibilityReport",
    "assemble_net_flow",
    "scatter_prices",
    "primal_objective",
    "check_feasibility",
]


class DimensionError(ValueError):
    """Raised when a vector does not match the dimension it is used at."""


@dataclass(frozen=True, slots=True)
class EdgeIncidence:
    """Mapping from an edge's local coordinates to global node indices.

    Local coordinate ``k`` of the edge flow lives at global node
    ``nodes[k]``.  Indices must be distinct and an edge must touch at
    least two nodes.  Equality and hashing look at ``nodes`` only.
    """

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        nodes = tuple(map(int, self.nodes))
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2:
            raise ValueError(f"edge must touch at least 2 nodes, got {len(nodes)}")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate node in incidence {nodes}")
        if min(nodes) < 0:
            raise ValueError(f"negative node index in incidence {nodes}")

    @property
    def dim(self) -> int:
        """Number of nodes incident to the edge."""
        return len(self.nodes)

    def validate(self, n: int) -> None:
        if max(self.nodes) >= n:
            raise DimensionError(f"incidence {self.nodes} out of range for n={n}")

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Select the local entries of a global vector (applies the transpose map)."""
        return values[list(self.nodes)]


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only for good: an array that owns its memory is
    frozen in place, and a view (whose owner could still be written) is
    copied first."""
    if not array.flags.owndata:
        array = array.copy()
    array.flags.writeable = False
    return array


class EdgeVectors(Sequence):
    """One vector per edge, packed in one read-only float buffer.

    Edge ``i``'s vector is ``data[offsets[i]:offsets[i + 1]]``; with the
    offsets of an instance's incidences the buffer runs over their
    concatenated nodes, in edge order.  It reads as a list of arrays does:
    ``len``, iteration, ``[i]`` (negative ``i`` too) and slices (a list),
    except that every vector is a view of the buffer that cannot be
    written.  Several instances may share one offsets array.

    The buffer and the offsets are taken over, not copied, when they own
    their memory, and are made read-only in place.
    """

    __slots__ = ("data", "offsets")

    def __init__(self, data, offsets):
        data = np.asarray(data, dtype=float)
        offsets = np.asarray(offsets, dtype=np.intp)
        if data.ndim != 1 or offsets.ndim != 1 or len(offsets) < 1:
            raise DimensionError("edge vectors need a flat buffer and at least one offset")
        if offsets[0] != 0 or offsets[-1] != len(data) or np.any(np.diff(offsets) < 0):
            raise DimensionError(
                f"offsets must rise from 0 to the buffer length {len(data)}, "
                f"got {offsets[0]}..{offsets[-1]}"
            )
        self.data = _frozen(data)
        self.offsets = _frozen(offsets)

    @classmethod
    def pack(cls, vectors: Sequence, offsets: np.ndarray) -> "EdgeVectors":
        """Copy a sequence of per-edge vectors into one buffer laid out by
        ``offsets``; an :class:`EdgeVectors` on those offsets is returned
        as it is."""
        if isinstance(vectors, EdgeVectors) and vectors.offsets is offsets:
            return vectors
        offsets = np.asarray(offsets, dtype=np.intp)
        vectors = [np.asarray(v, dtype=float) for v in vectors]
        if len(vectors) != len(offsets) - 1:
            raise DimensionError(f"{len(vectors)} vectors for {len(offsets) - 1} edges")
        sizes = np.fromiter(map(len, vectors), dtype=np.intp, count=len(vectors))
        if not np.array_equal(sizes, np.diff(offsets)):
            raise DimensionError("vector lengths do not match the edge sizes")
        return cls(np.concatenate(vectors) if vectors else np.zeros(0), offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = _edge_index(index, len(self))
        return self.data[self.offsets[k] : self.offsets[k + 1]]

    def __iter__(self):
        bounds = self.offsets.tolist()
        data = self.data
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield data[lo:hi]

    def __repr__(self) -> str:
        return f"EdgeVectors({len(self)} edges, {len(self.data)} entries)"


def _edge_index(index, m: int) -> int:
    """A sequence index in ``range(m)``; negative ones count from the end."""
    k = operator.index(index)
    if k < 0:
        k += m
    if not 0 <= k < m:
        raise IndexError(f"edge index {index} out of range for {m} edges")
    return k


class Incidences(Sequence):
    """The incidences of a list of edges as one node array and offsets.

    Edge ``i`` touches ``nodes[offsets[i]:offsets[i + 1]]`` (:meth:`nodes_of`).
    ``len`` and ``[i]`` read as on a list of :class:`EdgeIncidence`; each
    one is built on access.  Both arrays are read-only.
    """

    __slots__ = ("nodes", "offsets")

    def __init__(self, nodes, offsets):
        self.nodes = _frozen(np.asarray(nodes, dtype=np.intp))
        self.offsets = _frozen(np.asarray(offsets, dtype=np.intp))

    @classmethod
    def of(cls, incidences: Sequence[EdgeIncidence]) -> "Incidences":
        """The flat form of a sequence of incidences (returned as it is if
        it has that form already)."""
        if isinstance(incidences, Incidences):
            return incidences
        offsets = np.zeros(len(incidences) + 1, dtype=np.intp)
        np.cumsum([len(inc.nodes) for inc in incidences], out=offsets[1:])
        nodes = np.fromiter((j for inc in incidences for j in inc.nodes), dtype=np.intp, count=offsets[-1])
        return cls(nodes, offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def nodes_of(self, k: int) -> np.ndarray:
        """The nodes of edge ``k``, as a view of ``nodes``."""
        return self.nodes[self.offsets[k] : self.offsets[k + 1]]

    def __getitem__(self, index) -> EdgeIncidence:
        return EdgeIncidence(tuple(self.nodes_of(_edge_index(index, len(self))).tolist()))


@dataclass(slots=True)
class Hyperedge:
    """One edge of the instance: incidence, flow-set oracle, optional utility.

    ``oracle`` answers the per-edge price subproblem (see ``edges``);
    ``utility`` is the conjugate oracle of the edge's flow utility, or
    ``None`` when the edge has no utility term.  The one supported utility
    is :class:`~convexflows.objectives.QuadraticPenalty` on an oracle with
    a penalized subproblem (``evaluate_penalized``: the CFMM pools and
    two-node edges), which the solver minimizes the edge's local prices
    inside; :class:`ProblemInstance` rejects any other pairing.
    """

    incidence: EdgeIncidence
    oracle: "object"
    utility: "object | None" = None


# The bundled kinds, whose edges an instance keeps as column rows: the
# gain types of a TwoNodeEdge, and oracle types, each with the row
# protocol (row_params, row_oracle, invalid_rows, evaluate_rows, ...).
_KERNEL_KINDS = (PowerLossGain, LinearGain, TwoAssetGeometricPool, GeometricMeanPool)


def _bundled(kind: type, penalized: bool) -> bool:
    """Whether edges of ``kind``, with the penalty if ``penalized``, are column rows."""
    return kind in _KERNEL_KINDS and (not penalized or hasattr(kind, "penalized_rows"))


class EdgeColumns:
    """Edges of one bundled oracle kind and size, one row each, and whether
    every one of them has the quadratic penalty as its utility.

    ``kind`` is the type that answers the rows: a gain type, for the
    two-node edges ``TwoNodeEdge(kind(*args))``, or an oracle type
    (``TwoAssetGeometricPool``, ``GeometricMeanPool``).  Row ``r`` is the
    edge ``kind.row_oracle(*args)`` on the nodes ``nodes[r]`` (an ``m x
    d`` array, ``d >= 2`` distinct nodes a row), where ``args`` are row
    ``r`` of ``params``: one column per constructor argument, in order
    (the kind's ``row_params``), a float column for a number and an ``m
    x d`` one for a vector (a pool's reserves and weights).  The kind's
    kernel takes these columns and derives whatever else it needs.  The
    arrays are read-only; the values are checked where the columns are
    filled (column-wise by the parser, by the oracle for a packed record).  ``penalized`` gives
    every row a :class:`~convexflows.objectives.QuadraticPenalty`, which
    needs no column (its weight is fixed), and a kind with no penalized
    kernel (``penalized_rows``: the pools) cannot take it.
    """

    __slots__ = ("kind", "nodes", "params", "penalized")

    def __init__(self, kind: type, nodes, params, penalized: bool = False):
        nodes = np.asarray(nodes, dtype=np.intp)
        if nodes.ndim != 2 or nodes.shape[1] < 2:
            raise DimensionError("column-stored edges need an m x d node array with d >= 2")
        if np.any(nodes < 0) or any(np.any(nodes[:, i] == nodes[:, :i].T) for i in range(1, nodes.shape[1])):
            raise ValueError("column-stored edges need distinct nonnegative node indices")
        params = tuple(np.asarray(column, dtype=float) for column in params)
        if any(column.shape not in ((len(nodes),), nodes.shape) for column in params):
            raise DimensionError(f"every parameter column needs {len(nodes)} rows")
        if penalized and not hasattr(kind, "penalized_rows"):
            raise ValueError(f"{kind.__name__} has no penalized kernel for column-stored edges with a penalty")
        self.kind = kind
        self.nodes = _frozen(nodes)
        self.params = tuple(map(_frozen, params))
        self.penalized = bool(penalized)

    def __len__(self) -> int:
        return len(self.nodes)

    def record(self, row: int) -> Hyperedge:
        """Row ``row`` as a new edge record, with its penalty if the group
        has one."""
        oracle = self.kind.row_oracle(*(column[row].tolist() for column in self.params))
        nodes = tuple(self.nodes[row].tolist())
        return Hyperedge(EdgeIncidence(nodes), oracle, QuadraticPenalty(len(nodes)) if self.penalized else None)


class EdgeTable(Sequence):
    """The read-only edge sequence of an instance.

    Edge ``k`` is kept in the record list when ``group[k]`` is 0, and in
    ``columns[group[k] - 1]`` otherwise (a byte: at most 255 column
    groups); each holds its edges in edge order, and a group's flag says
    whether its edges have the quadratic penalty; the layout is checked
    when the table is built.  It reads as a list of :class:`Hyperedge`
    does: ``len``, iteration, ``[k]`` (negative ``k`` too) and slices (a
    list).  A column-stored edge is built on its first access
    (:meth:`EdgeColumns.record`, its penalty included) and kept, so every
    access gives the same record; the solver, :func:`check_feasibility`
    and :func:`primal_objective` read the columns and build none.
    """

    __slots__ = ("records", "columns", "group", "_row", "_kept")

    def __init__(self, records: list, columns: Sequence[EdgeColumns], group):
        self.records = list(records)
        self.columns = tuple(columns)
        if len(self.columns) > 255:
            raise ValueError(f"an edge table holds at most 255 column groups, got {len(self.columns)}")
        given = np.asarray(group)
        self.group = _frozen(given.astype(np.uint8))
        # A value that a byte wraps (256, -1) differs from its byte.
        counts = np.bincount(self.group, minlength=len(self.columns) + 1).tolist() if given.ndim == 1 else []
        if len(counts) != len(self.columns) + 1 or (self.group != given).any():
            raise ValueError(f"group indices must run from 0 to the table's {len(self.columns)} column groups")
        if counts != [len(self.records), *map(len, self.columns)]:
            raise ValueError(f"group counts {counts} do not match the {len(self.records)} records and the groups' rows")
        # Each edge's row in its group.
        self._row = np.empty(len(self.group), dtype=np.intp)
        for g, count in enumerate(counts):
            self._row[self.group == g] = np.arange(count)
        # The column-stored records built so far, by edge position.
        self._kept: dict[int, Hyperedge] = {}

    @classmethod
    def pack(cls, records, parts=()) -> "EdgeTable":
        """The table of edges given as ``(position, edge)`` records and as
        ``parts``, ``(positions, columns)`` of column-stored edges, each in
        edge order.  A bundled record (:func:`_bundled`) becomes a column
        row.  The rows of one kind, size and penalty share a group, in edge
        order; groups are numbered from 1 in the order of their first
        edges, and the rows of any group past the 255th (a number is a
        byte) are kept as records built from them."""
        kept, rows = [], {}
        for k, edge in records:
            # A bundled gain's parameters sit on the gain, a pool's on itself.
            owner = edge.oracle.gain if type(edge.oracle) is TwoNodeEdge else edge.oracle
            key = (type(owner), len(edge.incidence.nodes), edge.utility is not None)
            if _bundled(key[0], key[2]):
                rows.setdefault(key, []).append((k, edge.incidence.nodes, owner.row_params()))
            else:
                kept.append((k, edge))
        by_key: dict[tuple[type, int, bool], list] = {}
        for positions, columns in parts:
            by_key.setdefault((columns.kind, columns.nodes.shape[1], columns.penalized), []).append((positions, columns))
        for (kind, d, penalized), group_rows in rows.items():
            positions, nodes, params = zip(*group_rows)
            columns = EdgeColumns(kind, nodes, zip(*params), penalized)
            by_key.setdefault((kind, d, penalized), []).append((np.array(positions, dtype=np.intp), columns))
        columns, group = [], np.zeros(len(kept) + sum(len(c) for same in by_key.values() for _, c in same), dtype=np.uint8)
        for key in sorted(by_key, key=lambda key: min(positions[0] for positions, _ in by_key[key])):
            same = by_key[key]
            positions, part = same[0]
            if len(same) > 1:
                # Parts of one kind (lossless and linear_gain edges) share
                # its group, in edge order.
                positions = np.concatenate([p for p, _ in same])
                at = np.argsort(positions)
                nodes = np.concatenate([c.nodes for _, c in same])[at]
                params = [np.concatenate(column)[at] for column in zip(*(c.params for _, c in same))]
                positions, part = positions[at], EdgeColumns(key[0], nodes, params, key[2])
            if len(columns) < 255:
                columns.append(part)
                group[positions] = len(columns)
            else:
                kept += [(k, part.record(row)) for row, k in enumerate(positions.tolist())]
        kept.sort(key=lambda record: record[0])
        return cls([edge for _, edge in kept], columns, group)

    def __len__(self) -> int:
        return len(self.group)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = _edge_index(index, len(self))
        g, row = int(self.group[k]), int(self._row[k])
        if g == 0:
            return self.records[row]
        edge = self._kept.get(k)
        if edge is None:
            edge = self._kept[k] = self.columns[g - 1].record(row)
        return edge


@dataclass
class ProblemInstance:
    """A convex flow problem over a hypergraph.

    Attributes:
        n: Number of nodes.
        edges: Hyperedges with their oracles, as an :class:`EdgeTable`
            (kept as given).  Any other sequence of :class:`Hyperedge` is
            checked in edge order, then packed (:meth:`EdgeTable.pack`):
            ``edges[k]`` of a bundled edge is a record rebuilt from its
            row, not the object given.
        net_objective: Conjugate oracle of the net flow utility.
        utility_edges: Positions of the edges with a utility term, in
            increasing order, recorded at construction: the records'
            and the rows of the penalized column groups.
    """

    n: int
    edges: Sequence[Hyperedge]
    net_objective: "object"
    utility_edges: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("instance needs at least one node")
        if not len(self.edges):
            raise ValueError("instance needs at least one edge")
        listed = not isinstance(self.edges, EdgeTable)
        records = list(enumerate(self.edges) if listed else self.edge_records())
        for k, edge in records:
            incidence = edge.incidence
            incidence.validate(self.n)
            dim = len(incidence.nodes)
            oracle_dim = getattr(edge.oracle, "dim", dim)
            if oracle_dim != dim:
                raise DimensionError(
                    f"edge {k}: oracle dimension {oracle_dim} does not match "
                    f"incidence of size {dim}"
                )
            if edge.utility is None:
                continue
            if getattr(edge.utility, "dim", None) not in (None, dim):
                raise DimensionError(f"edge {k}: utility dimension mismatch")
            if not isinstance(edge.utility, QuadraticPenalty) or not hasattr(edge.oracle, "evaluate_penalized"):
                raise ValueError(
                    f"edge {k}: unsupported edge utility {type(edge.utility).__name__} on "
                    f"{type(edge.oracle).__name__}; only a QuadraticPenalty on an oracle with "
                    "evaluate_penalized is supported"
                )
        if listed:
            self.edges = EdgeTable.pack(records)
            records = list(self.edge_records())
        utility_edges = [k for k, edge in records if edge.utility is not None]
        for positions, columns in self.edge_columns():
            if len(columns) and columns.nodes.max() >= self.n:
                raise DimensionError(f"column-stored incidence out of range for n={self.n}")
            if columns.penalized:
                utility_edges += positions.tolist()
        self.utility_edges = tuple(sorted(utility_edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_records(self) -> Iterator[tuple[int, Hyperedge]]:
        """``(position, edge)`` of every edge kept as a record, in edge
        order."""
        return zip(np.flatnonzero(self.edges.group == 0).tolist(), self.edges.records)

    def edge_columns(self) -> list[tuple[np.ndarray, EdgeColumns]]:
        """``(positions, columns)`` of every column group, in group order."""
        return [(np.flatnonzero(self.edges.group == g + 1), columns) for g, columns in enumerate(self.edges.columns)]

    @property
    def incidences(self) -> Incidences:
        """Every edge's incidence, flat; read from the columns, not from
        rebuilt records, for column-stored edges."""
        records = list(self.edge_records())
        sizes = np.array([0, *(columns.nodes.shape[1] for columns in self.edges.columns)], dtype=np.intp)[self.edges.group]
        sizes[[k for k, _ in records]] = [len(edge.incidence.nodes) for _, edge in records]
        offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        nodes = np.empty(offsets[-1], dtype=np.intp)
        for positions, group in self.edge_columns():
            nodes[offsets[positions][:, None] + np.arange(group.nodes.shape[1])] = group.nodes
        for k, edge in records:
            nodes[offsets[k] : offsets[k + 1]] = edge.incidence.nodes
        return Incidences(nodes, offsets)


@dataclass
class PrimalPoint:
    """Candidate primal point: per-edge flows plus a net flow vector.

    ``edge_flows`` is any sequence of one array per edge in edge order: a
    list, or the :class:`EdgeVectors` of a solve result.  Consistency
    of ``net_flow`` with the scattered edge flows is checked by
    :func:`check_feasibility`, not enforced on construction.
    """

    edge_flows: Sequence[np.ndarray]
    net_flow: np.ndarray


@dataclass
class FeasibilityReport:
    """What :func:`check_feasibility` finds at a primal point.

    ``edge_membership`` holds one Python bool per edge, and
    ``residual_bound`` is the most the net-flow residual may be,
    ``tol·(1 + |net_flow|_inf)``.  ``ok`` holds when every edge's flow
    is a member of its set and the residual is within that bound; a NaN
    residual or net flow fails it.
    """

    net_flow_residual: float
    edge_membership: list[bool]
    residual_bound: float
    ok: bool = field(init=False)

    def __post_init__(self) -> None:
        # Written as "not above" so that a NaN fails the check too.
        self.ok = all(self.edge_membership) and self.net_flow_residual <= self.residual_bound


def assemble_net_flow(
    edge_flows: Sequence[np.ndarray],
    incidences: Sequence[EdgeIncidence],
    n: int,
) -> np.ndarray:
    """Scatter edge flows onto the nodes and sum them.

    Args:
        edge_flows: One local flow vector per edge: a list of arrays or
            an :class:`EdgeVectors`.
        incidences: Matching incidence list, or an :class:`Incidences`.
        n: Number of nodes.

    Returns:
        The net flow vector of length ``n``.

    One unbuffered ``np.add.at`` over the flows in edge order adds into
    each node in the same order as a per-edge scatter would, so the sums
    match that loop bit for bit.
    """
    if len(edge_flows) != len(incidences):
        raise DimensionError(
            f"{len(edge_flows)} flow vectors for {len(incidences)} incidences"
        )
    incidences = Incidences.of(incidences)
    offsets = incidences.offsets
    flows = [np.asarray(flow, dtype=float) for flow in edge_flows]
    y = np.zeros(n)
    if not flows:
        return y
    sizes = np.fromiter(map(len, flows), dtype=np.intp, count=len(flows))
    # The first edge that is out of range or whose flow has the wrong
    # length is named, range first, as a per-edge check would.
    bad = (np.maximum.reduceat(incidences.nodes, offsets[:-1]) >= n) | (sizes != np.diff(offsets))
    if bad.any():
        k = int(np.argmax(bad))
        incidences[k].validate(n)
        raise DimensionError(
            f"local vector of length {sizes[k]} does not match edge of size {offsets[k + 1] - offsets[k]}"
        )
    np.add.at(y, incidences.nodes, np.concatenate(flows))
    return y


def scatter_prices(prices: np.ndarray, incidence: EdgeIncidence) -> np.ndarray:
    """Restrict a global node price vector to an edge's local coordinates."""
    prices = np.asarray(prices, dtype=float)
    incidence.validate(len(prices))
    return incidence.gather(prices)


def primal_objective(instance: ProblemInstance, point: PrimalPoint, tol: float = 0.0) -> float:
    """Objective value of a primal point: net utility plus edge utilities.

    Returns ``-inf`` when any term is infeasible.  A positive ``tol``
    loosens indicator-style domain checks by a scaled margin, which is
    useful when scoring a numerically recovered point.

    Every edge utility is the quadratic penalty ``-1/2 |x_-|^2``; the
    edges with one are scored from their flows alone, one ``np.vecdot``
    per edge size (the same dot products as
    :meth:`~convexflows.objectives.QuadraticPenalty.evaluate_primal`), and
    their values are added after the net utility in edge order by one
    running sum, as a loop over the edges would add them.
    """
    total = instance.net_objective.evaluate_primal(np.asarray(point.net_flow, float), tol=tol)
    if total == -np.inf or not instance.utility_edges:
        return float(total)
    positions = np.array(instance.utility_edges, dtype=np.intp)
    flows = point.edge_flows
    if isinstance(flows, EdgeVectors):
        data, starts = flows.data, flows.offsets[positions]
        sizes = flows.offsets[positions + 1] - starts
    else:
        vectors = [np.asarray(flows[k], float) for k in positions.tolist()]
        sizes = np.fromiter(map(len, vectors), dtype=np.intp, count=len(vectors))
        data, starts = np.concatenate(vectors), np.cumsum(sizes) - sizes
    values = np.empty(len(positions))
    # A set, not np.unique, which imports numpy.ma on its first call.
    for d in set(sizes.tolist()):
        rows = sizes == d
        tendered = np.minimum(data[starts[rows, None] + np.arange(d)], 0.0)
        values[rows] = -0.5 * np.vecdot(tendered, tendered)
    if (values == -np.inf).any():
        return -np.inf
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


def check_feasibility(
    instance: ProblemInstance, point: PrimalPoint, tol: float
) -> FeasibilityReport:
    """Check net flow consistency and per-edge set membership.

    The residual is the infinity norm of ``net_flow`` minus the scattered
    sum of the edge flows, held to ``tol·(1 + |net_flow|_inf)``;
    membership uses each edge oracle's scaled membership test at
    tolerance ``tol``.  Column-stored edges are tested
    a group at a time from their columns (the kind's ``member_rows``),
    and every other edge by its record's ``is_member``.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    incidences = instance.incidences
    assembled = assemble_net_flow(point.edge_flows, incidences, instance.n)
    net_flow = np.asarray(point.net_flow, float)
    residual = float(np.max(np.abs(net_flow - assembled)))
    bound = tol * (1.0 + float(np.max(np.abs(net_flow), initial=0.0)))
    flows = EdgeVectors.pack(point.edge_flows, incidences.offsets)
    membership = np.empty(len(flows), dtype=bool)
    for positions, columns in instance.edge_columns():
        block = flows.data[flows.offsets[positions, None] + np.arange(columns.nodes.shape[1])]
        membership[positions] = columns.kind.member_rows(*columns.params, block, tol)
    for k, edge in instance.edge_records():
        membership[k] = edge.oracle.is_member(flows[k], tol)
    return FeasibilityReport(net_flow_residual=residual, edge_membership=membership.tolist(), residual_bound=bound)
