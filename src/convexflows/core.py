"""Hypergraph problem model: incidences, net flows, objective evaluation.

A problem instance is a hypergraph with ``n`` nodes and ``m`` hyperedges.
Each hyperedge carries a flow vector in its own local coordinates; an
incidence list maps local coordinates to global node indices.  The net
flow at a node is the sum of the local flows scattered onto it.  Positive
entries mean flow out of an edge (into a node), negative entries mean
flow into an edge.

Incidences are stored as index lists, never as dense matrices: typical
instances have far more edges than nodes, and every incidence operation
is a gather or scatter loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "EdgeIncidence",
    "Hyperedge",
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


@dataclass(frozen=True)
class EdgeIncidence:
    """Mapping from an edge's local coordinates to global node indices.

    Local coordinate ``k`` of the edge flow lives at global node
    ``nodes[k]``.  Indices must be distinct and an edge must touch at
    least two nodes.
    """

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(int(j) for j in self.nodes))
        if len(self.nodes) < 2:
            raise ValueError(f"edge must touch at least 2 nodes, got {len(self.nodes)}")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"duplicate node in incidence {self.nodes}")
        if min(self.nodes) < 0:
            raise ValueError(f"negative node index in incidence {self.nodes}")
        object.__setattr__(self, "_index", np.array(self.nodes, dtype=np.intp))

    @property
    def dim(self) -> int:
        """Number of nodes incident to the edge."""
        return len(self.nodes)

    def validate(self, n: int) -> None:
        if max(self.nodes) >= n:
            raise DimensionError(f"incidence {self.nodes} out of range for n={n}")

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Select the local entries of a global vector (applies the transpose map)."""
        return values[self._index]

    def scatter_add(self, local: np.ndarray, out: np.ndarray) -> None:
        """Accumulate a local vector into a global one in place.

        Safe as a plain fancy-index update because an incidence never
        repeats a node.
        """
        if len(local) != self.dim:
            raise DimensionError(
                f"local vector of length {len(local)} does not match edge of size {self.dim}"
            )
        out[self._index] += local


@dataclass
class Hyperedge:
    """One edge of the instance: incidence, flow-set oracle, optional utility.

    ``oracle`` answers the per-edge price subproblem (see ``edges``);
    ``utility`` is the conjugate oracle of the edge's flow utility, or
    ``None`` when the edge has no utility term.
    """

    incidence: EdgeIncidence
    oracle: "object"
    utility: "object | None" = None


@dataclass
class ProblemInstance:
    """A convex flow problem over a hypergraph.

    Attributes:
        n: Number of nodes.
        edges: Hyperedges with their oracles.
        net_objective: Conjugate oracle of the net flow utility.
        utility_edges: Positions of the edges with a utility term, in
            increasing order, recorded at construction.
    """

    n: int
    edges: list[Hyperedge]
    net_objective: "object"
    utility_edges: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("instance needs at least one node")
        if not self.edges:
            raise ValueError("instance needs at least one edge")
        for k, edge in enumerate(self.edges):
            edge.incidence.validate(self.n)
            oracle_dim = getattr(edge.oracle, "dim", edge.incidence.dim)
            if oracle_dim != edge.incidence.dim:
                raise DimensionError(
                    f"edge {k}: oracle dimension {oracle_dim} does not match "
                    f"incidence of size {edge.incidence.dim}"
                )
            if edge.utility is not None and getattr(edge.utility, "dim", None) not in (
                None,
                edge.incidence.dim,
            ):
                raise DimensionError(f"edge {k}: utility dimension mismatch")
        self.utility_edges = tuple(
            k for k, edge in enumerate(self.edges) if edge.utility is not None
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def incidences(self) -> list[EdgeIncidence]:
        return [e.incidence for e in self.edges]


@dataclass
class PrimalPoint:
    """Candidate primal point: per-edge flows plus a net flow vector.

    Consistency of ``net_flow`` with the scattered edge flows is checked
    by :func:`check_feasibility`, not enforced on construction.
    """

    edge_flows: list[np.ndarray]
    net_flow: np.ndarray


@dataclass
class FeasibilityReport:
    net_flow_residual: float
    edge_membership: list[bool]
    ok: bool = field(init=False)

    def __post_init__(self) -> None:
        self.ok = all(self.edge_membership)


def assemble_net_flow(
    edge_flows: Sequence[np.ndarray],
    incidences: Sequence[EdgeIncidence],
    n: int,
) -> np.ndarray:
    """Scatter edge flows onto the nodes and sum them.

    Args:
        edge_flows: One local flow vector per edge.
        incidences: Matching incidence list.
        n: Number of nodes.

    Returns:
        The net flow vector of length ``n``.
    """
    if len(edge_flows) != len(incidences):
        raise DimensionError(
            f"{len(edge_flows)} flow vectors for {len(incidences)} incidences"
        )
    y = np.zeros(n)
    for flow, inc in zip(edge_flows, incidences):
        inc.validate(n)
        inc.scatter_add(np.asarray(flow, dtype=float), y)
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
    """
    total = instance.net_objective.evaluate_primal(np.asarray(point.net_flow, float), tol=tol)
    if total == -np.inf:
        return -np.inf
    for k in instance.utility_edges:
        x = np.asarray(point.edge_flows[k], float)
        v = instance.edges[k].utility.evaluate_primal(x, tol=tol)
        if v == -np.inf:
            return -np.inf
        total += v
    return float(total)


def check_feasibility(
    instance: ProblemInstance, point: PrimalPoint, tol: float
) -> FeasibilityReport:
    """Check net flow consistency and per-edge set membership.

    The residual is the infinity norm of ``net_flow`` minus the scattered
    sum of the edge flows; membership uses each edge oracle's scaled
    membership test at tolerance ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    assembled = assemble_net_flow(point.edge_flows, instance.incidences, instance.n)
    residual = float(np.max(np.abs(np.asarray(point.net_flow, float) - assembled)))
    membership = [
        bool(edge.oracle.is_member(np.asarray(x, float), tol))
        for edge, x in zip(instance.edges, point.edge_flows)
    ]
    return FeasibilityReport(net_flow_residual=residual, edge_membership=membership)
