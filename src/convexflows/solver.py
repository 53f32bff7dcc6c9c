"""The dual program and the solve entry points.

The dual of the flow problem minimizes

    g(nu, eta) = conj_U(nu) + sum_i [ conj_V_i(eta_i - A_i^T nu) + support_i(eta_i) ]

over node prices ``nu >= 0`` and local edge prices ``eta_i >= A_i^T nu``.
The minimization over each edge's local prices is partial minimization
of an edge-local problem, done inside the edge, so the driver (a
limited-memory quasi-Newton method with bound projection) works on the
free node prices alone:

    g(nu) = conj_U(nu) + sum_i h_i(A_i^T nu).

An edge without a utility term forces ``eta_i = A_i^T nu``, and
``h_i`` is its support function.  An edge with the quadratic penalty
``V_i(x) = -1/2 |x_-|^2`` has

    h_i(p) = min_{xi >= 0} [1/2 |xi|^2 + support_i(p + xi)]
           = sup_{x in T_i} [p·x - 1/2 |x_-|^2],

the penalized subproblem its oracle answers (``evaluate_penalized``).
The penalty is strongly concave, so ``h_i`` is smooth (a Moreau
smoothing of the support function), its gradient is the maximizer
``x_i`` (envelope theorem), and the minimizing local prices are
``eta_i = A_i^T nu + (x_i)_-``, the node prices plus what the edge
tenders.  An instance may pair only this utility with such an oracle
(:class:`~convexflows.core.ProblemInstance` rejects anything else).

One evaluator, :class:`DualProgram`, computes the dual for every
instance and every entry point (:func:`solve_dual`, :func:`solve`),
serially and in a fixed order.  The subproblems split over the edges,
and the edges into groups, each answered by one call per pass: the
edges of a bundled kind (transmission lines, linear gains, two-asset
pools, and multi-asset pools of each size, the pools with a penalty or
without) by that kind's kernel over arrays, bit for bit as edge by edge,
read straight from the columns every instance stores them in; every
other edge by one loop over its record.  One pass gives the dual value, the gradient and every
edge's maximizer, in one buffer in edge order whichever group answered
the edge; the driver, its screens, the trace callback and the final
result all read that pass.  The evaluator caches three passes, the last
one, the one at the driver's iterate and the one at polish's best point,
and leaves the choice of points (polish included) to the driver.  Where
every group's kind gives its flows' Jacobian in closed form, no edge has
a flat face and the net objective gives its conjugate's curvature (a
smooth network of transmission lines), it also gives the driver the
product with the dual's Hessian at an iterate
(:meth:`DualProgram.hessian_at`), and the driver takes Newton-CG steps.

Gradients assemble from the subproblem maximizers: the node-price
gradient is the net-flow mismatch ``sum_i A_i x_arb_i - y``, so the
driver's convergence literally is primal feasibility.
"""

from __future__ import annotations

import csv
import math
import numbers
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import recovery
from .core import (
    DimensionError,
    EdgeColumns,
    EdgeVectors,
    PrimalPoint,
    ProblemInstance,
    check_feasibility,
    primal_objective,
)
from .edges.base import UnattainedSupremumError, UnboundedEdgeError
from .edges.two_node import LinearGain, TwoNodeEdge
from .objectives import ConjugateValue
from .qn import InfeasibleStartError, QNConfig, QNResult, escape_probes, minimize_bound_lbfgs

__all__ = [
    "DualPoint",
    "SolverConfig",
    "TraceRow",
    "ConvergenceTrace",
    "SolveResult",
    "UnboundedDualError",
    "InfeasibleStartError",
    "eval_dual",
    "solve_dual",
    "solve",
    "duality_gap",
]

_ZERO_UTILITY_PRICE_TOL = 1e-9
# Relative price tolerance at which a face counts as supported, as in
# ``supported_face(prices, 1e-7)``.
_FACE_TOL = 1e-7
# Steps per block when the descent bounds work out their face terms.
_BOUND_ROWS = 32
# Relative margin of the polish floor over the rounding of its bound and
# of the values it is compared with (see DualProgram.polish_floor).
_FLOOR_SLACK = 1e-9


class UnboundedDualError(RuntimeError):
    """An edge subproblem is unbounded; the instance is likely unbounded."""


@dataclass
class DualPoint:
    """Node prices plus one local price vector per edge.

    A solve's local prices are ``A_i^T nu``, plus the tendered flow on an
    edge with a penalty, as :class:`~convexflows.core.EdgeVectors`; a
    point built by hand may hold a list.  As a start only the node prices
    count: each edge's local prices are minimized inside the edge at
    every evaluation.
    """

    node_prices: np.ndarray
    edge_prices: Sequence[np.ndarray]


@dataclass
class SolverConfig:
    """Solve parameters, else ``ValueError``: ``grad_tol`` positive,
    ``feas_tol`` positive and finite, ``max_iter`` an integer of at least 1.

    ``grad_tol`` and ``max_iter`` go to the quasi-Newton driver;
    ``feas_tol`` is the scaled margin at which recovered primal points
    are judged feasible and scored.  Every solve runs the one serial
    dual evaluator (see :class:`DualProgram`), so results are
    deterministic.  When some edge has a flat face (an oracle that is
    not strictly convex, on an edge without a penalty), the driver
    finishes by evaluating rounded copies of the final iterate (integers
    and threshold cuts) and keeps any that are at least as good, which
    lands exactly on the vertex solutions of combinatorial instances; a
    copy that the face bound proves worse is skipped unevaluated
    (:meth:`DualProgram.polish_floor`).
    Such an instance also tries the rounded copies of its start once,
    after the first iterate.  Every instance asks a certificate before
    it stops on ``grad_tol``, and a flat-faced one also at that best
    rounded start and at a point the final polish keeps: the primal
    point recovered there certifies the point when its objective is
    finite and within ``feas_tol * (1 + |dual|)`` of the dual value.  A
    certified point ends the solve with status ``"converged"``; a
    refused gradient stop goes on iterating, and a refused polished
    point ends ``"polished"``.  A smooth network of transmission lines
    steps along Newton-CG directions (:meth:`DualProgram.hessian_at`),
    and every other instance along the two-loop ones.  A ``grad_tol`` of
    ``inf`` stops at the first gradient test, which still asks the
    certificate; an infinite ``feas_tol`` would certify any point.
    """

    grad_tol: float = 1e-7
    max_iter: int = 1000
    feas_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not self.grad_tol > 0:
            raise ValueError(f"SolverConfig.grad_tol must be positive, got {self.grad_tol!r}")
        if not 0 < self.feas_tol < math.inf:
            raise ValueError(f"SolverConfig.feas_tol must be positive and finite, got {self.feas_tol!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"SolverConfig.max_iter must be an integer of at least 1, got {self.max_iter!r}")


@dataclass
class TraceRow:
    iteration: int
    value: float
    pg_norm: float
    primal_residual: float
    gap: float
    time_s: float
    nonsmooth: bool = False


class ConvergenceTrace:
    """Per-iteration solve record; exportable as CSV."""

    columns = ("iter", "g", "pg_norm", "primal_residual", "gap", "time_s", "nonsmooth")

    def __init__(self) -> None:
        self.rows: list[TraceRow] = []

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def best_values(self) -> np.ndarray:
        """Best-so-far objective along the iterations."""
        return np.minimum.accumulate(np.array([r.value for r in self.rows]))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            for r in self.rows:
                writer.writerow(
                    [r.iteration, *map(repr, (r.value, r.pg_norm, r.primal_residual, r.gap, r.time_s)), int(r.nonsmooth)]
                )


class _Pass(NamedTuple):
    """Outcome of one evaluation pass: the only form a dual evaluation takes.

    ``value`` is the dual value, ``conj_u`` the net-objective conjugate
    (its maximizer is ``y*``) and ``y_arb`` the net flow ``sum_i A_i x_i``
    of the edge maximizers.  ``flows`` holds every edge's maximizer in
    one buffer on the program's offsets and ``ties`` whether each edge's
    maximizer is not unique, both in edge order, whichever group
    answered the edge.  ``grad`` is the gradient in the free node
    prices.  ``nonsmooth`` says whether some edge or the conjugate has a
    non-unique maximizer.
    """

    value: float
    conj_u: ConjugateValue
    y_arb: np.ndarray
    grad: np.ndarray
    nonsmooth: bool
    flows: EdgeVectors
    ties: np.ndarray


class _Group(NamedTuple):
    """Edges that one call answers per pass, the unit of a :class:`DualProgram`.

    ``kind`` is the bundled kind whose kernel answers them, or None for
    the loop over every other edge's record.  ``positions`` are their
    places in the instance, in edge order, and ``entries`` their flows'
    places in the pass buffer, each edge's in a run.  ``call`` maps the
    pass's node prices to their values and tie flags, one per position,
    and their flows (an ``m x d`` block from a kernel), which laid end to
    end match ``entries``.  ``jacobian`` maps them to the flows'
    Jacobians in the edges' prices, an ``m x d x d`` block, or is None
    for the loop, a penalized group and a kind without ``jacobian_rows``.
    """

    kind: type | None
    positions: np.ndarray
    entries: np.ndarray
    call: Callable
    jacobian: Callable | None


class _Faces(NamedTuple):
    """The flat faces supported at one point, in edge order.

    ``rows`` index the face table of :class:`DualProgram`; ``prices`` are
    those edges' own prices and ``ends`` the face endpoints ``P``, ``Q``
    (``k x 2`` and ``k x 2 x 2``).
    """

    rows: np.ndarray
    prices: np.ndarray
    ends: np.ndarray


class DualProgram:
    """The dual evaluator over the free node prices.

    Node-price coordinates pinned by the objective are substituted out;
    what remains is the vector the bound-constrained driver sees, one
    coordinate per free node on every instance.

    The edges are split once, at build time, into groups (:class:`_Group`),
    and a pass is one call per group: the kernel groups first, in the
    order of the instance's column groups, and then the one loop group,
    which answers every other edge in edge order through its oracle's
    ``evaluate``, or ``evaluate_penalized`` when the edge has a penalty.
    That order fixes the first error a pass raises: a kernel group's
    before any loop edge's.  Each column group of the instance (the
    bundled edges, see :class:`~convexflows.core.EdgeTable`) is a kernel
    group, answered by its kind's ``evaluate_rows``, or
    ``penalized_rows`` when the group's flag says it has the penalty,
    equal bit for bit to the edge's own method, read from its columns and
    never built as a record.  The loop's oracle methods are captured
    here.  Values are added in edge order by one running sum, and the net
    flow is one scatter of the buffer in edge order, as :func:`eval_dual`
    and :func:`~convexflows.core.assemble_net_flow` add them, so the sums
    do not depend on which group answered an edge.

    The piecewise-linear two-node edges without a penalty (the linear
    gains too), the only ones with flat faces to report, also go into a
    face table of arrays (their positions, buffer entries, nodes, vector
    columns and linear segments), so the faces at a point come from one
    vectorized comparison instead of a ``supported_face`` call per edge.
    A penalized edge is smooth in the node prices and has no face.

    ``has_hessian`` says whether :meth:`hessian_at` applies: every group
    is a kernel group without a penalty whose kind has ``jacobian_rows``,
    the objective gives its conjugate's curvature and no edge has a flat
    face.

    It keeps the instance's flat incidences (``incidences``), and its
    results' per-edge vectors share their ``offsets`` array over the
    edges' concatenated nodes (:class:`~convexflows.core.EdgeVectors`).
    Three passes stay cached: the last one, the one at the driver's
    iterate and the one at polish's best point.
    """

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        objective = instance.net_objective
        fixed = dict(objective.fixed_coordinates())
        for j, val in fixed.items():
            if j < 0 or j >= instance.n:
                raise ValueError(f"fixed coordinate {j} out of range")
            if val < 0:
                raise ValueError("fixed prices must be nonnegative")
        self.fixed = fixed
        self._fixed_nodes = np.array(list(fixed), dtype=np.intp)
        self._fixed_prices = np.array(list(fixed.values()), dtype=float)
        self.free_nodes = np.array([j for j in range(instance.n) if j not in fixed], dtype=int)
        self._free_pos = {int(j): k for k, j in enumerate(self.free_nodes)}
        self._conj_u = objective.conj
        self.incidences = instance.incidences
        self._nodes = self.incidences.nodes
        self.offsets = self.incidences.offsets
        records, kernels = list(instance.edge_records()), instance.edge_columns()

        def entries(positions):
            """The buffer entries of the edges at ``positions``, in that order."""
            starts = self.offsets[positions]
            sizes = self.offsets[positions + 1] - starts
            return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())

        def group(kind, positions, call, jacobian=None):
            return _Group(kind, positions, entries(positions), call, jacobian)

        self._groups = [
            group(columns.kind, positions, *_kernel_calls(columns))
            for positions, columns in kernels
        ]
        if records:
            positions = np.array([pos for pos, _ in records], dtype=np.intp)
            self._groups.append(group(None, positions, _result_call(records)))
        # The penalized edges' buffer entries, where to_point adds the
        # flow they tender.
        self._tendering = entries(np.array(instance.utility_edges, dtype=np.intp))
        # Rounding can land on a vertex optimum only when some edge's term
        # has a flat face (linear gains are the one kernel kind with them);
        # smooth instances skip the polish.
        self.has_flat_faces = any(edge.utility is None and not edge.oracle.is_strictly_convex for _, edge in records)
        self.has_flat_faces |= any(len(columns) and columns.kind is LinearGain for _, columns in kernels)
        self.n_vars = len(self.free_nodes)
        bounds = np.maximum(np.asarray(objective.lower_bounds(), dtype=float), 0.0)
        self.lower = bounds[self.free_nodes]
        self._last_x: np.ndarray | None = None
        self._last_pass: _Pass | None = None
        # The pass at the driver's current iterate, kept apart from the
        # line search's trial points (see trace_info).
        self._iterate_x: np.ndarray | None = None
        self._iterate_pass: _Pass | None = None
        # The pass at polish's best point so far, kept apart from the
        # proposals evaluated after it (see polish_floor).
        self._polish_x: np.ndarray | None = None
        self._polish_pass: _Pass | None = None
        # A node's column in the vector, n_vars standing in for a pinned node.
        self._col_of_node = np.full(instance.n, self.n_vars, dtype=np.intp)
        self._col_of_node[self.free_nodes] = np.arange(self.n_vars)
        two_node = [(pos, edge) for pos, edge in records if edge.utility is None and isinstance(edge.oracle, TwoNodeEdge)]
        self._build_face_table(two_node, kernels)
        self._faces_x: np.ndarray | None = None
        self._faces_at: _Faces | None = None
        # A Hessian product needs every edge's Jacobian, the objective's
        # curvature and a smooth dual: no flat face.
        self._conj_curvature = objective.conj_curvature
        self.has_hessian = (
            bool(self._groups)
            and all(group.jacobian is not None for group in self._groups)
            and not self.has_flat_faces
            and objective.conj_curvature(objective.initial_prices()) is not None
        )
        if self.has_hessian:
            # Each edge's two vector columns, in the groups' row order, as
            # a 2 x m array.
            group_entries = np.concatenate([group.entries for group in self._groups])
            self._hessian_cols = self._col_of_node[self._nodes[group_entries]].reshape(-1, 2).T.copy()

    def _build_face_table(self, records, kernels) -> None:
        """Arrays of the two-node edges with linear segments, in edge order.

        Per edge: its position, its two buffer entries and nodes, and the
        vector columns of its two node prices, with ``n_vars`` (a zero
        appended to the vector) standing in for a pinned node price.  Per linear segment: its
        edge, slope and endpoints ``P = (-w_a, h(w_a))``, ``Q = (-w_b,
        h(w_b))``, and whether it is its edge's only segment.  A linear
        gain's one segment comes from its kernel's parameter columns;
        ``records`` holds the ``(position, edge)`` records of the
        ``TwoNodeEdge`` edges without a penalty that the loop answers.
        """
        # Rows of (position, slope, P, Q, single segment), in edge order;
        # an edge's own segments keep theirs.
        seg = np.zeros((0, 7))
        # An instance without flat faces has no table edge to look for.
        if self.has_flat_faces:
            segments = []
            for pos, edge in records:
                gain = edge.oracle.gain
                pieces = gain.linear_segments()
                for w_a, w_b, slope in pieces or ():
                    segments.append((pos, slope, -w_a, gain.value(w_a), -w_b, gain.value(w_b), len(pieces) == 1))
            parts = [seg, np.array(segments, dtype=float).reshape(-1, 7)]
            for positions, columns in kernels:
                if columns.kind is LinearGain:
                    slope, capacity, input_lo = columns.params
                    ends = (-input_lo, slope * input_lo, -capacity, slope * capacity)
                    parts.append(np.stack([positions, slope, *ends, np.ones(len(slope))], axis=1))
            seg = np.concatenate(parts)
            seg = seg[np.argsort(seg[:, 0], kind="stable")]
        pos = seg[:, 0].astype(np.intp)
        first = np.diff(pos, prepend=-1) != 0  # an edge's first segment
        self._face_pos = pos[first]
        self._seg_edge = np.cumsum(first) - 1
        self._face_entries = self.offsets[self._face_pos][:, None] + np.arange(2)
        self._face_nodes = self._nodes[self._face_entries]
        self._face_cols = self._col_of_node[self._face_nodes]
        self._seg_slope = seg[:, 1]
        self._seg_ends = seg[:, 2:6].reshape(-1, 2, 2)  # (P, Q) x slot
        self._seg_single = seg[:, 6].astype(bool)

    # -- vector packing -------------------------------------------------

    def node_prices(self, x: np.ndarray) -> np.ndarray:
        nu = np.zeros(self.instance.n)
        nu[self._fixed_nodes] = self._fixed_prices
        nu[self.free_nodes] = x[: len(self.free_nodes)]
        return nu

    def to_point(self, x: np.ndarray) -> DualPoint:
        """Node prices and the minimizing local prices of every edge at ``x``.

        The local prices are one gather of the node prices over the
        concatenated edge nodes; the penalized edges' entries then gain,
        in place, the flow they tender in the pass at ``x``.
        """
        nu = self.node_prices(x)
        etas = nu[self._nodes]
        raw = self._cached_pass(x)
        if raw is not None:
            etas[self._tendering] += np.maximum(-raw.flows.data[self._tendering], 0.0)
        return DualPoint(node_prices=nu, edge_prices=EdgeVectors(etas, self.offsets))

    def initial_vector(self, start: DualPoint | None) -> np.ndarray:
        """The free node prices of ``start`` (or of the objective's
        initial prices), clipped to the bounds; edge prices play no part."""
        if start is None:
            nu = np.asarray(self.instance.net_objective.initial_prices(), dtype=float)
        else:
            nu = np.asarray(start.node_prices, dtype=float)
        return np.maximum(nu[self.free_nodes], self.lower)

    # -- evaluation ------------------------------------------------------

    def _evaluate_pass(self, nu: np.ndarray) -> _Pass | None:
        """Call every group at node prices ``nu``.

        None means an infinite dual value: a conjugate outside its domain
        or degenerate boundary prices, which the line search treats as
        infinitely bad so that it backs into the interior.
        """
        conj_u = self._conj_u(nu)
        if not conj_u.finite:
            return None
        m = len(self.offsets) - 1
        values, ties = np.empty(m), np.empty(m, dtype=bool)
        flows = np.empty(len(self._nodes))
        try:
            for _, positions, entries, call, _ in self._groups:
                values[positions], flow, ties[positions] = call(nu)
                flows[entries] = np.ravel(flow)
        except UnattainedSupremumError:
            return None
        except UnboundedEdgeError as exc:
            raise UnboundedDualError(f"unbounded edge subproblem: {exc}") from exc
        # Edge order: the running sum adds term by term and the unbuffered
        # scatter node by node, as a loop over the edges would, and as
        # eval_dual and assemble_net_flow do.
        value = float(np.cumsum(np.concatenate(([conj_u.value], values)))[-1])
        y_arb = np.zeros(self.instance.n)
        np.add.at(y_arb, self._nodes, flows)
        grad = (y_arb - conj_u.maximizer)[self.free_nodes]
        flows = EdgeVectors(flows, self.offsets)
        return _Pass(value, conj_u, y_arb, grad, conj_u.non_unique or bool(ties.any()), flows, ties)

    def _residual(self, raw: _Pass) -> float:
        if raw.conj_u.non_unique:
            return float(self.instance.net_objective.domain_violation(raw.y_arb))
        return float(np.max(np.abs(raw.conj_u.maximizer - raw.y_arb)))

    def _fresh_pass(self, x: np.ndarray) -> _Pass | None:
        self._last_pass = self._evaluate_pass(self.node_prices(x))
        self._last_x = np.array(x, copy=True)
        return self._last_pass

    def _cached_pass(self, x: np.ndarray, evaluate: bool = True) -> _Pass | None:
        """The pass at ``x`` from a cache (the last pass, the iterate's or
        polish's), else a fresh one; without ``evaluate``, None when no
        cache holds ``x``."""
        if self._last_x is not None and np.array_equal(self._last_x, x):
            return self._last_pass
        for kept_x, kept in ((self._iterate_x, self._iterate_pass), (self._polish_x, self._polish_pass)):
            if kept_x is not None and np.array_equal(kept_x, x):
                self._last_x, self._last_pass = kept_x, kept
                return kept
        return self._fresh_pass(x) if evaluate else None

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        raw = self._fresh_pass(x)
        if raw is None:
            return math.inf, None
        return raw.value, raw.grad

    def hessian_at(self, x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The product ``v -> H v`` with the dual's Hessian at ``x``, over
        the free node prices; only where :attr:`has_hessian` holds.

        That needs every group to be a kernel group of a two-node kind
        with ``jacobian_rows``, the objective to give its conjugate's
        curvature ``C`` (``conj_curvature``) and no edge to have a flat
        face.  Then ``H = C + sum_e A_e J_e A_e^T``, with ``J_e`` edge
        ``e``'s flow Jacobian at its prices.  A two-node edge's block is
        symmetric of rank one, ``c_e u_e u_e^T``: ``c_e`` is its first
        entry and ``u_e`` its first row over ``c_e`` (for a line, ``u_e =
        (1, -p_in / p_out)``).  So a product is one gather of ``v`` over
        the edges' nodes and one ``np.bincount`` of ``c_e (u_e · v_e) u_e``
        onto them.  The blocks
        are built once here, from the prices at ``x``; no pass is
        evaluated, here or in a product.
        """
        nu = self.node_prices(x)
        blocks = np.concatenate([group.jacobian(nu) for group in self._groups])
        weight = np.ascontiguousarray(blocks[:, 0, 0])
        # u_e as a 2 x m array: the columns' order, each row contiguous.
        u = np.ones((2, len(weight)))
        np.divide(blocks[:, 0, 1], weight, out=u[1], where=weight > 0.0)
        slope = u[1]
        curvature = self._conj_curvature(nu)[self.free_nodes]
        cols, n_vars = self._hessian_cols, self.n_vars
        flat_cols = cols.ravel()

        def product(v: np.ndarray) -> np.ndarray:
            moves = np.append(v, 0.0)[cols]
            along = weight * (moves[0] + slope * moves[1])
            return np.bincount(flat_cols, (u * along).ravel(), minlength=n_vars + 1)[:n_vars] + curvature * v

        return product

    def trace_info(self, x: np.ndarray):
        """(primal_residual, net_flow, nonsmooth) at ``x``, from its pass.

        The driver's callback calls this at every iterate, so the pass at
        ``x`` is kept until the next call: line-search trials do not
        evict it, and a stall escape at ``x`` reads it without evaluating.
        """
        raw = self._cached_pass(x)
        self._iterate_x, self._iterate_pass = self._last_x, raw
        if raw is None:
            return math.nan, None, False
        return self._residual(raw), raw.y_arb, raw.nonsmooth

    def _faces(self, x: np.ndarray) -> _Faces:
        """The flat faces supported at ``x``, cached for the last ``x`` asked.

        An edge's face is its first linear segment whose slope matches
        the edge's price ratio to a relative ``1e-7``, or, at zero prices,
        its only segment: the rule of ``TwoNodeEdge.supported_face``,
        applied to every table edge in one comparison.  It is the only
        face rule of the solve: the line-search screen, a
        steepest-descent retry and an escape at the same iterate all read
        one computation, and recovery reads the faces at the final
        iterate (:meth:`supported_faces`).
        """
        if self._faces_x is not None and np.array_equal(self._faces_x, x):
            return self._faces_at
        prices = self.node_prices(x)[self._face_nodes]
        seg_prices = prices[self._seg_edge]
        p_in, p_out = seg_prices[:, 0], seg_prices[:, 1]
        hit = (p_out > 0.0) & (np.abs(p_in - self._seg_slope * p_out) <= _FACE_TOL * (p_in + p_out))
        hit |= (p_in == 0.0) & (p_out == 0.0) & self._seg_single
        segs = np.flatnonzero(hit)
        segs = segs[np.diff(self._seg_edge[segs], prepend=-1) != 0]  # first match per edge
        rows = self._seg_edge[segs]
        prices = prices[rows]
        self._faces_x, self._faces_at = np.array(x, copy=True), _Faces(rows, prices, self._seg_ends[segs])
        return self._faces_at

    def supported_faces(self, x: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """``{edge position: (P, Q)}`` of the flat faces supported at ``x``.

        The faces of :meth:`_faces`, keyed by the edge's position in the
        instance and in edge order; primal recovery fits its segments on
        them.
        """
        faces = self._faces(x)
        return {pos: (ends[0], ends[1]) for pos, ends in zip(self._face_pos[faces.rows].tolist(), faces.ends)}

    def escape_directions(self, x: np.ndarray) -> list[np.ndarray]:
        """Structural stall-escape directions from the current tie graph.

        Nodes joined by an edge whose prices support a flat face must
        move together to preserve the tie; scaling such a component by a
        common factor preserves every price-ratio tie inside it.  Both
        signed variants are built per component, in reduced coordinates.

        Only directions that can descend are returned, in the order they
        were built: a direction whose first-order lower bound
        (:meth:`_descent_bounds`) on the change at its escape probe is not
        below the probe's decrease margin is dropped without evaluating
        anything.  The bound reads the pass the driver's callback made
        at ``x``.
        """
        directions = self._tie_graph(x)
        if not directions:
            return directions
        bounds, margin = self._descent_bounds(x, directions)
        # A NaN bound certifies nothing, so its direction stays.
        return [d for d, b in zip(directions, bounds) if not b >= -margin]

    def rises_at_probe(self, x: np.ndarray, d: np.ndarray) -> bool:
        """Whether ``f`` provably rises along ``d`` at its escape probe.

        The driver's line-search screen.  It takes the lower bound of
        :meth:`_descent_bounds` on ``f(x + s) - f(x)`` over the faces whose
        edge the pass at ``x`` reports tied (a non-unique maximizer), and
        answers True when the bound exceeds the probe margin.  At an exact
        tie an edge's term grows linearly from zero with the step, so the
        bound does too: no step along ``d`` descends, and backtracking
        would only halve down to float noise.  A face merely within the
        face tolerance of the prices can leave descent short of its kink,
        so it does not count.  Without any tie the bound is ``g·s`` and
        no face is looked up.  A NaN bound proves nothing.
        """
        bounds, margin = self._descent_bounds(x, np.asarray(d)[None, :], ties_only=True)
        return bool(bounds[0] > margin)

    def polish_floor(self, x: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Lower bounds on the dual value at ``points`` (one per row), from
        the pass at ``x``.

        The driver's polish screen.  Each is ``f(x) + b - margin``, with
        ``b`` the bound of :meth:`_step_bounds` on the step
        ``point - x``, which holds for a step of any length.  Only a
        cached pass is read: when no cache holds ``x`` (or the dual is
        infinite there), every floor is ``-inf``, and no pass is ever
        evaluated here.  Polish calls this with its best point so far
        before it evaluates the proposals, so the pass read is kept until
        the next call: a certificate asked at the best point, or the next
        floor from it, reads it after the proposals were evaluated.

        The margin, ``1e-9 (1 + |f(x)| + |b| + S)``, covers the rounding
        of ``f(x)``, of ``b`` and of the value the point evaluates to.
        ``S = |conj_U(nu)| + sum_i |p_i|·|z_i|`` is the size of the terms
        summed into ``f(x)``, and ``|b|`` stands for what the step adds to
        them.  Each of the three is a sum of terms rounded to a few ulps
        of their size, so while the terms stay within that scale, ten
        thousand of them round by about ``1e-11`` of it, a hundredth of
        the margin.
        """
        raw = self._cached_pass(x, evaluate=False)
        if raw is None:
            return np.full(len(points), -math.inf)
        self._polish_x, self._polish_pass = self._last_x, raw
        bounds = self._step_bounds(x, raw, points - x)
        size = abs(raw.conj_u.value) + float(np.abs(self.node_prices(x)[self._nodes]) @ np.abs(raw.flows.data))
        return raw.value + bounds - _FLOOR_SLACK * (1.0 + abs(raw.value) + size + np.abs(bounds))

    def _descent_bounds(self, x: np.ndarray, directions, ties_only: bool = False) -> tuple[np.ndarray, float]:
        """The bounds of :meth:`_step_bounds` at the escape probe steps of
        ``directions`` (:func:`convexflows.qn.escape_probes`), from the
        pass at ``x``, and the probe margin."""
        steps, _, margin = escape_probes(x, directions, self.lower)
        steps -= x  # probe points to probe steps, in place
        return self._step_bounds(x, self._cached_pass(x), steps, ties_only), margin

    def _tie_graph(self, x: np.ndarray) -> list[np.ndarray]:
        """The unscreened tie-graph moves at ``x``."""
        nu = self.node_prices(x)
        faces = self._faces(x)
        parent = list(range(self.instance.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        free_pos = self._free_pos
        directions: list[np.ndarray] = []
        for (a, b), (p_in, p_out) in zip(self._face_nodes[faces.rows].tolist(), faces.prices.tolist()):
            parent[find(b)] = find(a)
            # Single-tie moves: vary the output price and scale the input
            # price along with it, preserving this tie while letting the
            # neighbours' ties break.
            if p_out > 0.0:
                d = np.zeros(len(x))
                if b in free_pos:
                    d[free_pos[b]] = 1.0
                if a in free_pos:
                    d[free_pos[a]] = p_in / p_out
                if np.any(d):
                    directions.append(d)
                    directions.append(-d)

        components: dict[int, list[int]] = {}
        for j in range(self.instance.n):
            components.setdefault(find(j), []).append(j)
        for group in components.values():
            if len(group) < 2:
                continue
            d = np.zeros(len(x))
            for j, v in zip(group, nu[group]):
                if j in free_pos:
                    d[free_pos[j]] = v
            if np.any(d):
                directions.append(d)
                directions.append(-d)
        return directions

    def _step_bounds(self, x: np.ndarray, raw: _Pass | None, steps: np.ndarray, ties_only: bool = False) -> np.ndarray:
        """First-order lower bounds on ``f(x + s) - f(x)``, one per row
        ``s`` of ``steps``, from the pass ``raw`` at ``x``.

        With ``g`` the gradient and ``z_i`` the flow of edge ``i`` at
        ``x``, the bound is

            g·s + sum_i max_{w in {z_i, P_i, Q_i}} (w - z_i)·(p_i + d_i)

        over the edges whose prices ``p_i`` support a face with
        endpoints ``P_i``, ``Q_i``; ``d_i`` is their share of ``s``.
        Each edge's support function at shifted prices is at least the
        value of any allowable flow there, its value at ``x`` is
        ``z_i·p_i``, and every other term of the dual is convex, so at
        least its value plus its subgradient step: the bound holds, up to
        rounding, for a step of any length.  With ``ties_only`` the sum
        runs over the tied faces alone (see :meth:`rises_at_probe`).  A
        pass of infinite value (None) bounds nothing: ``-inf``.

        Edge ``i``'s term is ``max_w (w - z_i)·(p_i + d_i)``, worked out
        as ``max(0, offsets + toward·d_i)`` (``w = z_i`` gives the zero)
        with ``d_i`` gathered from each step's columns, a block of rows
        at a time.
        """
        if raw is None:
            return np.full(len(steps), -math.inf)
        bounds = steps @ raw.grad
        if ties_only and not raw.ties.any():
            return bounds
        rows, prices, ends = self._faces(x)
        if not len(rows):
            return bounds
        flow = raw.flows.data[self._face_entries[rows]]
        if ties_only:
            tie = raw.ties[self._face_pos[rows]]
            rows, prices, ends, flow = rows[tie], prices[tie], ends[tie], flow[tie]
        toward = ends - flow[:, None, :]
        offsets = np.einsum("kes,ks->ke", toward, prices)
        cols = self._face_cols[rows]
        steps = np.concatenate([steps, np.zeros((len(steps), 1))], axis=1)
        for lo in range(0, len(steps), _BOUND_ROWS):
            part = steps[lo : lo + _BOUND_ROWS]
            moves = part[:, cols]  # rows x faces x slot
            terms = np.einsum("rks,kes->rke", moves, toward) + offsets
            bounds[lo : lo + len(part)] += np.maximum(terms.max(axis=2), 0.0).sum(axis=1)
        return bounds


@dataclass
class SolveResult:
    """Everything a solve produces.

    The dual quantities come from the pass at the final iterate.
    ``flows`` are the recovered flows (:func:`solve`) or the edge
    maximizers there (:func:`solve_dual`, which leaves the primal
    quantities at NaN), and ``net_flow`` is their incidence sum.
    ``flows`` and ``dual_point.edge_prices`` are
    :class:`~convexflows.core.EdgeVectors` on one offsets array: they
    read as lists of read-only per-edge views.
    """

    dual_point: DualPoint
    dual_value: float
    flows: Sequence[np.ndarray]
    net_flow: np.ndarray
    primal_value: float
    duality_gap: float
    relative_gap: float
    trace: ConvergenceTrace
    iterations: int
    n_evals: int
    converged: bool
    status: str
    nonsmooth: bool
    recovery_residual: float = math.nan


def _kernel_calls(columns: EdgeColumns) -> tuple[Callable, Callable | None]:
    """The call of a kernel group, its kind's ``penalized_rows`` (for a
    penalized group) or ``evaluate_rows`` over the block of its edges'
    node prices, and its Jacobian call, the kind's ``jacobian_rows`` over
    the same block (None when the group is penalized or the kind has
    none)."""
    nodes, params, penalized = columns.nodes, columns.params, columns.penalized
    rows = columns.kind.penalized_rows if penalized else columns.kind.evaluate_rows
    jacobian_rows = None if penalized else getattr(columns.kind, "jacobian_rows", None)
    jacobian = None if jacobian_rows is None else (lambda nu: jacobian_rows(*params, nu[nodes]))
    return (lambda nu: rows(*params, nu[nodes])), jacobian


def _result_call(records) -> Callable:
    """The call of the loop group, from its ``(position, edge)`` records.

    Each edge answers through its oracle's ``evaluate_penalized`` when it
    has a utility and its ``evaluate`` otherwise, with its local prices as
    an array; the methods are captured here.  Each flow goes straight
    into its span of the group's flows, so no edge's result outlives its
    turn.
    """
    nodes = [np.array(edge.incidence.nodes) for _, edge in records]
    methods = [edge.oracle.evaluate if edge.utility is None else edge.oracle.evaluate_penalized for _, edge in records]
    ends = np.cumsum([len(local) for local in nodes]).tolist()
    calls = [(local, slice(end - len(local), end), method) for local, end, method in zip(nodes, ends, methods)]

    def call(nu):
        values, flows, ties = [], np.empty(ends[-1]), []
        for local, span, evaluate in calls:
            res = evaluate(nu[local])
            values.append(res.value)
            flows[span] = res.flow
            ties.append(res.non_unique)
        return values, flows, ties

    return call


def _threshold_candidates(x: np.ndarray) -> list[np.ndarray]:
    """Indicator vectors of the clipped iterate's superlevel sets.

    For combinatorial instances the optimal dual is an indicator vector,
    and the best threshold cut of any point clipped into the unit box is
    at least as good as the point itself, so these candidates certify
    exact vertex optima from a merely near-optimal iterate.  The distinct
    values come from a sort, as ``np.unique`` finds them, without the
    masked-array module that ``np.unique`` imports on a float array.
    """
    z = np.clip(x, 0.0, 1.0)
    values = np.sort(z)
    distinct = np.ones(len(values), dtype=bool)
    distinct[1:] = values[1:] != values[:-1]
    values = values[distinct]
    if len(values) > 64 or len(values) < 2:
        return []
    candidates = [np.zeros_like(z)]  # threshold above the maximum
    seen = {candidates[0].tobytes()}
    for v in values:
        if v <= 0.0:
            continue
        pattern = (z >= v).astype(float)
        key = pattern.tobytes()
        if key not in seen:
            seen.add(key)
            candidates.append(pattern)
    return candidates


class _Recovered(NamedTuple):
    """A recovered primal point: flows, net flow, objective and fit residual."""

    flows: EdgeVectors
    net_flow: np.ndarray
    value: float
    residual: float


def _recover(program: DualProgram, x: np.ndarray, config: SolverConfig) -> _Recovered:
    """Recover and score the primal point at ``x`` from its pass and faces."""
    instance = program.instance
    raw = program._cached_pass(x)
    flows, residual = recovery.recover_flows(
        instance,
        program.node_prices(x),
        raw.flows,
        raw.conj_u,
        program.supported_faces(x),
        tol=config.feas_tol,
    )
    # One unbuffered scatter in edge order: the bits of a per-edge sum.
    net = np.zeros(instance.n)
    np.add.at(net, program.incidences.nodes, flows.data)
    p = primal_objective(instance, PrimalPoint(edge_flows=flows, net_flow=net), tol=config.feas_tol)
    return _Recovered(flows, net, p, residual)


def _solve_dual(
    instance: ProblemInstance, start: DualPoint | None, config: SolverConfig
) -> tuple[DualProgram, QNResult, ConvergenceTrace, _Recovered | None]:
    """Run the driver; the program, its result, the trace and the primal
    point recovered at the final iterate if a certificate was asked there."""
    program = DualProgram(instance)
    trace = ConvergenceTrace()
    t0 = time.perf_counter()

    def record(iteration, x, f, grad, pg_norm):
        gap = math.nan
        residual, net, nonsmooth = program.trace_info(x)
        if net is not None:
            point = PrimalPoint(edge_flows=program._cached_pass(x).flows, net_flow=net)
            p = primal_objective(instance, point, tol=config.feas_tol)
            if math.isfinite(p):
                gap = f - p
        trace.append(
            TraceRow(
                iteration=iteration,
                value=f,
                pg_norm=pg_norm,
                primal_residual=residual,
                gap=gap,
                time_s=time.perf_counter() - t0,
                nonsmooth=nonsmooth,
            )
        )

    asked: list = [None, None]  # the last point asked about, its recovery

    def certificate(x, f):
        # Weak duality: a primal point within the gap tolerance of the
        # dual value proves both optimal.
        primal = _recover(program, x, config)
        asked[:] = np.array(x, copy=True), primal
        return math.isfinite(primal.value) and abs(f - primal.value) <= config.feas_tol * (1.0 + abs(f))

    # Only an instance with a flat face polishes, certifies its start and
    # screens its line searches and polish proposals: elsewhere the face
    # bound is the gradient term alone, and rounding lands on no vertex.
    # Every instance certifies its gradient stop.
    flat = program.has_flat_faces
    candidates = [np.round, _threshold_candidates] if flat else None
    driver = minimize_bound_lbfgs(
        program.value_and_grad,
        program.initial_vector(start),
        program.lower,
        QNConfig(grad_tol=config.grad_tol, max_iter=config.max_iter),
        callback=record,
        polish_candidates=candidates,
        escape_directions=program.escape_directions,
        line_search_screen=program.rises_at_probe if flat else None,
        polish_floor=program.polish_floor if flat else None,
        certificate=certificate,
        hessian=program.hessian_at if program.has_hessian else None,
    )
    at_end = asked[0] is not None and np.array_equal(asked[0], driver.x)
    return program, driver, trace, asked[1] if at_end else None


def _result(program: DualProgram, driver: QNResult, trace: ConvergenceTrace, flows, net_flow) -> SolveResult:
    """The result at the driver's final iterate with the given flows and
    net flow; the primal fields are left at NaN."""
    raw = program._cached_pass(driver.x)
    return SolveResult(
        dual_point=program.to_point(driver.x),
        dual_value=raw.value,
        flows=flows,
        net_flow=net_flow,
        primal_value=math.nan,
        duality_gap=math.nan,
        relative_gap=math.nan,
        trace=trace,
        iterations=driver.iterations,
        n_evals=driver.n_evals,
        converged=driver.converged,
        status=driver.status,
        nonsmooth=raw.nonsmooth,
    )


def solve_dual(
    instance: ProblemInstance,
    start: DualPoint | None = None,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Minimize the dual over the free node prices.

    Works for any instance: every edge's local prices are minimized
    inside the edge.  Returns a dual-focused result whose flows are the
    raw edge maximizers (no recovery pass; see :func:`solve`).
    """
    program, driver, trace, _ = _solve_dual(instance, start, config or SolverConfig())
    raw = program._cached_pass(driver.x)
    return _result(program, driver, trace, raw.flows, raw.y_arb)


def eval_dual(instance: ProblemInstance, point: DualPoint) -> float:
    """The dual value at explicit prices; ``+inf`` outside the dual domain.

    The explicit form ``g(nu, eta)``, summed edge by edge in edge order:
    node prices and edge prices are taken as given (no fixed-coordinate
    substitution, no minimization over the edge prices).  Infinite
    conjugate values (such as negative prices) give ``+inf``, and so does
    an edge without a utility term whose prices differ from
    ``eta_i = A_i^T nu``; such an edge is evaluated at ``A_i^T nu``.  An
    edge with a utility is taken in the explicit form: its utility's
    conjugate at ``eta_i - A_i^T nu`` and its support at ``eta_i``.  The
    edges are split as :class:`DualProgram` splits them, and no record is
    built: each kernel group is answered by one call of its kind's
    ``evaluate_rows``, a penalized group's conjugates, ``1/2 |xi_i|^2`` at
    ``xi_i = eta_i - A_i^T nu`` (``+inf`` on a negative entry), by one
    ``np.vecdot``, and only the loop's records one by one.  The terms
    are added in edge order, each conjugate just before its edge's value,
    as a loop would add them.

    Raises:
        DimensionError: The node prices are not ``n`` numbers, the point
            has not one price vector per edge, or a vector's length is not
            its edge's size.
        UnboundedDualError: An edge's price subproblem is unbounded.
    """
    nu = np.asarray(point.node_prices, dtype=float)
    etas = [np.asarray(eta, dtype=float) for eta in point.edge_prices]
    incidences = instance.incidences
    offsets = incidences.offsets
    if nu.shape != (instance.n,) or len(etas) != instance.m:
        raise DimensionError(f"need {instance.n} node prices, {instance.m} edge price vectors; got {nu.shape}, {len(etas)}")
    for k, (eta, size) in enumerate(zip(etas, np.diff(offsets).tolist())):
        if eta.shape != (size,):
            raise DimensionError(f"edge {k}: need {size} edge prices, got shape {eta.shape}")
    conj_u = instance.net_objective.conj(nu)
    if not conj_u.finite:
        return math.inf
    eta = np.concatenate(etas)
    base = nu[incidences.nodes]
    # Every edge (at least two entries each) without a utility must be
    # priced at A_i^T nu.
    off = np.maximum.reduceat(np.abs(eta - base), offsets[:-1])
    scale = np.maximum.reduceat(np.abs(eta), offsets[:-1])
    mismatch = off > _ZERO_UTILITY_PRICE_TOL * (1.0 + scale)
    mismatch[list(instance.utility_edges)] = False
    if mismatch.any():
        return math.inf
    records, kernels = instance.edge_records(), instance.edge_columns()
    values, conj = np.empty(instance.m), np.empty(instance.m)
    try:
        for pos, edge in records:
            span = slice(offsets[pos], offsets[pos + 1])
            if edge.utility is not None:
                value = edge.utility.conj(eta[span] - base[span])
                if not value.finite:
                    return math.inf
                conj[pos] = value.value
            values[pos] = edge.oracle.evaluate(base[span] if edge.utility is None else eta[span]).value
        for positions, columns in kernels:
            prices = nu[columns.nodes]
            if columns.penalized:
                local, prices = prices, eta[offsets[positions, None] + np.arange(columns.nodes.shape[1])]
                xi = prices - local
                if (xi < 0.0).any():
                    return math.inf
                conj[positions] = 0.5 * np.vecdot(xi, xi)
            values[positions] = columns.kind.evaluate_rows(*columns.params, prices)[0]
    except UnattainedSupremumError:
        return math.inf
    except UnboundedEdgeError as exc:
        raise UnboundedDualError(f"unbounded edge subproblem: {exc}") from exc
    # Edge order, each utility's conjugate just before its edge's value:
    # the running sum adds term by term, as a loop over the edges would.
    utility = list(instance.utility_edges)
    terms = np.insert(values, utility, conj[utility])
    return float(np.cumsum(np.concatenate(([conj_u.value], terms)))[-1])


def duality_gap(
    instance: ProblemInstance,
    dual,
    primal: PrimalPoint,
    feas_tol: float = 1e-6,
) -> float:
    """Dual value minus primal objective; ``+inf`` for an infeasible primal.

    ``dual`` may be a precomputed dual value or a :class:`DualPoint` to
    evaluate.  Feasibility is judged at ``feas_tol`` (scaled residuals).
    """
    if isinstance(dual, DualPoint):
        dual_value = eval_dual(instance, dual)
    else:
        dual_value = float(dual)
    if not check_feasibility(instance, primal, feas_tol).ok:
        return math.inf
    p = primal_objective(instance, primal, tol=feas_tol)
    if not math.isfinite(p):
        return math.inf
    return dual_value - p


def solve(
    instance: ProblemInstance,
    start: DualPoint | None = None,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Solve the instance end to end: dual minimization plus recovery.

    After the dual solve, flows on the edges whose prices support a flat
    face at the final iterate are re-fit along that face so their net
    flow matches the objective's target, to ``config.feas_tol`` (see
    :mod:`convexflows.recovery`); every other edge passes through.  A
    solve whose certificate was last asked at its final iterate (every
    certified stop) returns the primal point recovered there.
    """
    config = config or SolverConfig()
    program, driver, trace, primal = _solve_dual(instance, start, config)
    if primal is None:
        primal = _recover(program, driver.x, config)
    result = _result(program, driver, trace, primal.flows, primal.net_flow)
    p = primal.value
    gap = result.dual_value - p if math.isfinite(p) else math.inf
    result.primal_value = p
    result.duality_gap = gap
    result.relative_gap = gap / (1.0 + abs(result.dual_value))
    result.recovery_residual = primal.residual
    return result
