"""The dual program and the solve entry points.

The dual of the flow problem minimizes

    g(nu, eta) = conj_U(nu) + sum_i [ conj_V_i(eta_i - A_i^T nu) + support_i(eta_i) ]

over node prices ``nu >= 0`` and local edge prices ``eta_i >= A_i^T nu``.
The lower-triangular change of variables ``eta_i -> eta_i - A_i^T nu``
maps the feasible set onto the nonnegative orthant, where a
limited-memory quasi-Newton driver with bound projection runs.  Edges
without a utility term force ``eta_i = A_i^T nu`` (their transformed
block is pinned at zero and never becomes a variable), so zero-utility
instances are a problem in ``nu`` alone.

One evaluator, :class:`DualProgram`, computes the dual for every
instance and every entry point (:func:`eval_dual`, :func:`solve_dual`,
:func:`solve`), serially and in a fixed edge order.  One pass of it
gives the dual value, the gradient and every edge's maximizer; the
driver, its screens, the trace callback and the final result all read
that pass.

Gradients assemble from the subproblem maximizers: the transformed
node-price gradient is the net-flow mismatch ``sum_i A_i x_arb_i - y``,
so the driver's convergence literally is primal feasibility.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .core import PrimalPoint, ProblemInstance, assemble_net_flow, check_feasibility, primal_objective
from .edges.base import UnattainedSupremumError, UnboundedEdgeError
from .edges.two_node import TwoNodeEdge
from .objectives import ConjugateValue
from .qn import InfeasibleStartError, QNConfig, escape_probes, minimize_bound_lbfgs, polish_keeps

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
# Directions per block when the descent bounds work out their face terms.
_BOUND_ROWS = 32


class UnboundedDualError(RuntimeError):
    """An edge subproblem is unbounded; the instance is likely unbounded."""


@dataclass
class DualPoint:
    """Node prices plus one local price vector per edge."""

    node_prices: np.ndarray
    edge_prices: list[np.ndarray]


@dataclass
class SolverConfig:
    """Solve parameters; every field must be positive (else ``ValueError``).

    ``grad_tol`` and ``max_iter`` go to the quasi-Newton driver;
    ``feas_tol`` is the scaled margin at which recovered primal points
    are judged feasible and scored.  Every solve runs the one serial
    dual evaluator (see :class:`DualProgram`), so results are
    deterministic.  When some edge has a flat face (an oracle that is
    not strictly convex), the driver finishes by evaluating rounded
    copies of the final iterate (integers and threshold cuts) and keeps
    any that are at least as good, which lands exactly on the vertex
    solutions of combinatorial instances; strictly convex instances
    skip that polish.
    """

    grad_tol: float = 1e-7
    max_iter: int = 1000
    feas_tol: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("grad_tol", "max_iter", "feas_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"SolverConfig.{name} must be positive, got {value!r}")


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
    of the edge maximizers.  ``utility``, ``pair`` and ``array`` hold the
    per-edge outputs of the three plans in plan order:
    ``(ArbitrageResult, utility maximizer)`` pairs,
    ``(value, flow_in, flow_out, non_unique)`` tuples and
    ``ArbitrageResult`` objects (:meth:`DualProgram.edge_flows` reads the
    flows back in edge order).  ``grad`` is the gradient in the reduced
    vector.  ``edge_ties`` says whether some edge answered with a
    non-unique maximizer; ``nonsmooth`` also counts the conjugates.
    """

    value: float
    conj_u: ConjugateValue
    y_arb: np.ndarray
    grad: np.ndarray
    nonsmooth: bool
    edge_ties: bool
    utility: list
    pair: list
    array: list


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
    """The dual evaluator over the reduced optimization vector.

    Node-price coordinates pinned by the objective are substituted out;
    transformed price blocks of utility-free edges are identically zero
    and never enter the vector.  What remains is exactly the variable
    set the bound-constrained driver sees.

    The edges are split once, at build time, into three plans that every
    evaluation visits in this order (which fixes the floating-point
    summation order): edges with a utility, each owning a block of the
    vector; utility-free two-node edges, answered by the allocation-free
    ``evaluate_pair``; and the remaining utility-free edges.  The oracle
    and conjugate bound methods are captured here.

    The piecewise-linear two-node edges, the only ones with flat faces
    to report, also go into a face table of arrays (their nodes, vector
    columns and linear segments), so the faces at a point come from one
    vectorized comparison instead of a ``supported_face`` call per edge.
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
        self.free_nodes = np.array([j for j in range(instance.n) if j not in fixed], dtype=int)
        self._free_pos = {int(j): k for k, j in enumerate(self.free_nodes)}
        self._conj_u = objective.conj
        self._utility_plan = []
        self._pair_plan = []
        self._array_plan = []
        offset = len(self.free_nodes)
        for pos, edge in enumerate(instance.edges):
            idx = edge.incidence._index
            dim = edge.incidence.dim
            if edge.utility is not None:
                block = slice(offset, offset + dim)
                self._utility_plan.append((pos, idx, block, edge.utility.conj, edge.oracle.evaluate))
                offset += dim
            elif dim == 2 and hasattr(edge.oracle, "evaluate_pair"):
                self._pair_plan.append((pos, int(idx[0]), int(idx[1]), edge.oracle.evaluate_pair))
            else:
                self._array_plan.append((pos, idx, edge.oracle.evaluate))
        # Rounding can land on a vertex optimum only when some edge's flow
        # set has a flat face; strictly convex instances skip the polish.
        self.has_flat_faces = any(not edge.oracle.is_strictly_convex for edge in instance.edges)
        self.n_vars = offset
        bounds = np.maximum(np.asarray(objective.lower_bounds(), dtype=float), 0.0)
        self.lower = np.concatenate([bounds[self.free_nodes], np.zeros(offset - len(self.free_nodes))])
        self._last_x: np.ndarray | None = None
        self._last_pass: _Pass | None = None
        # The pass at the driver's current iterate, kept apart from the
        # line search's trial points (see trace_info).
        self._iterate_x: np.ndarray | None = None
        self._iterate_pass: _Pass | None = None
        # The pass at the point polish currently keeps (see keeping_polish).
        self._kept_x: np.ndarray | None = None
        self._kept_pass: _Pass | None = None
        self._build_face_table()
        self._faces_x: np.ndarray | None = None
        self._faces_at: _Faces | None = None

    def _build_face_table(self) -> None:
        """Arrays of the piecewise-linear two-node edges, in edge order.

        Per edge: its position, its plan and index there, its two nodes,
        and the vector columns that move each of its two prices (node
        price, utility block), with ``n_vars`` (a zero appended to the
        vector) standing in for a pinned node price or a missing block.
        Per linear segment: its edge, slope and endpoints
        ``P = (-w_a, h(w_a))``, ``Q = (-w_b, h(w_b))``, and whether it
        is its edge's only segment.
        """
        where = {pos: (True, k, block.start) for k, (pos, _, block, _, _) in enumerate(self._utility_plan)}
        where.update({pos: (False, k, None) for k, (pos, _, _, _) in enumerate(self._pair_plan)})
        edges, segments = [], []
        # An instance without flat faces has no table edge to look for.
        for pos, edge in enumerate(self.instance.edges if self.has_flat_faces else ()):
            oracle = edge.oracle
            pieces = oracle.gain.linear_segments() if isinstance(oracle, TwoNodeEdge) else None
            if not pieces:
                continue
            utility, plan, start = where[pos]
            nodes = edge.incidence.nodes
            node_cols = [self._free_pos.get(j, self.n_vars) for j in nodes]
            block_cols = [start, start + 1] if utility else [self.n_vars] * 2
            edges.append((pos, utility, plan, *nodes, *node_cols, *block_cols))
            for w_a, w_b, slope in pieces:
                ends = (-w_a, oracle.gain.value(w_a), -w_b, oracle.gain.value(w_b))
                segments.append((len(edges) - 1, slope, *ends, len(pieces) == 1))
        table = np.array(edges, dtype=int).reshape(-1, 9)
        self._face_pos = table[:, 0]
        self._face_utility = table[:, 1].astype(bool)
        self._face_plan = table[:, 2]
        self._face_nodes = table[:, 3:5]
        self._face_cols = table[:, 5:9].reshape(-1, 2, 2)  # (node, block) x slot
        seg = np.array(segments, dtype=float).reshape(-1, 7)
        self._seg_edge = seg[:, 0].astype(int)
        self._seg_slope = seg[:, 1]
        self._seg_ends = seg[:, 2:6].reshape(-1, 2, 2)  # (P, Q) x slot
        self._seg_single = seg[:, 6].astype(bool)

    # -- vector packing -------------------------------------------------

    def node_prices(self, x: np.ndarray) -> np.ndarray:
        nu = np.zeros(self.instance.n)
        for j, val in self.fixed.items():
            nu[j] = val
        nu[self.free_nodes] = x[: len(self.free_nodes)]
        return nu

    def to_point(self, x: np.ndarray) -> DualPoint:
        nu = self.node_prices(x)
        etas = [edge.incidence.gather(nu).astype(float) for edge in self.instance.edges]
        for pos, _, block, _, _ in self._utility_plan:
            etas[pos] = etas[pos] + x[block]
        return DualPoint(node_prices=nu, edge_prices=etas)

    def initial_vector(self, start: DualPoint | None) -> np.ndarray:
        if start is None:
            nu = np.asarray(self.instance.net_objective.initial_prices(), dtype=float)
            x = np.zeros(self.n_vars)
        else:
            nu = np.asarray(start.node_prices, dtype=float)
            x = self._edge_blocks(nu, start.edge_prices)
        x[: len(self.free_nodes)] = nu[self.free_nodes]
        return np.maximum(x, self.lower)

    def _edge_blocks(self, nu: np.ndarray, edge_prices) -> np.ndarray:
        """Vector whose utility blocks hold ``eta_i - A_i^T nu`` (node block zero)."""
        x = np.zeros(self.n_vars)
        for pos, idx, block, _, _ in self._utility_plan:
            x[block] = np.asarray(edge_prices[pos], dtype=float) - nu[idx]
        return x

    # -- evaluation ------------------------------------------------------

    def _evaluate_pass(self, nu: np.ndarray, x: np.ndarray) -> _Pass | None:
        """Visit the three plans at node prices ``nu`` and utility blocks of ``x``.

        None means an infinite dual value: a conjugate outside its domain
        or degenerate boundary prices, which the line search treats as
        infinitely bad so that it backs into the interior.
        """
        conj_u = self._conj_u(nu)
        if not conj_u.finite:
            return None
        value = conj_u.value
        nonsmooth = conj_u.non_unique
        ties = False
        y_arb = np.zeros(self.instance.n)
        utility_out = []
        pair_out = []
        array_out = []
        grad_blocks = []
        try:
            for _, idx, block, conj_v_of, evaluate in self._utility_plan:
                xi = x[block]
                conj_v = conj_v_of(xi)
                if not conj_v.finite:
                    return None
                value += conj_v.value
                nonsmooth = nonsmooth or conj_v.non_unique
                res = evaluate(nu[idx] + xi)
                value += res.value
                ties = ties or res.non_unique
                y_arb[idx] += res.flow
                utility_out.append((res, conj_v.maximizer))
                grad_blocks.append(res.flow - conj_v.maximizer)
            # Python floats: scalar arithmetic on them is exact IEEE as on
            # numpy scalars, only faster, and the outputs stay plain floats.
            prices = nu.tolist()
            for _, i0, i1, evaluate_pair in self._pair_plan:
                out = evaluate_pair(prices[i0], prices[i1])
                value += out[0]
                y_arb[i0] += out[1]
                y_arb[i1] += out[2]
                ties = ties or out[3]
                pair_out.append(out)
            for _, idx, evaluate in self._array_plan:
                res = evaluate(nu[idx])
                value += res.value
                y_arb[idx] += res.flow
                ties = ties or res.non_unique
                array_out.append(res)
        except UnattainedSupremumError:
            return None
        except UnboundedEdgeError as exc:
            raise UnboundedDualError(f"unbounded edge subproblem: {exc}") from exc
        grad = (y_arb - conj_u.maximizer)[self.free_nodes]
        if grad_blocks:
            grad = np.concatenate([grad] + grad_blocks)
        return _Pass(float(value), conj_u, y_arb, grad, nonsmooth or ties, ties, utility_out, pair_out, array_out)

    def _residual(self, raw: _Pass) -> float:
        if raw.conj_u.non_unique:
            return float(self.instance.net_objective.domain_violation(raw.y_arb))
        return float(np.max(np.abs(raw.conj_u.maximizer - raw.y_arb)))

    def _fresh_pass(self, x: np.ndarray) -> _Pass | None:
        self._last_pass = self._evaluate_pass(self.node_prices(x), x)
        self._last_x = np.array(x, copy=True)
        return self._last_pass

    def _cached_pass(self, x: np.ndarray) -> _Pass | None:
        if self._last_x is not None and np.array_equal(self._last_x, x):
            return self._last_pass
        for kept_x, kept_pass in ((self._iterate_x, self._iterate_pass), (self._kept_x, self._kept_pass)):
            if kept_x is not None and np.array_equal(kept_x, x):
                self._last_x, self._last_pass = kept_x, kept_pass
                return kept_pass
        return self._fresh_pass(x)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        raw = self._fresh_pass(x)
        if raw is None:
            return math.inf, None
        if self._kept_pass is not None and polish_keeps(raw.value, self._kept_pass.value):
            self._kept_x, self._kept_pass = self._last_x, raw
        return raw.value, raw.grad

    def keeping_polish(self, generator):
        """Wrap a polish generator so the pass at the point polish keeps
        stays cached.

        The driver calls each generator with its best point so far; from
        then on every evaluation that :func:`convexflows.qn.polish_keeps`
        accepts against the kept value replaces the kept pass, as the
        driver replaces its point.  The result at the polished point then
        reads that pass instead of evaluating it again.
        """

        def propose(x):
            raw = self._cached_pass(x)
            self._kept_x, self._kept_pass = self._last_x, raw
            return generator(x)

        return propose

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

    def utility_flows(self, x: np.ndarray) -> list:
        """Edge flows at ``x`` for :func:`primal_objective`, from its pass.

        Only edges with a utility are scored, so only their arbitrage flows
        are filled in; the utility-free entries are None.  Call after
        :meth:`trace_info` has confirmed a finite value at ``x``.
        """
        flows = [None] * len(self.instance.edges)
        for (pos, _, _, _, _), (res, _) in zip(self._utility_plan, self._cached_pass(x).utility):
            flows[pos] = res.flow
        return flows

    def edge_flows(self, raw: _Pass) -> list[np.ndarray]:
        """The arbitrage flow of every edge in the pass ``raw``, in edge order."""
        flows: list = [None] * len(self.instance.edges)
        for (pos, _, _, _, _), (res, _) in zip(self._utility_plan, raw.utility):
            flows[pos] = res.flow
        for (pos, _, _, _), out in zip(self._pair_plan, raw.pair):
            flows[pos] = np.array(out[1:3])
        for (pos, _, _), res in zip(self._array_plan, raw.array):
            flows[pos] = res.flow
        return flows

    def _faces(self, x: np.ndarray) -> _Faces:
        """The flat faces supported at ``x``, cached for the last ``x`` asked.

        An edge's face is its first linear segment whose slope matches
        the edge's own price ratio to a relative ``1e-7`` (a utility
        edge's prices include its block of ``x``), or, at zero prices,
        its only segment: the rule of ``TwoNodeEdge.supported_face``,
        applied to every table edge in one comparison.  The line-search
        screen, a steepest-descent retry and an escape at the same
        iterate all read one computation.
        """
        if self._faces_x is not None and np.array_equal(self._faces_x, x):
            return self._faces_at
        nu = self.node_prices(x)
        prices = nu[self._face_nodes] + np.append(x, 0.0)[self._face_cols[:, 1]]
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

    def _face_state(self, raw: _Pass, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flows and tie flags of the given face-table edges in the pass ``raw``.

        A tie flag says that the edge's oracle reported a non-unique
        maximizer: its prices lie exactly on a face, not just within the
        face tolerance of one.
        """
        plan = self._face_plan[rows]
        utility = self._face_utility[rows]
        flow = np.empty((len(rows), 2))
        tie = np.empty(len(rows), dtype=bool)
        if not utility.all():
            picked = plan[~utility].tolist()
            picked = itemgetter(*picked)(raw.pair) if len(picked) > 1 else [raw.pair[picked[0]]]
            _, flow_in, flow_out, flags = zip(*picked)
            flow[~utility] = np.array((flow_in, flow_out)).T
            tie[~utility] = flags
        if utility.any():
            picked = [raw.utility[j][0] for j in plan[utility].tolist()]
            flow[utility] = [res.flow for res in picked]
            tie[utility] = [res.non_unique for res in picked]
        return flow, tie

    def escape_directions(self, x: np.ndarray) -> list[np.ndarray]:
        """Structural stall-escape directions from the current tie graph.

        Nodes joined by an edge whose prices support a flat face must
        move together to preserve the tie; scaling such a component by a
        common factor preserves every price-ratio tie inside it, and a
        uniform shift covers the zero-price components.  Both signed
        variants are built per component, in reduced coordinates.

        Only directions that can descend are returned, in the order they
        were built: a direction whose first-order lower bound
        (:meth:`escape_bounds`) on the change at its escape probe is not
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
        :meth:`escape_bounds` on ``f(x + s) - f(x)`` over the faces whose
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
            for values in (nu[group], np.ones(len(group))):
                d = np.zeros(len(x))
                for j, v in zip(group, values):
                    if j in free_pos:
                        d[free_pos[j]] = v
                if np.any(d):
                    directions.append(d)
                    directions.append(-d)
        return directions

    def escape_bounds(self, x: np.ndarray, directions) -> np.ndarray:
        """First-order lower bounds on ``f(x + s) - f(x)``, one per direction.

        ``s`` is the escape probe step of each direction
        (:func:`convexflows.qn.escape_probes`).  With ``g`` the gradient
        and ``z_i`` the flow of edge ``i`` at ``x``, the bound is

            g·s + sum_i max_{w in {z_i, P_i, Q_i}} (w - z_i)·(p_i + d_i)

        over the edges whose prices ``p_i`` (node prices plus the
        transformed block of a utility edge) support a face with
        endpoints ``P_i``, ``Q_i``; ``d_i`` is their share of ``s``.
        Each edge's support function at shifted prices is at least the
        value of any allowable flow there, its value at ``x`` is
        ``z_i·p_i``, and every other term of the dual is at least its
        value plus its subgradient step, so the bound holds up to
        rounding.
        """
        return self._descent_bounds(x, directions)[0]

    def _descent_bounds(self, x: np.ndarray, directions, ties_only: bool = False) -> tuple[np.ndarray, float]:
        """:meth:`escape_bounds` plus the probe margin; with ``ties_only``,
        over the tied faces alone (see :meth:`rises_at_probe`).

        Edge ``i``'s term is ``max_w (w - z_i)·(p_i + d_i)``, worked out
        as ``max(0, offsets + toward·d_i)`` (``w = z_i`` gives the zero)
        with ``d_i`` gathered from each probe step's columns, a block of
        rows at a time.
        """
        steps, _, margin = escape_probes(x, directions, self.lower)
        steps -= x  # probe points to probe steps, in place
        raw = self._cached_pass(x)
        if raw is None:
            return np.full(len(steps), -math.inf), margin
        bounds = steps @ raw.grad
        if ties_only and not raw.edge_ties:
            return bounds, margin
        rows, prices, ends = self._faces(x)
        if not len(rows):
            return bounds, margin
        flow, tie = self._face_state(raw, rows)
        if ties_only:
            rows, prices, ends, flow = rows[tie], prices[tie], ends[tie], flow[tie]
        toward = ends - flow[:, None, :]
        offsets = np.einsum("kes,ks->ke", toward, prices)
        cols = self._face_cols[rows]
        steps = np.concatenate([steps, np.zeros((len(steps), 1))], axis=1)
        for lo in range(0, len(steps), _BOUND_ROWS):
            part = steps[lo : lo + _BOUND_ROWS]
            moves = part[:, cols[:, 0]] + part[:, cols[:, 1]]  # rows x faces x slot
            terms = np.einsum("rks,kes->rke", moves, toward) + offsets
            bounds[lo : lo + len(part)] += np.maximum(terms.max(axis=2), 0.0).sum(axis=1)
        return bounds, margin


@dataclass
class SolveResult:
    """Everything a solve produces.

    The dual quantities come from the pass at the final iterate:
    ``flows`` are the edge maximizers there and ``net_flow`` is their
    incidence sum.  :func:`solve` then replaces both with the recovered
    flows and fills in the primal quantities; :func:`solve_dual` leaves
    those at NaN.
    """

    dual_point: DualPoint
    dual_value: float
    flows: list[np.ndarray]
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


def _threshold_candidates(x: np.ndarray) -> list[np.ndarray]:
    """Indicator vectors of the clipped iterate's superlevel sets.

    For combinatorial instances the optimal dual is an indicator vector,
    and the best threshold cut of any point clipped into the unit box is
    at least as good as the point itself, so these candidates certify
    exact vertex optima from a merely near-optimal iterate.
    """
    z = np.clip(x, 0.0, 1.0)
    values = np.unique(z)
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


def _solve_dual(instance: ProblemInstance, start: DualPoint | None, config: SolverConfig) -> tuple[SolveResult, _Pass]:
    """Run the driver; the result plus the pass at its final iterate."""
    program = DualProgram(instance)
    trace = ConvergenceTrace()
    t0 = time.perf_counter()

    def record(iteration, x, f, grad, pg_norm):
        gap = math.nan
        residual, net, nonsmooth = program.trace_info(x)
        if net is not None:
            point = PrimalPoint(edge_flows=program.utility_flows(x), net_flow=net)
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

    # Only an instance with a flat face polishes and screens its line
    # searches: elsewhere the face bound is the gradient term alone.
    flat = program.has_flat_faces
    candidates = [program.keeping_polish(g) for g in (np.round, _threshold_candidates)] if flat else None
    driver = minimize_bound_lbfgs(
        program.value_and_grad,
        program.initial_vector(start),
        program.lower,
        QNConfig(grad_tol=config.grad_tol, max_iter=config.max_iter),
        callback=record,
        polish_candidates=candidates,
        escape_directions=program.escape_directions,
        line_search_screen=program.rises_at_probe if flat else None,
    )
    raw = program._cached_pass(driver.x)
    result = SolveResult(
        dual_point=program.to_point(driver.x),
        dual_value=raw.value,
        flows=program.edge_flows(raw),
        net_flow=raw.y_arb,
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
    return result, raw


def solve_dual(
    instance: ProblemInstance,
    start: DualPoint | None = None,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Minimize the dual over the transformed orthant.

    Works for any instance; utility-free edges contribute no variables,
    so an instance without edge utilities is a problem in the free node
    prices alone.  Returns a dual-focused result whose flows are the raw
    arbitrage maximizers (no recovery pass; see :func:`solve`).
    """
    return _solve_dual(instance, start, config or SolverConfig())[0]


def eval_dual(instance: ProblemInstance, point: DualPoint) -> float:
    """The dual value at explicit prices; ``+inf`` outside the dual domain.

    Node prices are taken as given (no fixed-coordinate substitution).
    Infinite conjugate values (such as negative prices) give ``+inf``,
    and so does an edge without a utility term whose prices differ from
    ``eta_i = A_i^T nu``.

    Raises:
        UnboundedDualError: An edge's price subproblem is unbounded.
    """
    nu = np.asarray(point.node_prices, dtype=float)
    for edge, eta in zip(instance.edges, point.edge_prices):
        if edge.utility is None:
            eta = np.asarray(eta, dtype=float)
            off = np.max(np.abs(eta - edge.incidence.gather(nu)), initial=0.0)
            if off > _ZERO_UTILITY_PRICE_TOL * (1.0 + float(np.max(np.abs(eta)))):
                return math.inf
    program = DualProgram(instance)
    raw = program._evaluate_pass(nu, program._edge_blocks(nu, point.edge_prices))
    return math.inf if raw is None else raw.value


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
    report = check_feasibility(instance, primal, feas_tol)
    y_scale = 1.0 + float(np.max(np.abs(primal.net_flow)))
    if not report.ok or report.net_flow_residual > feas_tol * y_scale:
        return math.inf
    p = primal_objective(instance, primal, tol=feas_tol)
    if not math.isfinite(p):
        return math.inf
    return dual_value - p


def solve(
    instance: ProblemInstance,
    start: DualPoint | None = None,
    config: SolverConfig | None = None,
    recovery_tol: float = 1e-6,
) -> SolveResult:
    """Solve the instance end to end: dual minimization plus recovery.

    After the dual solve, flows on edges whose maximizer is a supported
    segment are re-fit so their net flow matches the objective's target
    (see :mod:`convexflows.recovery`); strictly convex edges pass through.
    """
    from .recovery import recover_flows

    config = config or SolverConfig()
    result, raw = _solve_dual(instance, start, config)
    flows, residual = recover_flows(instance, result.dual_point, result.flows, raw.conj_u, tol=recovery_tol)
    net = assemble_net_flow(flows, instance.incidences, instance.n)
    primal = PrimalPoint(edge_flows=flows, net_flow=net)
    p = primal_objective(instance, primal, tol=config.feas_tol)
    gap = result.dual_value - p if math.isfinite(p) else math.inf
    result.flows = flows
    result.net_flow = net
    result.primal_value = p
    result.duality_gap = gap
    result.relative_gap = gap / (1.0 + abs(result.dual_value))
    result.recovery_residual = residual
    return result
