"""Dual assembly, orthant transformation, and the solve drivers.

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
:func:`solve_zero_edge`, :func:`solve`), serially and in a fixed edge
order.

Gradients assemble from the subproblem maximizers: the transformed
node-price gradient is the net-flow mismatch ``sum_i A_i x_arb_i - y``,
so the driver's convergence literally is primal feasibility.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import PrimalPoint, ProblemInstance, assemble_net_flow, check_feasibility, primal_objective
from .edges.base import UnattainedSupremumError, UnboundedEdgeError
from .objectives import ConjugateValue
from .qn import InfeasibleStartError, QNConfig, minimize_bound_lbfgs

__all__ = [
    "DualPoint",
    "SolverConfig",
    "TraceRow",
    "ConvergenceTrace",
    "EdgeSolution",
    "DualEval",
    "SolveResult",
    "UnboundedDualError",
    "InfeasibleStartError",
    "transform",
    "untransform",
    "eval_dual",
    "solve_dual",
    "solve_zero_edge",
    "solve",
    "duality_gap",
]

_ZERO_UTILITY_PRICE_TOL = 1e-9


class UnboundedDualError(RuntimeError):
    """An edge subproblem is unbounded; the instance is likely unbounded."""


@dataclass
class DualPoint:
    """Node prices plus one local price vector per edge."""

    node_prices: np.ndarray
    edge_prices: list[np.ndarray]


@dataclass
class SolverConfig:
    """Solve parameters; every field must be positive.

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


@dataclass
class EdgeSolution:
    """Per-edge subproblem outcome at one dual point."""

    support_value: float
    flow_arbitrage: np.ndarray
    flow_utility: np.ndarray
    non_unique: bool


@dataclass
class DualEval:
    """Dual value, gradients, and all subproblem maximizers at a point."""

    value: float
    grad_nodes: np.ndarray | None
    grad_edges: list[np.ndarray] | None
    grad_nodes_orthant: np.ndarray | None
    y_star: np.ndarray | None
    y_non_unique: bool
    edges: list[EdgeSolution] | None
    net_flow_arbitrage: np.ndarray | None
    primal_residual: float
    nonsmooth: bool

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def _infinite_eval() -> DualEval:
    return DualEval(
        value=math.inf,
        grad_nodes=None,
        grad_edges=None,
        grad_nodes_orthant=None,
        y_star=None,
        y_non_unique=False,
        edges=None,
        net_flow_arbitrage=None,
        primal_residual=math.nan,
        nonsmooth=False,
    )


def transform(instance: ProblemInstance, point: DualPoint) -> np.ndarray:
    """Stack ``(nu, eta_i - A_i^T nu, ...)``, mapping duals onto the orthant.

    The change of variables is lower triangular with unit diagonal, so it
    is its own cheap inverse (see :func:`untransform`); no matrix is ever
    materialized.
    """
    nu = np.asarray(point.node_prices, dtype=float)
    parts = [nu]
    for edge, eta in zip(instance.edges, point.edge_prices):
        parts.append(np.asarray(eta, dtype=float) - edge.incidence.gather(nu))
    return np.concatenate(parts)


def untransform(instance: ProblemInstance, stacked: np.ndarray) -> DualPoint:
    """Inverse of :func:`transform`."""
    stacked = np.asarray(stacked, dtype=float)
    nu = stacked[: instance.n]
    etas = []
    offset = instance.n
    for edge in instance.edges:
        d = edge.incidence.dim
        etas.append(stacked[offset : offset + d] + edge.incidence.gather(nu))
        offset += d
    if offset != len(stacked):
        raise ValueError(f"stacked vector of length {len(stacked)}, expected {offset}")
    return DualPoint(node_prices=nu, edge_prices=etas)


def eval_dual(instance: ProblemInstance, point: DualPoint) -> DualEval:
    """Evaluate the dual function, its gradient, and all maximizers.

    Infinite conjugate values (such as negative prices) yield an infinite
    dual value with no gradient.  Edges without a utility term require
    ``eta_i = A_i^T nu``; any violation is likewise an infinite value.

    Raises:
        UnboundedDualError: An edge's price subproblem is unbounded.
    """
    return DualProgram(instance).evaluate_point(point)


class _Pass(NamedTuple):
    """Raw outcome of one evaluation pass; assembles into a :class:`DualEval`.

    ``utility``, ``pair`` and ``array`` hold the per-edge outputs of the
    three plans in plan order: ``(ArbitrageResult, utility maximizer)``
    pairs, ``(value, flow_in, flow_out, non_unique)`` tuples and
    ``ArbitrageResult`` objects.  ``grad`` is the gradient in the reduced
    vector.
    """

    value: float
    conj_u: ConjugateValue
    y_arb: np.ndarray
    grad: np.ndarray
    nonsmooth: bool
    utility: list
    pair: list
    array: list


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
        self._last_eval: DualEval | None = None

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
                nonsmooth = nonsmooth or res.non_unique
                y_arb[idx] += res.flow
                utility_out.append((res, conj_v.maximizer))
                grad_blocks.append(res.flow - conj_v.maximizer)
            for _, i0, i1, evaluate_pair in self._pair_plan:
                out = evaluate_pair(nu[i0], nu[i1])
                value += out[0]
                y_arb[i0] += out[1]
                y_arb[i1] += out[2]
                nonsmooth = nonsmooth or out[3]
                pair_out.append(out)
            for _, idx, evaluate in self._array_plan:
                res = evaluate(nu[idx])
                value += res.value
                y_arb[idx] += res.flow
                nonsmooth = nonsmooth or res.non_unique
                array_out.append(res)
        except UnattainedSupremumError:
            return None
        except UnboundedEdgeError as exc:
            raise UnboundedDualError(f"unbounded edge subproblem: {exc}") from exc
        grad = (y_arb - conj_u.maximizer)[self.free_nodes]
        if grad_blocks:
            grad = np.concatenate([grad] + grad_blocks)
        return _Pass(float(value), conj_u, y_arb, grad, nonsmooth, utility_out, pair_out, array_out)

    def _residual(self, raw: _Pass) -> float:
        if raw.conj_u.non_unique:
            return float(self.instance.net_objective.domain_violation(raw.y_arb))
        return float(np.max(np.abs(raw.conj_u.maximizer - raw.y_arb)))

    def _assemble(self, raw: _Pass | None) -> DualEval:
        if raw is None:
            return _infinite_eval()
        edges = self.instance.edges
        solutions: list[EdgeSolution | None] = [None] * len(edges)
        grad_edges = [np.zeros(edge.incidence.dim) for edge in edges]
        y_star = raw.conj_u.maximizer
        grad_orthant = raw.y_arb - y_star
        grad_nodes = grad_orthant.copy()
        for (pos, idx, _, _, _), (res, x_util) in zip(self._utility_plan, raw.utility):
            solutions[pos] = EdgeSolution(res.value, res.flow, x_util, res.non_unique)
            grad_edges[pos] = res.flow - x_util
            grad_nodes[idx] -= grad_edges[pos]
        for (pos, _, _, _), (support, flow_in, flow_out, flag) in zip(self._pair_plan, raw.pair):
            flow = np.array([flow_in, flow_out])
            solutions[pos] = EdgeSolution(support, flow, flow, flag)
        for (pos, _, _), res in zip(self._array_plan, raw.array):
            solutions[pos] = EdgeSolution(res.value, res.flow, res.flow, res.non_unique)
        return DualEval(
            value=raw.value,
            grad_nodes=grad_nodes,
            grad_edges=grad_edges,
            grad_nodes_orthant=grad_orthant,
            y_star=y_star,
            y_non_unique=raw.conj_u.non_unique,
            edges=solutions,
            net_flow_arbitrage=raw.y_arb,
            primal_residual=self._residual(raw),
            nonsmooth=raw.nonsmooth,
        )

    def _fresh_pass(self, x: np.ndarray) -> _Pass | None:
        self._last_pass = self._evaluate_pass(self.node_prices(x), x)
        self._last_x = np.array(x, copy=True)
        self._last_eval = None
        return self._last_pass

    def _cached_pass(self, x: np.ndarray) -> _Pass | None:
        if self._last_x is not None and np.array_equal(self._last_x, x):
            return self._last_pass
        return self._fresh_pass(x)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        # The driver's line search never looks at the per-edge solutions;
        # the cached pass assembles them on demand.
        raw = self._fresh_pass(x)
        if raw is None:
            return math.inf, None
        return raw.value, raw.grad

    def evaluate(self, x: np.ndarray) -> DualEval:
        self._fresh_pass(x)
        return self.cached_eval(x)

    def cached_eval(self, x: np.ndarray) -> DualEval:
        raw = self._cached_pass(x)
        if self._last_eval is None:
            self._last_eval = self._assemble(raw)
        return self._last_eval

    def trace_info(self, x: np.ndarray):
        """(primal_residual, net_flow, nonsmooth) at ``x`` without assembling."""
        raw = self._cached_pass(x)
        if raw is None:
            return math.nan, None, False
        return self._residual(raw), raw.y_arb, raw.nonsmooth

    def utility_flows(self, x: np.ndarray) -> list:
        """Edge flows at ``x`` for :func:`primal_objective`, without assembling.

        Only edges with a utility are scored, so only their arbitrage flows
        are filled in; the utility-free entries are None.  Call after
        :meth:`trace_info` has confirmed a finite value at ``x``.
        """
        flows = [None] * len(self.instance.edges)
        for (pos, _, _, _, _), (res, _) in zip(self._utility_plan, self._cached_pass(x).utility):
            flows[pos] = res.flow
        return flows

    def evaluate_point(self, point: DualPoint) -> DualEval:
        """Evaluate at explicit dual prices, bypassing the reduced vector.

        Node prices are taken as given (no fixed-coordinate substitution),
        and utility-free edges must have ``eta_i = A_i^T nu``; anything
        else is an infinite value.
        """
        nu = np.asarray(point.node_prices, dtype=float)
        for edge, eta in zip(self.instance.edges, point.edge_prices):
            if edge.utility is None:
                eta = np.asarray(eta, dtype=float)
                off = np.max(np.abs(eta - edge.incidence.gather(nu)), initial=0.0)
                if off > _ZERO_UTILITY_PRICE_TOL * (1.0 + float(np.max(np.abs(eta)))):
                    return _infinite_eval()
        return self._assemble(self._evaluate_pass(nu, self._edge_blocks(nu, point.edge_prices)))

    def escape_directions(self, x: np.ndarray) -> list[np.ndarray]:
        """Structural stall-escape directions from the current tie graph.

        Nodes joined by an edge whose prices support a flat face must
        move together to preserve the tie; scaling such a component by a
        common factor preserves every price-ratio tie inside it, and a
        uniform shift covers the zero-price components.  Both signed
        variants are returned per component, in reduced coordinates.
        """
        nu = self.node_prices(x)
        parent = list(range(self.instance.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        free_pos = {int(j): k for k, j in enumerate(self.free_nodes)}
        directions: list[np.ndarray] = []
        for edge in self.instance.edges:
            prices = edge.incidence.gather(nu)
            face = edge.oracle.supported_face(prices, 1e-7)
            if face is None:
                continue
            nodes = edge.incidence.nodes
            root = find(nodes[0])
            for j in nodes[1:]:
                parent[find(j)] = root
            # Single-tie moves: vary the output price and scale the input
            # price along with it, preserving this tie while letting the
            # neighbours' ties break.
            if len(nodes) == 2 and prices[1] > 0.0:
                d = np.zeros(len(x))
                if nodes[1] in free_pos:
                    d[free_pos[nodes[1]]] = 1.0
                if nodes[0] in free_pos:
                    d[free_pos[nodes[0]]] = prices[0] / prices[1]
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


@dataclass
class SolveResult:
    """Everything a solve produces.

    ``flows`` and the derived primal quantities are filled by
    :func:`solve`; the dual-only drivers leave them at the arbitrage
    maximizers without a recovery pass.
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
    evaluation: DualEval | None = field(default=None, repr=False)


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


def _run_driver(
    program: DualProgram, start: DualPoint | None, config: SolverConfig
) -> tuple:
    instance = program.instance
    trace = ConvergenceTrace()
    t0 = time.perf_counter()

    def fun(x: np.ndarray):
        return program.value_and_grad(x)

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

    x0 = program.initial_vector(start)
    candidates = [np.round, _threshold_candidates] if program.has_flat_faces else None
    result = minimize_bound_lbfgs(
        fun,
        x0,
        program.lower,
        QNConfig(grad_tol=config.grad_tol, max_iter=config.max_iter),
        callback=record,
        polish_candidates=candidates,
        escape_directions=program.escape_directions,
    )
    final = program.cached_eval(result.x)
    return result, final, trace


def _dual_only_result(program: DualProgram, driver, final: DualEval, trace) -> SolveResult:
    point = program.to_point(driver.x)
    flows = [sol.flow_arbitrage for sol in final.edges]
    return SolveResult(
        dual_point=point,
        dual_value=final.value,
        flows=flows,
        net_flow=final.net_flow_arbitrage,
        primal_value=math.nan,
        duality_gap=math.nan,
        relative_gap=math.nan,
        trace=trace,
        iterations=driver.iterations,
        n_evals=driver.n_evals,
        converged=driver.converged,
        status=driver.status,
        nonsmooth=final.nonsmooth,
        evaluation=final,
    )


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
    config = config or SolverConfig()
    program = DualProgram(instance)
    driver, final, trace = _run_driver(program, start, config)
    return _dual_only_result(program, driver, final, trace)


def solve_zero_edge(
    instance: ProblemInstance,
    start: DualPoint | None = None,
    config: SolverConfig | None = None,
) -> SolveResult:
    """:func:`solve_dual` for an instance without edge utilities.

    The variables are the ``n`` node prices only (less any the objective
    pins).

    Raises:
        ValueError: The instance has an edge utility.
    """
    if instance.has_edge_utilities():
        raise ValueError("zero-edge path requires an instance without edge utilities")
    return solve_dual(instance, start, config)


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
        dual_value = eval_dual(instance, dual).value
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
    result = solve_dual(instance, start, config)

    flows, residual = recover_flows(
        instance, result.dual_point, result.evaluation, tol=recovery_tol
    )
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
