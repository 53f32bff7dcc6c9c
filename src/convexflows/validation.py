"""Independent oracles and certification harnesses.

Everything here checks solver output without reusing its fast paths:
finite differences certify gradients, exhaustive grids certify primal
values on tiny fixtures, a textbook augmenting-path routine certifies
max-flow instances, and market-clearing conditions certify equilibrium
fixtures.  Desk scale only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import ProblemInstance
from .edges.cfmm import GeometricMeanPool, TwoAssetGeometricPool
from .edges.market import FisherBasketEdge
from .edges.two_node import TwoNodeEdge
from .solver import DualPoint, DualProgram

__all__ = [
    "GradientCheckReport",
    "fd_gradient_check",
    "brute_force_primal",
    "maxflow_oracle",
    "KKTReport",
    "fisher_kkt_check",
]


@dataclass
class GradientCheckReport:
    max_rel_error: float
    checked: int
    skipped: list[int]
    passed: bool


def fd_gradient_check(
    instance: ProblemInstance,
    point: DualPoint | None = None,
    step: float = 1e-6,
    tol: float = 1e-5,
) -> GradientCheckReport:
    """Compare the driver's dual gradient against central differences.

    Differentiates :meth:`DualProgram.value_and_grad`, the function the
    quasi-Newton driver steps on, in the reduced variable space (node
    prices only for instances without edge utilities).  Coordinates
    where any of the three evaluations reports a non-unique maximizer
    are skipped rather than failed: the dual is nonsmooth there and no
    gradient exists.

    Args:
        instance: Problem to check.
        point: Dual point strictly inside the domain; defaults to the
            objective's initial prices.
        step: Central difference step.
        tol: Pass threshold on the max relative error.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    program = DualProgram(instance)
    x = program.initial_vector(point)
    _, analytic = program.value_and_grad(x)
    if analytic is None:
        raise ValueError("point is outside the dual domain")
    base_nonsmooth = program.trace_info(x)[2]

    worst = 0.0
    skipped: list[int] = []
    checked = 0
    for j in range(len(x)):
        nonsmooth = base_nonsmooth
        values = []
        for sign in (+1.0, -1.0):
            shifted = x.copy()
            shifted[j] += sign * step
            value, grad = program.value_and_grad(shifted)
            if grad is None:
                values = None
                break
            nonsmooth = nonsmooth or program.trace_info(shifted)[2]
            values.append(value)
        if values is None or nonsmooth:
            skipped.append(j)
            continue
        fd = (values[0] - values[1]) / (2.0 * step)
        rel = abs(fd - analytic[j]) / max(1.0, abs(analytic[j]))
        worst = max(worst, rel)
        checked += 1
    return GradientCheckReport(
        max_rel_error=worst, checked=checked, skipped=skipped, passed=worst <= tol
    )


def _two_node_candidates(edge: TwoNodeEdge, resolution: int, center=None, width=None):
    gain = edge.gain
    if not (math.isfinite(gain.input_lo) and math.isfinite(gain.input_hi)):
        raise ValueError("refusing to grid an unbounded two-node edge")
    lo, hi = gain.input_lo, gain.input_hi
    if center is not None:
        lo = max(lo, center - width)
        hi = min(hi, center + width)
    ws = np.linspace(lo, hi, resolution)
    return np.column_stack([-ws, [gain.value(w) for w in ws]])


def _pool_output(log_inv, weights, reserves, fee, post_known, known_idx, out_idx):
    """Solve the invariant for the remaining reserve, return the trade leg."""
    log_rest = log_inv
    for j, post in zip(known_idx, post_known):
        log_rest -= weights[j] * math.log(post)
    post_out = math.exp(log_rest / weights[out_idx])
    r_out = reserves[out_idx]
    if post_out <= r_out:
        return r_out - post_out  # received
    return -(post_out - r_out) / fee  # tendered


def _pool_candidates(reserves, weights, fee, resolution, centers=None, width=None):
    """Grid the pool boundary by free legs, last leg from the invariant."""
    reserves = np.asarray(reserves, dtype=float)
    dim = len(reserves)
    log_inv = float(np.dot(weights, np.log(reserves)))
    axes = []
    for j in range(dim - 1):
        lo, hi = -3.0 * reserves[j], 0.98 * reserves[j]
        if centers is not None:
            lo = max(lo, centers[j] - width * reserves[j])
            hi = min(hi, centers[j] + width * reserves[j])
        axes.append(np.linspace(lo, hi, resolution))
    grids = np.meshgrid(*axes, indexing="ij")
    free = np.column_stack([g.ravel() for g in grids])
    flows = np.zeros((len(free), dim))
    flows[:, : dim - 1] = free
    known_idx = list(range(dim - 1))
    for row in range(len(free)):
        post_known = [
            reserves[j] + fee * max(-free[row, j], 0.0) - max(free[row, j], 0.0)
            for j in known_idx
        ]
        if min(post_known) <= 0.0:
            flows[row, dim - 1] = -math.inf  # marks infeasible row
            continue
        flows[row, dim - 1] = _pool_output(
            log_inv, weights, reserves, fee, post_known, known_idx, dim - 1
        )
    return flows[np.isfinite(flows[:, dim - 1])]


def _fisher_candidates(edge: FisherBasketEdge, resolution: int):
    n_g = len(edge.valuations)
    per_axis = max(2, int(round(resolution ** (1.0 / n_g))))
    axes = [np.linspace(-1.0, 0.0, per_axis)] * n_g
    grids = np.meshgrid(*axes, indexing="ij")
    goods = np.column_stack([g.ravel() for g in grids])
    utility = goods @ (-edge.valuations)
    return np.column_stack([goods, utility])


def _edge_candidates(oracle, resolution, focus=None):
    if isinstance(oracle, TwoNodeEdge):
        if focus is None:
            return _two_node_candidates(oracle, resolution)
        center = -focus[0]
        span = oracle.gain.input_hi - oracle.gain.input_lo
        return _two_node_candidates(oracle, resolution, center=center, width=0.05 * span)
    if isinstance(oracle, TwoAssetGeometricPool):
        pool_w = np.array([oracle.weight, 1.0 - oracle.weight])
        centers = None if focus is None else focus[:-1]
        return _pool_candidates(
            oracle.reserves, pool_w, oracle.fee, resolution, centers=centers, width=0.05
        )
    if isinstance(oracle, GeometricMeanPool):
        centers = None if focus is None else focus[:-1]
        return _pool_candidates(
            oracle.reserves, oracle.weights, oracle.fee, resolution, centers=centers, width=0.05
        )
    if isinstance(oracle, FisherBasketEdge):
        return _fisher_candidates(oracle, resolution)
    raise ValueError(f"no grid rule for edge type {type(oracle).__name__}")


def brute_force_primal(
    instance: ProblemInstance, resolution: int = 200, zoom_passes: int = 2
) -> float:
    """Best feasible objective over a per-edge candidate grid.

    Every candidate flow lies on its edge's boundary by construction, so
    any returned value is a true lower bound on the optimum.  After the
    first sweep the grids zoom in around the incumbent to sharpen the
    bound.  Intended for fixtures with total edge dimension <= 6.

    Returns:
        The best feasible objective value, ``-inf`` if no grid point is
        feasible.
    """
    total_dim = sum(e.incidence.dim for e in instance.edges)
    if total_dim > 6:
        raise ValueError(f"grid oracle limited to total edge dimension 6, got {total_dim}")

    best_value = -math.inf
    best_flows = None
    focus = None
    for sweep in range(1 + zoom_passes):
        candidates = [
            _edge_candidates(e.oracle, resolution, None if focus is None else focus[i])
            for i, e in enumerate(instance.edges)
        ]
        value, flows = _best_combination(instance, candidates)
        if value > best_value:
            best_value, best_flows = value, flows
        if best_flows is None:
            break
        focus = best_flows
    return best_value


def _best_combination(instance, candidates):
    nets = np.zeros((1, instance.n))
    utils = np.zeros(1)
    index_grid = [np.zeros(1, dtype=int)]
    for edge, cand in zip(instance.edges, candidates):
        scattered = np.zeros((len(cand), instance.n))
        idx = list(edge.incidence.nodes)
        scattered[:, idx] = cand
        nets = (nets[:, None, :] + scattered[None, :, :]).reshape(-1, instance.n)
        if edge.utility is not None:
            vals = np.array([edge.utility.evaluate_primal(x) for x in cand])
        else:
            vals = np.zeros(len(cand))
        utils = (utils[:, None] + vals[None, :]).ravel()
        index_grid = [np.repeat(g, len(cand)) for g in index_grid] + [
            np.tile(np.arange(len(cand)), len(utils) // len(cand))
        ]
    index_grid = index_grid[1:]

    best_value = -math.inf
    best_row = None
    for row in range(len(nets)):
        u = instance.net_objective.evaluate_primal(nets[row], tol=1e-9)
        if u == -math.inf:
            continue
        total = u + utils[row]
        if total > best_value:
            best_value = total
            best_row = row
    if best_row is None:
        return -math.inf, None
    flows = [
        candidates[i][index_grid[i][best_row]] for i in range(len(instance.edges))
    ]
    return best_value, flows


def maxflow_oracle(n: int, arcs: list[tuple[int, int, float]]) -> float:
    """Classic max-flow value by shortest augmenting paths (Edmonds-Karp)."""
    capacity: dict[tuple[int, int], float] = {}
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v, cap in arcs:
        capacity[(u, v)] = capacity.get((u, v), 0.0) + float(cap)
        capacity.setdefault((v, u), 0.0)
        adjacency[u].add(v)
        adjacency[v].add(u)

    source, sink = 0, n - 1
    total = 0.0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent and capacity[(u, v)] > 1e-12:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return total
        bottleneck = math.inf
        v = sink
        while parent[v] is not None:
            u = parent[v]
            bottleneck = min(bottleneck, capacity[(u, v)])
            v = u
        v = sink
        while parent[v] is not None:
            u = parent[v]
            capacity[(u, v)] -= bottleneck
            capacity[(v, u)] += bottleneck
            v = u
        total += bottleneck


@dataclass
class KKTReport:
    passed: bool
    violations: list[str] = field(default_factory=list)


def fisher_kkt_check(
    allocations: np.ndarray,
    prices: np.ndarray,
    budgets: np.ndarray,
    valuations: np.ndarray,
    tol: float,
) -> KKTReport:
    """Market-clearing certificate for a linear Fisher solution.

    Checks that (a) every good is fully sold, (b) every buyer spends
    exactly their budget, and (c) purchases maximize utility per unit of
    money: each buyer's value-per-price ratio is maximal on the goods
    they buy and not exceeded elsewhere, i.e.
    ``valuation <= (utility / budget) * price`` with equality on
    purchased goods.

    Args:
        allocations: Buyer-by-good allocation matrix.
        prices: Good prices.
        budgets: Buyer budgets.
        valuations: Buyer-by-good valuations.
        tol: Violation threshold (scaled by the quantity checked).
    """
    allocations = np.asarray(allocations, dtype=float)
    prices = np.asarray(prices, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    valuations = np.asarray(valuations, dtype=float)
    violations: list[str] = []

    sold = allocations.sum(axis=0)
    for j, s in enumerate(sold):
        if abs(s - 1.0) > tol:
            violations.append(f"good {j} sold {s:.8f} != 1")

    spending = allocations @ prices
    for i, (spent, budget) in enumerate(zip(spending, budgets)):
        if abs(spent - budget) > tol * max(1.0, budget):
            violations.append(f"buyer {i} spends {spent:.8f} != budget {budget}")

    utilities = np.sum(valuations * allocations, axis=1)
    for i in range(len(budgets)):
        if budgets[i] <= 0:
            continue
        rate = utilities[i] / budgets[i]
        for j in range(len(prices)):
            bound = rate * prices[j]
            scale = max(1.0, abs(bound), valuations[i, j])
            if valuations[i, j] > bound + tol * scale:
                violations.append(
                    f"buyer {i} good {j}: marginal value {valuations[i, j]:.8f} "
                    f"exceeds {bound:.8f}"
                )
            if allocations[i, j] > tol and abs(valuations[i, j] - bound) > tol * scale:
                violations.append(
                    f"buyer {i} good {j}: purchased but value {valuations[i, j]:.8f} "
                    f"!= {bound:.8f}"
                )
    return KKTReport(passed=not violations, violations=violations)
