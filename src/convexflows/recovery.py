"""Primal recovery when edge maximizers are not unique.

At an optimal dual point, an edge whose allowable-flow set has a flat
face supported by the optimal prices admits a segment of maximizers, and
the particular maximizer the oracle returned need not assemble into a
feasible net flow.  This pass detects supported segments (two-node
piecewise-linear edges only), then fits the segment parameters by
box-constrained least squares so the assembled net flow matches the
objective's target on the coordinates it pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EdgeIncidence, ProblemInstance
from .objectives import ConjugateValue

__all__ = ["FaceSegment", "RecoveryError", "detect_ambiguous", "restore_primal", "recover_flows"]

# Active-set rounds of the box least-squares fit.
_MAX_ROUNDS = 1000


class RecoveryError(RuntimeError):
    """Recovery could not reach the target; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class FaceSegment:
    """A supported segment of maximizers: ``x(t) = p + t (q - p)``, t in [0, 1]."""

    edge_index: int
    p: np.ndarray
    q: np.ndarray


def detect_ambiguous(edge_oracle, prices, tol: float = 1e-6, edge_index: int = -1):
    """Return the supported segment of one edge at the given prices, or None.

    A :class:`FaceSegment` is returned when the prices support a whole
    segment of maximizers (price ratio matching a linear piece's slope
    within ``tol`` relative).  Strictly convex edges and hyperedges have
    a unique maximizer and always give None.  No oracle evaluation runs;
    the unique flow is the one the dual evaluation already returned.
    """
    if edge_oracle.is_strictly_convex:
        return None
    face = edge_oracle.supported_face(np.asarray(prices, dtype=float), tol)
    if face is None:
        return None
    p, q = face
    return FaceSegment(edge_index=edge_index, p=np.asarray(p), q=np.asarray(q))


def restore_primal(
    y_target: np.ndarray,
    unique_flows: dict[int, np.ndarray],
    segments: list[FaceSegment],
    incidences: list[EdgeIncidence],
    n: int,
    mask: np.ndarray | None = None,
    tol: float = 1e-6,
) -> tuple[list[np.ndarray], float]:
    """Fit segment parameters so the assembled net flow matches the target.

    Minimizes the masked least-squares error between the target and the
    assembled net flow over the box of segment parameters, starting from
    the clipped unconstrained solution and polishing with projected
    gradient steps (exact step length on the quadratic).

    Args:
        y_target: Net flow target (full length ``n``).
        unique_flows: Fixed flow per edge index.
        segments: Ambiguous edges with their supported segments.
        incidences: Incidence list of the full instance.
        n: Node count.
        mask: Coordinates of the target that must be matched (all by
            default).
        tol: Residual acceptance threshold, scaled by the target size.

    Returns:
        ``(flows, residual)`` with flows in edge order and the final
        masked residual (2-norm).

    Raises:
        RecoveryError: The residual exceeds the scaled tolerance.
    """
    y_target = np.asarray(y_target, dtype=float)
    if mask is None:
        mask = np.ones(n, dtype=bool)

    base = np.zeros(n)
    for idx, flow in unique_flows.items():
        incidences[idx].scatter_add(flow, base)
    for seg in segments:
        incidences[seg.edge_index].scatter_add(seg.p, base)

    k = len(segments)
    if k == 0:
        residual = float(np.linalg.norm((y_target - base)[mask]))
        flows = [unique_flows[i] for i in range(len(incidences))]
        _check_residual(residual, y_target, tol)
        return flows, residual

    directions = np.zeros((n, k))
    for col, seg in enumerate(segments):
        incidences[seg.edge_index].scatter_add(seg.q - seg.p, directions[:, col])
    d_m = directions[mask]
    r0 = (base - y_target)[mask]
    t = _box_least_squares(d_m, r0)
    residual = float(np.linalg.norm(r0 + d_m @ t))

    flows = [None] * len(incidences)
    for idx, flow in unique_flows.items():
        flows[idx] = flow
    for col, seg in enumerate(segments):
        flows[seg.edge_index] = seg.p + t[col] * (seg.q - seg.p)
    _check_residual(residual, y_target, tol)
    return flows, residual


def _box_least_squares(d_m: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Minimize ``|r0 + d_m t|`` over the unit box.

    Active-set rounds: solve the free coordinates exactly by least
    squares, step toward that face solution as far as the box allows,
    and re-derive the active set from the projected-gradient signs.
    Plain projected-gradient steps (with the exact quadratic step length)
    safeguard rounds whose face step cannot make progress.  The rounds
    end at a stationary point, or once a full round no longer lowers the
    squared residual (float noise can hold the projected gradient just
    above any absolute bound).
    """
    k = d_m.shape[1]
    t, *_ = np.linalg.lstsq(d_m, -r0, rcond=None)
    t = np.clip(t, 0.0, 1.0)
    lipschitz = float(np.linalg.norm(d_m, 2)) ** 2
    step = 1.0 / lipschitz if lipschitz > 0 else 1.0
    eps = 1e-12
    r = r0 + d_m @ t
    for _ in range(_MAX_ROUNDS):
        rr_start = float(r @ r)
        # Projected-gradient sweep (globally convergent, settles the
        # active set).
        for _ in range(20):
            grad = d_m.T @ r
            move = np.clip(t - step * grad, 0.0, 1.0) - t
            if float(np.max(np.abs(move), initial=0.0)) <= 1e-15:
                break
            d_move = d_m @ move
            denom = float(d_move @ d_move)
            beta = 1.0 if denom == 0.0 else min(1.0, max(0.0, -float(r @ d_move) / denom))
            t = t + beta * move
            r = r + beta * d_move
        grad = d_m.T @ r
        pg = grad.copy()
        at_lo = t <= eps
        at_hi = t >= 1.0 - eps
        pg[at_lo] = np.minimum(grad[at_lo], 0.0)
        pg[at_hi] = np.maximum(grad[at_hi], 0.0)
        if float(np.max(np.abs(pg), initial=0.0)) <= 1e-13:
            break
        # Face descent: solve the strictly interior coordinates exactly,
        # step as far toward the face optimum as the box allows, and keep
        # going with newly bound coordinates dropped until the face
        # optimum itself is reached.
        for _ in range(k + 1):
            face = (t > eps) & (t < 1.0 - eps)
            if not np.any(face):
                break
            rhs = -(r0 + d_m[:, ~face] @ t[~face])
            sol, *_ = np.linalg.lstsq(d_m[:, face], rhs, rcond=None)
            direction = np.zeros(k)
            direction[face] = sol - t[face]
            if float(np.max(np.abs(direction), initial=0.0)) <= 1e-15:
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio_hi = np.where(direction > 0, (1.0 - t) / direction, np.inf)
                ratio_lo = np.where(direction < 0, -t / direction, np.inf)
            theta = min(1.0, float(np.min(np.minimum(ratio_hi, ratio_lo))))
            cand = np.clip(t + theta * direction, 0.0, 1.0)
            r_cand = r0 + d_m @ cand
            if float(r_cand @ r_cand) > float(r @ r):
                break
            t, r = cand, r_cand
            if theta >= 1.0:
                break
        if float(r @ r) >= rr_start:
            break
    return t


def _check_residual(residual: float, y_target: np.ndarray, tol: float) -> None:
    scale = 1.0 + float(np.max(np.abs(y_target), initial=0.0))
    if residual > tol * scale:
        raise RecoveryError(
            f"primal recovery residual {residual:.3e} exceeds {tol:.1e} * {scale:.3e}; "
            "the dual may not be converged or an ambiguous edge is unsupported",
            residual,
        )


def recover_flows(instance: ProblemInstance, dual_point, flows, conj_u: ConjugateValue, tol: float = 1e-6):
    """Recovery pass used by the end-to-end solve.

    ``flows`` are the edge maximizers at ``dual_point`` in edge order and
    ``conj_u`` is the net-objective conjugate there, both from the same
    dual pass.  Detects supported segments at the solved prices and
    re-fits them against the objective's recovery target.  When the
    objective pins nothing, or no edge is ambiguous and the target is
    already met, the arbitrage maximizers pass through unchanged.  A
    failed fit degrades gracefully: the raw flows are returned with the
    residual attached.

    Returns:
        ``(flows, residual)``; the residual is NaN when no fit ran.
    """
    target_spec = instance.net_objective.recovery_target(np.asarray(dual_point.node_prices, dtype=float), conj_u)
    if target_spec is None:
        return flows, math.nan

    unique_flows: dict[int, np.ndarray] = {}
    segments: list[FaceSegment] = []
    for i, edge in enumerate(instance.edges):
        segment = detect_ambiguous(edge.oracle, dual_point.edge_prices[i], edge_index=i)
        if segment is None:
            unique_flows[i] = flows[i]
        else:
            segments.append(segment)

    y_target, mask = target_spec
    try:
        return restore_primal(
            y_target, unique_flows, segments, instance.incidences, instance.n, mask=mask, tol=tol
        )
    except RecoveryError as exc:
        return flows, exc.residual
