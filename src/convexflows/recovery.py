"""Primal recovery when edge maximizers are not unique.

At an optimal dual point, an edge whose allowable-flow set has a flat
face supported by the optimal prices admits a segment of maximizers, and
the particular maximizer the oracle returned need not assemble into a
feasible net flow.  This pass takes the supported faces from the dual
program's face table (:meth:`convexflows.solver.DualProgram.supported_faces`,
two-node piecewise-linear edges only) together with the flows and the
net-objective conjugate of its final pass, then fits the segment
parameters by box-constrained least squares so the assembled net flow
matches the objective's target on the coordinates it pins.  No oracle
runs here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .core import DimensionError, EdgeIncidence, Incidences, ProblemInstance
from .objectives import ConjugateValue

__all__ = ["RecoveryError", "restore_primal", "recover_flows"]

# Active-set rounds of the box least-squares fit.
_MAX_ROUNDS = 1000


class RecoveryError(RuntimeError):
    """Recovery could not reach the target; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def restore_primal(
    y_target: np.ndarray,
    unique_flows: dict[int, np.ndarray],
    segments: dict[int, tuple[np.ndarray, np.ndarray]],
    incidences: Sequence[EdgeIncidence],
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
        segments: Endpoints ``(P, Q)`` of the supported segment
            ``P + t (Q - P)``, t in [0, 1], per ambiguous edge index.
        incidences: Incidence list of the full instance, or its
            :class:`~convexflows.core.Incidences`.
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

    incidences = Incidences.of(incidences)
    # The fixed flows in edge order, then each segment's start point,
    # added in that order.
    at = [*unique_flows, *segments]
    local = [*unique_flows.values(), *(p for p, _ in segments.values())]
    base = np.zeros(n)
    if at:
        at = np.array(at, dtype=np.intp)
        starts = incidences.offsets[at]
        sizes = incidences.offsets[at + 1] - starts
        if not np.array_equal(sizes, np.fromiter(map(len, local), dtype=np.intp, count=len(at))):
            raise DimensionError("local flow lengths do not match their edges")
        # The node entries of the edges in ``at``, concatenated.
        entries = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        np.add.at(base, incidences.nodes[entries], np.concatenate(local))

    k = len(segments)
    if k == 0:
        residual = float(np.linalg.norm((y_target - base)[mask]))
        flows = [unique_flows[i] for i in range(len(incidences))]
        _check_residual(residual, y_target, tol)
        return flows, residual

    directions = np.zeros((n, k))
    for col, (i, (p, q)) in enumerate(segments.items()):
        directions[incidences.nodes_of(i), col] += q - p
    d_m = directions[mask]
    r0 = (base - y_target)[mask]
    t = _box_least_squares(d_m, r0)
    residual = float(np.linalg.norm(r0 + d_m @ t))

    flows = [None] * len(incidences)
    for idx, flow in unique_flows.items():
        flows[idx] = flow
    for col, (i, (p, q)) in enumerate(segments.items()):
        flows[i] = p + t[col] * (q - p)
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


def recover_flows(
    instance: ProblemInstance,
    node_prices: np.ndarray,
    flows: Sequence[np.ndarray],
    conj_u: ConjugateValue,
    faces: dict[int, tuple[np.ndarray, np.ndarray]],
    tol: float = 1e-6,
):
    """Recovery pass used by the end-to-end solve.

    ``flows`` are the edge maximizers at a dual point in edge order (a
    list or an :class:`~convexflows.core.EdgeVectors`), ``conj_u`` is the
    net-objective conjugate at its ``node_prices`` and ``faces`` maps
    each edge whose prices support a flat face there to the face's
    endpoints, all at the same dual point.  The edges on a
    face are re-fit along it against the objective's recovery target;
    the others keep their flows.  When the objective pins nothing, or no
    edge is on a face and the target is already met, the arbitrage
    maximizers pass through unchanged.  A failed fit degrades gracefully:
    the raw flows are returned with the residual attached.

    Returns:
        ``(flows, residual)``; the residual is NaN when no fit ran.
    """
    target_spec = instance.net_objective.recovery_target(np.asarray(node_prices, dtype=float), conj_u)
    if target_spec is None:
        return flows, math.nan
    unique_flows = {i: flow for i, flow in enumerate(flows) if i not in faces}
    y_target, mask = target_spec
    try:
        return restore_primal(y_target, unique_flows, faces, instance.incidences, instance.n, mask=mask, tol=tol)
    except RecoveryError as exc:
        return flows, exc.residual
