"""Primal recovery when edge maximizers are not unique.

At an optimal dual point, an edge whose allowable-flow set has a flat
face supported by the optimal prices admits a segment of maximizers, and
the particular maximizer the oracle returned need not assemble into a
feasible net flow.  This pass takes the supported faces from the dual
program's face table (:meth:`convexflows.solver.DualProgram.supported_faces`,
two-node piecewise-linear edges only) together with the flow buffer and
the net-objective conjugate of its final pass, then fits the segment
parameters by box-constrained least squares so the assembled net flow
matches the objective's target on the coordinates it pins, writing only
the face edges' entries of the buffer.  No oracle runs here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .core import DimensionError, EdgeIncidence, EdgeVectors, Incidences, ProblemInstance
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
    flows: EdgeVectors,
    segments: dict[int, tuple[np.ndarray, np.ndarray]],
    incidences: Sequence[EdgeIncidence],
    n: int,
    mask: np.ndarray | None = None,
    tol: float = 1e-6,
) -> tuple[EdgeVectors, float]:
    """Fit segment parameters so the assembled net flow matches the target.

    Minimizes the masked least-squares error between the target and the
    assembled net flow over the box of segment parameters, starting from
    the clipped unconstrained solution and polishing with projected
    gradient steps (exact step length on the quadratic).

    Args:
        y_target: Net flow target (full length ``n``).
        flows: Every edge's flow, laid out by the incidences' offsets.
        segments: Endpoints ``(P, Q)`` of the supported segment
            ``P + t (Q - P)``, t in [0, 1], per ambiguous edge index.
        incidences: Incidence list of the full instance, or its
            :class:`~convexflows.core.Incidences`.
        n: Node count.
        mask: Coordinates of the target that must be matched (all by
            default).
        tol: Residual acceptance threshold, scaled by the target size.

    Returns:
        ``(flows, residual)``: a copy of the buffer with the fitted points
        at the entries of the segment edges (the buffer itself when there
        are no segments), and the final masked residual (2-norm).

    Raises:
        DimensionError: The buffer or a segment does not fit its edges.
        RecoveryError: The residual exceeds the scaled tolerance.
    """
    y_target = np.asarray(y_target, dtype=float)
    if mask is None:
        mask = np.ones(n, dtype=bool)

    incidences = Incidences.of(incidences)
    offsets = incidences.offsets
    at = np.fromiter(segments, dtype=np.intp, count=len(segments))
    starts = offsets[at]
    sizes = offsets[at + 1] - starts
    ends = list(segments.values())
    if not np.array_equal(flows.offsets, offsets) or any(
        len(a) != size or len(b) != size for (a, b), size in zip(ends, sizes.tolist())
    ):
        raise DimensionError("flow or segment lengths do not match their edges")
    # The entries of the segment edges, concatenated in segment order.
    entries = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    p = np.concatenate([np.zeros(0), *(a for a, _ in ends)])
    # The fixed flows in edge order, then each segment's start point,
    # added in that order.
    base = np.zeros(n)
    np.add.at(base, np.delete(incidences.nodes, entries), np.delete(flows.data, entries))
    np.add.at(base, incidences.nodes[entries], p)
    r0 = (base - y_target)[mask]
    if not segments:
        residual = float(np.linalg.norm(r0))
        _check_residual(residual, y_target, tol)
        return flows, residual

    span = np.concatenate([b for _, b in ends]) - p
    columns = np.repeat(np.arange(len(ends)), sizes)
    directions = np.zeros((n, len(ends)))
    directions[incidences.nodes[entries], columns] += span
    d_m = directions[mask]
    t = _box_least_squares(d_m, r0)
    residual = float(np.linalg.norm(r0 + d_m @ t))
    _check_residual(residual, y_target, tol)

    out = flows.data.copy()
    out[entries] = p + t[columns] * span
    return EdgeVectors(out, flows.offsets), residual


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
    flows: EdgeVectors,
    conj_u: ConjugateValue,
    faces: dict[int, tuple[np.ndarray, np.ndarray]],
    tol: float = 1e-6,
) -> tuple[EdgeVectors, float]:
    """Recovery pass used by the end-to-end solve.

    ``flows`` is the edge maximizer buffer of a dual pass, ``conj_u`` the
    net-objective conjugate at its ``node_prices`` and ``faces`` maps
    each edge whose prices support a flat face there to the face's
    endpoints.  The edges on a face are re-fit along it against the
    objective's recovery target, in a copy of the buffer; the others
    keep their entries.  With no face to fit, or no target, the buffer
    itself is returned; a failed fit returns it with the residual.

    Returns:
        ``(flows, residual)``; the residual is NaN when no fit ran.
    """
    target_spec = instance.net_objective.recovery_target(np.asarray(node_prices, dtype=float), conj_u)
    if target_spec is None:
        return flows, math.nan
    y_target, mask = target_spec
    try:
        return restore_primal(y_target, flows, faces, instance.incidences, instance.n, mask=mask, tol=tol)
    except RecoveryError as exc:
        return flows, exc.residual
