"""Bound-constrained limited-memory quasi-Newton minimizer.

Minimizes a convex function over coordinate lower bounds.  The search
direction comes from the standard two-loop recursion restricted to the
free coordinates; steps follow a projected weak-Wolfe line search,
which tries the unit step first.  A steepest-descent direction (the
first one, and each one after a restart or an escape empties the
memory) has no curvature pair to give it a length, so its search
starts at the largest step of the halving sequence 1, 1/2, 1/4, ...
that moves no coordinate by more than ``1 + |x|_inf``, as L-BFGS-B
scales its first step (Byrd, Lu, Nocedal and Zhu, 1995); it skips
only trials that would move the point past its own scale.

Given the product with the objective's Hessian at an iterate, the
driver takes a truncated Newton-CG direction instead of the two-loop
one (Dembo and Steihaug, 1983): conjugate gradients on the free
coordinates' block of the Hessian, stopped once the residual is within
Eisenstat and Walker's forcing term ``min(0.5, sqrt|g|)·|g|`` or on a
direction without positive curvature.  Its search starts at the unit
step.  The line search, the certificate and the restart, stall and
escape paths are those of the two-loop direction; a direction of no
descent, and the retry after a failed search, go along steepest
descent as they do there.  A Hessian product is not an evaluation of
the objective, and ``n_evals`` does not count it.

A trial that fails sufficient decrease with a finite value, while no
shorter step has passed, is shrunk to the minimizer of the quadratic
through ``f(x)``, the projected slope of the trial and its value,
safeguarded to a tenth and a half of the trial (Nocedal and Wright,
*Numerical Optimization*, 2006, §3.5); any other failure halves the
step, or the bracket.  The objective may return ``+inf`` (an implicit constraint),
which only ever shrinks the step, so iterates stay inside the finite
region.  Near the float noise floor, steps are
accepted on the curvature condition alone, letting the gradients keep
converging after objective differences stop being measurable.
Nonsmooth objectives can jam the iteration at points where no single
coordinate descends; a stall then triggers exact line
searches along directions the caller derives from the objective's
structure (the solver supplies the tie-graph moves that its first-order
screen cannot rule out at their probe points, see :func:`escape_probes`),
and an optional final polish evaluates caller-proposed points, keeping
any that are at least as good (:func:`polish_keeps`).  An optional
polish floor bounds the value at each proposal from below, from the
best point so far; polish skips a proposal it would reject even at its
bound, so it keeps exactly what it would keep without the floor, at
fewer evaluations.

An optional certificate decides every stop on the gradient test: when
the projected gradient is small the driver asks it whether the iterate
is optimal (the solver compares it with a recovered primal point, by
weak duality), and a refusal keeps the run going.  With polish
candidates it is also asked once at the start: after the first iterate
the driver evaluates the candidates of the start point and asks about
the best of them; a refusal there leaves the run exactly as it would
have been, apart from the evaluations of the candidates (those the
polish floor does not rule out).  A point the final
polish keeps is asked about once more, at no evaluation.  A certified
point ends the run with status ``"converged"``, and with a certificate
no other ending counts as converged.

At such kinks the quasi-Newton direction itself often cannot descend,
and backtracking would halve its step some fifty times down to float
noise.  An optional line-search screen, asked once after the first
trial step fails, can end the search at once: it answers whether the
direction provably rises at its escape probe point, and a search it
ends takes the same failed-search path (a steepest-descent retry, then
an escape) as one that ran out of steps.  A search with a screen halves
every failed trial: the solver screens exactly the objectives with flat
faces, and on those the quadratic model's steps made solve paths
erratic (on small max-flow instances, some took twice the iterations).

The objective callable returns ``(value, gradient)``; the gradient is
ignored (and may be None) when the value is infinite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["QNConfig", "QNResult", "InfeasibleStartError", "minimize_bound_lbfgs"]


class InfeasibleStartError(RuntimeError):
    """The starting point has an infinite objective value."""


# Fixed driver constants.  History pairs kept, backtracking shrink factor,
# weak-Wolfe constants and the line-search trial budget:
_MEMORY = 10
_SHRINK = 0.5
_ARMIJO = 1e-4
_CURVATURE = 0.9
_MAX_BACKTRACKS = 70
# A stall is a full window whose value improves by less than _STALL_TOL
# (relative) while the projected gradient stays flat; it catches nonsmooth
# plateaus the gradient test misses.
_STALL_WINDOW = 40
_STALL_TOL = 1e-14
# Escapes allowed per run; keeps pathological nonsmooth cases from
# consuming the whole iteration budget.
_MAX_ESCAPES = 12
# Escape probe step (relative to 1 + |x|_inf) and the relative decrease a
# probe must show.
_PROBE = 1e-7
_DECREASE = 1e-14
# Polish keeps a candidate whose value is within this relative slack of
# the current best.
_TIE_SLACK = 8.0 * np.finfo(float).eps


@dataclass
class QNConfig:
    grad_tol: float = 1e-7
    max_iter: int = 1000

    def __post_init__(self) -> None:
        # Written as "not positive" so that a NaN fails too; inf is allowed.
        if not self.grad_tol > 0:
            raise ValueError(f"QNConfig.grad_tol must be positive, got {self.grad_tol!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"QNConfig.max_iter must be an integer of at least 1, got {self.max_iter!r}")


@dataclass
class QNResult:
    x: np.ndarray
    value: float
    grad: np.ndarray
    pg_norm: float
    iterations: int
    n_evals: int
    converged: bool
    status: str
    hessian_products: int = 0


def _pg_norm(x: np.ndarray, g: np.ndarray, lower: np.ndarray) -> float:
    """Max-norm of the projected gradient."""
    pg = g.copy()
    at_bound = x <= lower
    pg[at_bound] = np.minimum(g[at_bound], 0.0)
    return float(np.max(np.abs(pg))) if len(pg) else 0.0


def escape_probes(x: np.ndarray, directions, lower: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Probe points of the escape directions, the probe step and the margin.

    Row ``i`` of the points is ``max(x + step·d_i, lower)`` with
    ``step = 1e-7·scale`` and ``scale = 1 + |x|_inf``.  A probe counts as
    a descent when its value falls below ``f(x)`` by more than the
    margin, ``1e-14·scale``.  :func:`_escape_move` probes these points,
    and the solver's direction screen bounds the change at them.
    """
    scale = 1.0 + float(np.max(np.abs(x), initial=0.0))
    step = _PROBE * scale
    points = np.array(directions, dtype=float).reshape(len(directions), len(x))
    points *= step
    points += x
    return np.maximum(points, lower, out=points), step, _DECREASE * scale


def polish_keeps(f_candidate: float, f: float) -> bool:
    """Whether polish adopts a candidate of value ``f_candidate`` over a
    current best of value ``f``.

    Every candidate is admissible, and an exact vertex at equal value
    recovers better than one plus float dust, so a finite candidate
    within ``8 eps (1 + |f|)`` above ``f`` is kept.
    """
    return math.isfinite(f_candidate) and f_candidate <= f + _TIE_SLACK * (1.0 + abs(f))


def _polish(fun, x, f, g, lower, generators, floor=None):
    """Evaluate the generators' points and keep the best; return
    ``(x, f, g, evals, kept)``.

    Each generator is called with the best point so far and may propose
    one point or several; a proposal equal to that point is skipped
    without an evaluation, and one that :func:`polish_keeps` accepts
    becomes the best.  ``kept`` says whether any proposal was adopted.

    With ``floor``, called as ``floor(x, points)`` with the best point so
    far and the proposals still to come (rows), a proposal whose lower
    bound :func:`polish_keeps` rejects is skipped without an evaluation:
    its value could only be rejected too.  After a kept proposal, the
    ones still to come are bounded again from it, so each is judged
    against the best point it would have met, and the outcome is the
    same as without ``floor``.  A ``-inf`` or NaN bound proves nothing.
    """
    evals = 0
    kept = False
    for generator in generators:
        proposals = generator(x)
        if isinstance(proposals, np.ndarray):
            proposals = [proposals]
        pending = [np.maximum(np.asarray(x_c, dtype=float), lower) for x_c in proposals]
        first, bounds = 0, None
        for i, x_c in enumerate(pending):
            if np.array_equal(x_c, x):
                continue
            if floor is not None:
                if bounds is None:
                    first, bounds = i, floor(x, np.array(pending[i:]))
                bound = bounds[i - first]
                if bound > -math.inf and not polish_keeps(bound, f):
                    continue
            f_c, g_c = fun(x_c)
            evals += 1
            if polish_keeps(f_c, f):
                x, f, g = x_c, f_c, np.asarray(g_c, dtype=float)
                kept = True
                bounds = None
    return x, f, g, evals, kept


def _escape_move(fun, x, f, lower, directions):
    """Line-search the given directions in order; return (x, f, g, evals) or None.

    Each direction is first probed at the point :func:`escape_probes`
    gives; one whose probe descends is minimized exactly in 1-D: the
    restriction of a convex function is unimodal, so a doubling bracket
    plus golden-section search suffices.  The first direction that
    lowers the value wins.  Only the supplied directions are tried, so an
    empty list costs no evaluation; the solver supplies tie-graph moves
    that survived its first-order screen.
    """
    probes, step, margin = escape_probes(x, directions, lower)
    evals = 0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for d, x_probe in zip(directions, probes):

        def phi(t):
            return fun(np.maximum(x + t * d, lower))

        f_probe, _ = fun(x_probe)
        evals += 1
        if not (f_probe < f - margin):
            continue
        hi = step
        f_prev = f_probe
        for _ in range(80):
            hi *= 2.0
            f_hi, _ = phi(hi)
            evals += 1
            if not math.isfinite(f_hi) or f_hi >= f_prev:
                break
            f_prev = f_hi
        a, b = 0.0, hi
        c = b - inv_phi * (b - a)
        e = a + inv_phi * (b - a)
        fc, _ = phi(c)
        fe, _ = phi(e)
        evals += 2
        while b - a > 1e-9 * max(1.0, b):
            if fc <= fe:
                b, e, fe = e, c, fc
                c = b - inv_phi * (b - a)
                fc, _ = phi(c)
            else:
                a, c, fc = c, e, fe
                e = a + inv_phi * (b - a)
                fe, _ = phi(e)
            evals += 1
        t_best = 0.5 * (a + b)
        x_new = np.maximum(x + t_best * d, lower)
        f_new, g_new = fun(x_new)
        evals += 1
        if math.isfinite(f_new) and f_new < f - margin:
            return x_new, f_new, np.asarray(g_new, dtype=float), evals
    return None


def _two_loop(g: np.ndarray, pairs: list[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def _truncated_cg(product, g: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, int]:
    """A truncated conjugate-gradient solve of ``H d = -g`` over the free
    coordinates, ``active`` ones held at 0; returns ``d`` and the number
    of products with ``H``.

    It stops once the residual is within ``min(0.5, sqrt|g|) |g|``
    (Eisenstat and Walker's forcing term, 2-norms) or on a direction of
    no positive curvature, keeping the steps taken before it (none on
    the first: then ``d`` is 0).
    """
    g_norm = float(np.linalg.norm(g))
    tol = min(0.5, math.sqrt(g_norm)) * g_norm
    d = np.zeros_like(g)
    r = -g
    p = r.copy()
    rr = g_norm * g_norm
    products = 0
    for _ in range(len(g)):
        hp = product(p)
        hp[active] = 0.0
        products += 1
        curvature = float(p @ hp)
        if not curvature > 0.0:
            break
        step = rr / curvature
        d += step * p
        r -= step * hp
        rr_next = float(r @ r)
        if math.sqrt(rr_next) <= tol:
            break
        p = r + (rr_next / rr) * p
        rr = rr_next
    return d, products


def minimize_bound_lbfgs(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray | None]],
    x0: np.ndarray,
    lower: np.ndarray,
    config: QNConfig | None = None,
    callback: Callable | None = None,
    polish_candidates: Sequence[Callable[[np.ndarray], np.ndarray]] | None = None,
    escape_directions: Callable[[np.ndarray], list] | None = None,
    line_search_screen: Callable[[np.ndarray, np.ndarray], bool] | None = None,
    certificate: Callable[[np.ndarray, float], bool] | None = None,
    polish_floor: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    hessian: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]] | None = None,
) -> QNResult:
    """Minimize ``fun`` subject to ``x >= lower``.

    Args:
        fun: Returns ``(value, gradient)``; value may be ``+inf``.
        x0: Starting point (projected onto the bounds if needed).
        lower: Coordinate lower bounds (``-inf`` allowed).
        config: Driver parameters.
        callback: Called as ``callback(k, x, value, grad, pg_norm)`` once
            per iteration before the step.
        polish_candidates: Point generators tried after termination, each
            called with the best point so far; a candidate is adopted
            when :func:`polish_keeps` accepts its value.
        escape_directions: Direction generator called when progress
            stalls; its directions are line-searched exactly, in order.
            Without it a stall ends the run.
        line_search_screen: Called as ``line_search_screen(x, d)`` when the
            first trial of a line search along ``d`` fails sufficient
            decrease.  True means ``f`` provably rises by more than the
            probe margin at the escape probe of ``d``
            (:func:`escape_probes`), and the search ends without further
            evaluations, as a failed one.  With a screen, failed trials
            halve the step rather than interpolate it.
        certificate: Called as ``certificate(x, value)`` at each iterate
            that passes the gradient test, and, with
            ``polish_candidates``, once at the best of the start point
            and its candidates, after the first callback, and once at
            the final polish's point when it keeps one.  True means
            the point is optimal: the driver ends there with status
            ``"converged"`` and no final polish (at the start, it first
            moves to the point in one iteration and calls the callback
            at it).  False at a gradient stop keeps the run going; at
            the start it changes nothing but the candidates'
            evaluations, and after the final polish the run ends
            ``"polished"``.  With a certificate, ``converged`` is true
            only after a True answer.
        polish_floor: Called as ``polish_floor(x, points)`` with the best
            point so far and polish proposals (rows), by the start check
            and the final polish.  It returns a lower bound on ``fun`` at
            each point, and a proposal whose bound :func:`polish_keeps`
            rejects is not evaluated; what polish keeps does not change.
        hessian: Called as ``hessian(x)`` at an iterate, it returns the
            product ``v -> H v`` with the Hessian of ``fun`` there.  The
            direction is then a truncated Newton-CG step on the free
            coordinates (:func:`_truncated_cg`), whose search starts at
            the unit step, in place of the two-loop direction; a retry
            after a failed search still goes along steepest descent.
            ``n_evals`` counts calls of ``fun`` alone: a Hessian product
            is not one, and ``hessian_products`` counts them.

    Returns:
        The best point found with convergence diagnostics.

    Raises:
        InfeasibleStartError: ``fun(x0)`` is infinite.
    """
    config = config or QNConfig()
    lower = np.asarray(lower, dtype=float)
    x = np.maximum(np.asarray(x0, dtype=float), lower)
    n_evals = 1
    f, g = fun(x)
    if not math.isfinite(f):
        raise InfeasibleStartError("objective is infinite at the starting point")
    g = np.asarray(g, dtype=float)

    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    products = 0
    status = "max_iter"
    converged = False
    iteration = 0
    fresh_restart = False
    recent: list[float] = []
    recent_pg: list[float] = []

    escapes_left = _MAX_ESCAPES

    def try_escape():
        nonlocal x, f, g, n_evals, escapes_left
        if escape_directions is None or escapes_left <= 0:
            return False
        escapes_left -= 1
        moved = _escape_move(fun, x, f, lower, escape_directions(x))
        if moved is None:
            return False
        x, f, g, extra = moved[0], moved[1], moved[2], moved[3]
        n_evals += extra
        pairs.clear()
        recent.clear()
        recent_pg.clear()
        return True

    certified = False
    while iteration < config.max_iter:
        pg_norm = _pg_norm(x, g, lower)
        if callback is not None:
            callback(iteration, x, f, g, pg_norm)
        if pg_norm <= config.grad_tol * max(1.0, abs(f)):
            # With a certificate the gradient test only proposes a stop; a
            # refusal keeps the run going.
            if certificate is None or certificate(x, f):
                status = "converged"
                converged = True
                certified = certificate is not None
                break
        if iteration == 0 and certificate is not None and polish_candidates:
            # Check the best rounded start once; a refusal leaves the run
            # as it was.
            x_c, f_c, g_c, extra, _ = _polish(fun, x, f, g, lower, polish_candidates, polish_floor)
            n_evals += extra
            if certificate(x_c, f_c):
                x, f, g = x_c, f_c, g_c
                iteration += 1
                if callback is not None:
                    callback(iteration, x, f, g, _pg_norm(x, g, lower))
                status = "converged"
                converged = certified = True
                break
        recent.append(f)
        recent_pg.append(pg_norm)
        if len(recent) > _STALL_WINDOW:
            recent.pop(0)
            recent_pg.pop(0)
            half = _STALL_WINDOW // 2
            f_flat = recent[0] - f <= _STALL_TOL * max(1.0, abs(f))
            pg_flat = min(recent_pg[half:]) >= 0.7 * min(recent_pg[:half])
            if f_flat and pg_flat:
                if try_escape():
                    iteration += 1
                    continue
                status = "stalled"
                break

        # Direction: Newton-CG or two-loop on the free-coordinate
        # gradient, holding coordinates that press against their bound.
        active = (x <= lower) & (g > 0.0)
        g_free = np.where(active, 0.0, g)
        newton = hessian is not None and not fresh_restart
        if newton:
            d, extra = _truncated_cg(hessian(x), g_free, active)
            products += extra
        else:
            d = -_two_loop(g_free, pairs)
        d[active] = 0.0
        descent = float(d @ g_free)
        if not np.all(np.isfinite(d)) or descent >= -1e-14 * float(
            np.linalg.norm(d) * np.linalg.norm(g_free)
        ):
            pairs.clear()
            newton = False
            d = -g_free

        # Projected weak-Wolfe line search.  Infinite values and failed
        # sufficient decrease shrink the bracket; a failed curvature
        # condition grows it.  The curvature test keeps the supplied
        # (s, y) pairs well scaled, which is what lets the memory track
        # nonsmooth objectives without collapsing the step size.
        alpha, lo_a, hi_a = 1.0, 0.0, math.inf
        if not pairs and not newton:
            # Without curvature pairs the direction has no length of its
            # own: start at the largest step of the halving sequence
            # (1, 1/2, 1/4, ...) that moves no coordinate by more than
            # 1 + |x|_inf, the scale of the escape probes.
            scale = 1.0 + float(np.max(np.abs(x), initial=0.0))
            reach = float(np.max(np.abs(d), initial=0.0))
            while alpha * reach > scale:
                alpha *= _SHRINK
        accepted = False
        x_new = x
        f_new, g_new = f, g
        fallback = None
        # Objective differences below the summation noise floor cannot
        # certify decrease; gradients remain accurate there, so a step
        # whose decrease drowns in noise is still accepted when the
        # curvature condition holds.
        noise = 32.0 * np.finfo(float).eps * (1.0 + abs(f))
        for trial in range(_MAX_BACKTRACKS):
            x_try = np.maximum(x + alpha * d, lower)
            step = x_try - x
            if not np.any(step):
                break
            f_try, g_try = fun(x_try)
            n_evals += 1
            slope = float(g @ step)
            threshold = _ARMIJO * slope
            if -threshold <= noise:
                threshold = noise
            shrink = _SHRINK
            if not math.isfinite(f_try) or f_try > f + threshold:
                hi_a = alpha
                if line_search_screen is not None:
                    if trial == 0 and line_search_screen(x, d):
                        break
                elif lo_a == 0.0 and math.isfinite(f_try):
                    # No shorter step has passed yet: shrink to the minimizer
                    # of the quadratic through f, the slope and f_try, kept
                    # within [0.1, 0.5] of the trial.
                    curve = f_try - f - slope
                    if slope < 0.0 and curve > 0.0:
                        shrink = min(max(-slope / (2.0 * curve), 0.1), _SHRINK)
            else:
                if f_try <= f + _ARMIJO * slope:
                    fallback = (x_try, f_try, g_try)
                if float(np.asarray(g_try) @ step) < _CURVATURE * slope:
                    lo_a = alpha
                else:
                    x_new, f_new, g_new = x_try, f_try, g_try
                    accepted = True
                    break
            alpha = 2.0 * lo_a if math.isinf(hi_a) else lo_a + shrink * (hi_a - lo_a)
            if alpha > 1e12:
                break
        if not accepted and fallback is not None:
            # Sufficient decrease was found but curvature never held
            # (typical right at a kink); take the decrease.
            x_new, f_new, g_new = fallback
            accepted = True

        if not accepted:
            if pairs or not fresh_restart:
                # Retry once from a clean slate along steepest descent.
                pairs.clear()
                fresh_restart = True
                iteration += 1
                continue
            if try_escape():
                fresh_restart = False
                iteration += 1
                continue
            status = "stalled"
            break
        fresh_restart = False

        s = x_new - x
        yv = np.asarray(g_new, dtype=float) - g
        sy = float(s @ yv)
        if sy > 1e-10 * float(np.linalg.norm(s) * np.linalg.norm(yv)):
            pairs.append((s, yv, 1.0 / sy))
            if len(pairs) > _MEMORY:
                pairs.pop(0)
        x, f, g = x_new, f_new, np.asarray(g_new, dtype=float)
        iteration += 1

    # Optional final polish: evaluate externally proposed points and keep
    # anything at least as good.  A certified start has nothing to polish.
    # A kept point is new, so the certificate is asked about it once.
    if polish_candidates and not certified:
        x, f, g, extra, kept = _polish(fun, x, f, g, lower, polish_candidates, polish_floor)
        n_evals += extra
        if kept:
            status = "polished"
            if certificate is not None and certificate(x, f):
                status = "converged"
                converged = True

    # Only the certificate, when there is one, can make the run converged.
    pg_norm = _pg_norm(x, g, lower)
    if certificate is None and pg_norm <= config.grad_tol * max(1.0, abs(f)):
        converged = True
    return QNResult(
        x=x,
        value=f,
        grad=g,
        pg_norm=pg_norm,
        iterations=iteration,
        n_evals=n_evals,
        converged=converged,
        status=status,
        hessian_products=products,
    )
