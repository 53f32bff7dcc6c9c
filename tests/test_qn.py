import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize as scipy_minimize

from convexflows.qn import (
    InfeasibleStartError,
    QNConfig,
    _escape_move,
    _pg_norm,
    minimize_bound_lbfgs,
)


def quad(center, scale=None):
    scale = np.ones_like(center) if scale is None else scale

    def fun(x):
        d = x - center
        return 0.5 * float(scale @ (d * d)), scale * d

    return fun


def test_clipped_quadratic():
    center = np.array([2.0, -1.5, 0.7])
    res = minimize_bound_lbfgs(quad(center), np.ones(3), np.zeros(3))
    assert res.converged
    assert_allclose(res.x, [2.0, 0.0, 0.7], atol=1e-8)


def test_matches_scipy_on_random_quadratics():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        root = rng.normal(size=(n, n))
        hess = root @ root.T + 0.1 * np.eye(n)
        lin = rng.normal(size=n)
        lower = rng.uniform(-1.0, 0.5, size=n)

        def fun(x):
            return 0.5 * float(x @ hess @ x) + float(lin @ x), hess @ x + lin

        x0 = np.maximum(rng.normal(size=n), lower)
        res = minimize_bound_lbfgs(fun, x0, lower, QNConfig(grad_tol=1e-10))
        ref = scipy_minimize(
            lambda x: fun(x)[0],
            x0,
            jac=lambda x: fun(x)[1],
            bounds=[(lo, None) for lo in lower],
            method="L-BFGS-B",
            options={"ftol": 1e-15, "gtol": 1e-12},
        )
        assert res.value <= ref.fun + 1e-8 * (1.0 + abs(ref.fun))


def test_rosenbrock_with_bounds():
    def fun(x):
        a, b = x
        f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
        g = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
        return f, g

    res = minimize_bound_lbfgs(
        fun, np.array([-1.0, 1.5]), np.array([-2.0, -2.0]), QNConfig(max_iter=500)
    )
    assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_infinite_region_backtracking():
    # Log barrier: infinite for x <= 1, minimized at x = 2.
    def fun(x):
        if x[0] <= 1.0:
            return math.inf, None
        return -math.log(x[0] - 1.0) + x[0], np.array([-1.0 / (x[0] - 1.0) + 1.0])

    res = minimize_bound_lbfgs(fun, np.array([1.5]), np.zeros(1))
    assert res.converged
    assert res.x[0] == pytest.approx(2.0, abs=1e-6)


def test_infeasible_start_raises():
    def fun(x):
        return math.inf, None

    with pytest.raises(InfeasibleStartError):
        minimize_bound_lbfgs(fun, np.zeros(2), np.zeros(2))


def test_polyhedral_objective_reaches_kink():
    center = np.array([0.4, 1.3, 0.0])

    def fun(x):
        return float(np.sum(np.abs(x - center))), np.sign(x - center)

    res = minimize_bound_lbfgs(fun, np.full(3, 2.0), np.zeros(3), QNConfig(max_iter=300))
    assert res.value <= 1e-7


def test_polish_candidate_adopted():
    # The exact minimizer is integral; rounding the stalled iterate hits it.
    center = np.array([1.0, 3.0])

    def fun(x):
        return float(np.sum(np.abs(x - center))), np.sign(x - center)

    res = minimize_bound_lbfgs(
        fun,
        np.array([0.2, 0.7]),
        np.zeros(2),
        QNConfig(max_iter=60),
        polish_candidates=[np.round],
    )
    assert res.value == 0.0
    assert_allclose(res.x, center)


def _kink(center):
    def fun(x):
        return float(np.sum(np.abs(x - center))), np.sign(x - center)

    return fun


def test_certified_start_moves_once_and_ends():
    center = np.array([1.0, 3.0])
    seen, asked = [], []

    def certificate(x, f):
        asked.append((x.copy(), f))
        return f == 0.0

    res = minimize_bound_lbfgs(
        _kink(center),
        np.array([0.8, 2.6]),
        np.zeros(2),
        callback=lambda k, x, f, g, pg: seen.append((k, x.copy(), f)),
        polish_candidates=[np.round],
        certificate=certificate,
    )
    assert res.status == "converged" and res.converged
    assert res.iterations == 1 and res.n_evals == 2  # the start and its rounding
    assert np.array_equal(res.x, center) and res.value == 0.0
    assert len(asked) == 1 and np.array_equal(asked[0][0], center)
    # The trace ends at the adopted point.
    assert [k for k, _, _ in seen] == [0, 1]
    assert np.array_equal(seen[-1][1], center) and seen[-1][2] == 0.0


def test_refused_certificate_changes_only_the_evaluation_count():
    # The start rounds to the kink, which the refusing certificate is
    # asked about; neither run stops on the gradient test, where only
    # the plain one would end.
    center = np.array([1.0, 3.0])
    runs = []
    for certificate in (None, lambda x, f: False):
        seen = []
        res = minimize_bound_lbfgs(
            _kink(center),
            np.array([0.8, 2.7]),
            np.zeros(2),
            QNConfig(max_iter=60),
            callback=lambda k, x, f, g, pg: seen.append((k, x.copy(), f)),
            polish_candidates=[np.round],
            certificate=certificate,
        )
        runs.append((res, seen))
    (plain, plain_seen), (refused, refused_seen) = runs
    assert refused.n_evals == plain.n_evals + 1
    assert refused.status == plain.status and refused.iterations == plain.iterations
    assert np.array_equal(refused.x, plain.x) and refused.value == plain.value
    assert len(refused_seen) == len(plain_seen)
    for (k, x, f), (k2, x2, f2) in zip(plain_seen, refused_seen):
        assert k == k2 and np.array_equal(x, x2) and f == f2


def test_refused_gradient_stop_keeps_iterating():
    # The certificate refuses the first two gradient stops; the run goes
    # on from each and stops at the third.
    fun = quad(np.array([2.0, -1.5, 0.7]), np.array([1.0, 40.0, 3.0]))
    plain = minimize_bound_lbfgs(fun, np.ones(3), np.zeros(3))
    asked = []

    def certificate(x, f):
        asked.append(_pg_norm(x, fun(x)[1], np.zeros(3)))
        return len(asked) == 3

    res = minimize_bound_lbfgs(fun, np.ones(3), np.zeros(3), certificate=certificate)
    assert res.status == "converged" and res.converged
    assert len(asked) == 3 and asked[0] == plain.pg_norm
    assert asked[2] < asked[1] < asked[0]
    assert res.iterations > plain.iterations


def test_refusing_certificate_never_converges():
    # A small projected gradient at the end does not stand in for the
    # certificate's answer.
    fun = quad(np.array([2.0, -1.5, 0.7]))
    res = minimize_bound_lbfgs(
        fun, np.ones(3), np.zeros(3), QNConfig(max_iter=50), certificate=lambda x, f: False
    )
    assert res.pg_norm <= 1e-7
    assert not res.converged and res.status != "converged"


def test_callback_sees_every_iteration():
    seen = []

    def cb(k, x, f, g, pg):
        seen.append((k, f))

    res = minimize_bound_lbfgs(
        quad(np.array([3.0, 3.0])), np.zeros(2), np.zeros(2), callback=cb
    )
    assert len(seen) == res.iterations + 1  # initial point plus each step
    values = [f for _, f in seen]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_escape_move_tries_only_supplied_directions():
    # Tied coordinates add no generic group moves: with no directions
    # supplied the escape gives up without evaluating anything.
    calls = []
    base = quad(np.array([2.0, 2.0, 2.0]))

    def fun(x):
        calls.append(x.copy())
        return base(x)

    x = np.array([0.5, 0.5, 0.5])
    f, _ = base(x)
    assert _escape_move(fun, x, f, np.zeros(3), []) is None
    assert calls == []
    moved = _escape_move(fun, x, f, np.zeros(3), [np.ones(3)])
    assert moved is not None and moved[1] < f
    assert len(calls) == moved[3]


@pytest.mark.parametrize("name", ["grad_tol", "max_iter"])
@pytest.mark.parametrize("value", [0, -1.0, math.nan, -math.inf])
def test_config_rejects_nonpositive_and_nan_fields(name, value):
    # A NaN max_iter would end the run at once with status max_iter.
    with pytest.raises(ValueError, match=f"QNConfig.{name}"):
        QNConfig(**{name: value})


@pytest.mark.parametrize("value", [2.5, True, math.inf])
def test_config_rejects_a_max_iter_that_is_not_a_count(value):
    # As SolverConfig does: 2.5 used to run 3 iterations and True one.
    with pytest.raises(ValueError, match="QNConfig.max_iter"):
        QNConfig(max_iter=value)


def _first_search_trials(fun, x0, lower, **options):
    """The points the first line search evaluates, in order."""
    points = []

    def recording(x):
        points.append(x.copy())
        return fun(x)

    minimize_bound_lbfgs(recording, x0, lower, QNConfig(max_iter=1), **options)
    return points[1:]


# Curvatures far apart: the steepest-descent direction from the ones
# vector has |d|_inf = 5000 at prices of scale 2.
_STEEP_CENTER = np.array([0.5, 2.0, 1.5])
_STEEP_SCALE = np.array([1e4, 1.0, 30.0])


def test_first_search_stays_within_the_price_scale():
    x0 = np.ones(3)
    trials = _first_search_trials(quad(_STEEP_CENTER, _STEEP_SCALE), x0, np.full(3, -np.inf))
    assert len(trials) >= 2
    scale = 1.0 + np.max(np.abs(x0))
    for x in trials:
        assert np.max(np.abs(x - x0)) <= scale


def test_first_trial_is_the_largest_halving_that_fits():
    x0 = np.ones(3)
    fun = quad(_STEEP_CENTER, _STEEP_SCALE)
    d = -fun(x0)[1]
    scale = 1.0 + np.max(np.abs(x0))
    k = 0
    while 2.0**-k * np.max(np.abs(d)) > scale:
        k += 1
    assert k > 0 and 2.0 ** (1 - k) * np.max(np.abs(d)) > scale
    trials = _first_search_trials(fun, x0, np.full(3, -np.inf))
    assert np.array_equal(trials[0], x0 + 2.0**-k * d)


def test_well_scaled_first_search_starts_at_the_full_step():
    # |d|_inf = 1 < 1 + |x0|_inf: nothing is skipped, and the search
    # tries the full step first.  The minimizer along d lies at half of
    # it, where the quadratic model puts the second trial.
    x0 = np.array([1.0, 0.5])
    fun = quad(np.array([0.5, 0.5]), np.array([2.0, 1.0]))
    d = -fun(x0)[1]
    trials = _first_search_trials(fun, x0, np.full(2, -np.inf))
    assert np.max(np.abs(d)) <= 1.0 + np.max(np.abs(x0))
    assert [x.tolist() for x in trials] == [(x0 + 2.0**-j * d).tolist() for j in range(len(trials))]
    assert len(trials) >= 2


def test_second_trial_is_the_model_minimizer_on_a_quadratic():
    # The full step overshoots; the quadratic through f(x0), the slope
    # and the trial value is the objective itself along d, so the second
    # trial lands on the minimizer (at 0.4 of the step) and is accepted.
    x0 = np.array([1.0, 0.5])
    center = np.array([0.2, 0.5])
    fun = quad(center, np.array([2.5, 1.0]))
    d = -fun(x0)[1]
    trials = _first_search_trials(fun, x0, np.full(2, -np.inf))
    assert len(trials) == 2 and np.array_equal(trials[0], x0 + d)
    assert_allclose(trials[1], center, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "curvature, clamp",
    [
        # Along d the minimizer is at 1/100 of the full step: clamped up.
        (100.0, 0.1),
        # At 0.50002: the full step lowers f, but too little to pass.
        (1.0 / 0.50002, 0.5),
    ],
    ids=["lower", "upper"],
)
def test_model_step_is_clamped_to_a_tenth_and_a_half(curvature, clamp):
    # f = curvature/2 (x - c)^2 from 0 puts its minimizer at
    # 1/curvature of the steepest-descent step.
    fun = quad(np.array([0.5 / curvature]), np.array([curvature]))
    x0 = np.zeros(1)
    f0, g0 = fun(x0)
    d = -g0
    assert 0.0 < d[0] <= 1.0  # the search starts at the full step
    trials = _first_search_trials(fun, x0, np.full(1, -np.inf))
    assert np.array_equal(trials[0], x0 + d)
    assert fun(trials[0])[0] > f0 + 1e-4 * float(g0 @ d)  # no sufficient decrease
    assert np.array_equal(trials[1], x0 + clamp * d)


def _barrier_quad(x):
    # A quadratic centred at 2, infinite from 0.5 on.
    if x[0] >= 0.5:
        return math.inf, None
    return 0.5 * (x[0] - 2.0) ** 2, np.array([x[0] - 2.0])


def test_infinite_trial_halves():
    x0 = np.array([-0.5])
    d = -_barrier_quad(x0)[1]
    trials = _first_search_trials(_barrier_quad, x0, np.full(1, -np.inf))
    assert _barrier_quad(trials[0])[0] == math.inf
    assert np.array_equal(trials[0], x0 + d / 2.0)  # the largest halving within 1 + |x0|_inf
    assert np.array_equal(trials[1], x0 + d / 4.0)


def test_screened_search_still_halves():
    # The lower-clamp case, but with a screen that never ends the search:
    # it is asked once, and the trials halve.
    fun = quad(np.array([0.005]), np.array([100.0]))
    x0 = np.zeros(1)
    d = -fun(x0)[1]
    asked = []

    def screen(x, direction):
        asked.append(direction.copy())
        return False

    trials = _first_search_trials(fun, x0, np.full(1, -np.inf), line_search_screen=screen)
    assert len(asked) == 1
    assert len(trials) >= 3
    assert [x.tolist() for x in trials[:3]] == [(x0 + 2.0**-j * d).tolist() for j in range(3)]
