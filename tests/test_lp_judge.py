"""An independent LP judge: HiGHS (``scipy.optimize.linprog``) against ``solve``.

Max-flow, min-cost and piecewise-linear gain networks are linear
programs: each two-node edge ``{(-w, t) : lo <= w <= hi, t <= h(w)}``
with a concave piecewise-linear ``h`` is the epigraph of its segments.
The LP (``conftest.lp_optimum``) is written from the instance alone,
never from the solver, so the two optima agree only if both are right.
scipy is a test-only dependency and is imported there, lazily.
"""

import numpy as np
import pytest

from conftest import lp_optimum, maxflow_instance, mincost_instance, piecewise_dag_instance
from convexflows import solve
from convexflows.solver import DualPoint

_RTOL = 1e-7


def assert_matches_lp(instance, result, values=("dual_value", "primal_value")):
    reference = lp_optimum(instance)
    for name in values:
        value = getattr(result, name)
        assert abs(value - reference) <= _RTOL * (1.0 + abs(reference)), (name, value, reference)


def random_start(instance, rng):
    """Uniform node prices in [0, 1], source at 0 and sink at 1."""
    nu = rng.uniform(0.0, 1.0, instance.n)
    for j, value in instance.net_objective.fixed_coordinates():
        nu[j] = value
    return DualPoint(nu, [edge.incidence.gather(nu) for edge in instance.edges])


@pytest.mark.parametrize("n, seed", [(8, 0), (12, 1), (16, 2), (20, 3), (20, 4)])
def test_maxflow_matches_lp(n, seed):
    instance = maxflow_instance(n, 0.3, seed)
    assert_matches_lp(instance, solve(instance))


@pytest.mark.parametrize("seed", range(4))
def test_maxflow_from_random_prices_matches_lp(seed):
    instance = maxflow_instance(16, 0.3, seed)
    start = random_start(instance, np.random.default_rng(seed))
    assert_matches_lp(instance, solve(instance, start=start))


# Known defects (xfail_strict: a fix shows up as a failure of the mark):
_PIECEWISE_RECOVERY = pytest.mark.xfail(
    reason="recovery fits one supported segment per edge, which cannot reach a feasible "
    "flow on these multi-segment gain networks: the primal value is -inf"
)
_PIECEWISE_STALL = pytest.mark.xfail(
    reason="the driver stalls at dual value 21.325 against the LP optimum 20.6933"
)


@pytest.mark.parametrize("seed", range(3))
def test_mincost_dual_matches_lp(seed):
    instance = mincost_instance(seed)
    assert_matches_lp(instance, solve(instance), ["dual_value"])


@pytest.mark.parametrize("seed", range(3))
def test_mincost_primal_matches_lp(seed):
    instance = mincost_instance(seed)
    assert_matches_lp(instance, solve(instance), ["primal_value"])


@pytest.mark.parametrize("seed", [pytest.param(0, marks=_PIECEWISE_STALL), 1, 2])
def test_piecewise_linear_dual_matches_lp(seed):
    instance = piecewise_dag_instance(seed)
    assert_matches_lp(instance, solve(instance), ["dual_value"])


@_PIECEWISE_RECOVERY
@pytest.mark.parametrize("seed", range(3))
def test_piecewise_linear_primal_matches_lp(seed):
    instance = piecewise_dag_instance(seed)
    assert_matches_lp(instance, solve(instance), ["primal_value"])
