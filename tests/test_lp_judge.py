"""An independent LP judge: HiGHS (``scipy.optimize.linprog``) against ``solve``.

Max-flow, min-cost and piecewise-linear gain networks are linear
programs: each two-node edge ``{(-w, t) : lo <= w <= hi, t <= h(w)}``
with a concave piecewise-linear ``h`` is the epigraph of its segments.
The LP below is written from the instance alone, never from the solver,
so the two optima agree only if both are right.  scipy is a test-only
dependency and is imported here, lazily.
"""

import numpy as np
import pytest

from conftest import maxflow_instance, piecewise_dag_instance
from convexflows import EdgeIncidence, Hyperedge, MaxFlowObjective, MinCostObjective, ProblemInstance, solve
from convexflows.solver import DualPoint

_RTOL = 1e-7


def lp_optimum(instance):
    """Optimal value of the instance's flow problem, by HiGHS.

    The variables are each edge's input ``w`` and output ``t``; the net
    flow ``y`` is their incidence sum.  Supports max-flow and min-cost
    objectives over two-node edges with linear-segment gains.
    """
    from scipy.optimize import linprog

    n, m = instance.n, len(instance.edges)
    objective = instance.net_objective
    source, sink = objective.conservation.source, objective.conservation.sink
    # y = Y @ (w_0, t_0, w_1, t_1, ...)
    net = np.zeros((n, 2 * m))
    rows, rhs, bounds = [], [], []
    for e, edge in enumerate(instance.edges):
        u, v = edge.incidence.nodes
        net[u, 2 * e] -= 1.0
        net[v, 2 * e + 1] += 1.0
        gain = edge.oracle.gain
        bounds += [(gain.input_lo, gain.input_hi), (None, None)]
        for w_a, _, slope in gain.linear_segments():
            row = np.zeros(2 * m)
            row[2 * e], row[2 * e + 1] = -slope, 1.0  # t - slope * w <= h(w_a) - slope * w_a
            rows.append(row)
            rhs.append(gain.value(w_a) - slope * w_a)
    interior = [j for j in range(n) if j not in (source, sink)]
    rows += list(-net[interior])  # y_j >= 0 inside
    rhs += [0.0] * len(interior)
    rows.append(-(net[source] + net[sink]))  # y_source + y_sink >= 0
    rhs.append(0.0)
    if isinstance(objective, MaxFlowObjective):
        cost = -net[sink]
    else:
        rows.append(-net[sink])  # y_sink >= target
        rhs.append(-objective.conservation.target)
        cost = np.zeros(2 * m)
    lp = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    assert lp.status == 0, lp.message
    return -lp.fun


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


def mincost_instance(seed):
    """Route half the max flow of a random lossless graph."""
    graph = maxflow_instance(12, 0.35, seed)
    flow = solve(graph).primal_value
    return ProblemInstance(n=graph.n, edges=graph.edges, net_objective=MinCostObjective(graph.n, 0.5 * flow))


# Known defects, strict so that a fix shows up as a failure of the mark:
_MINCOST_RECOVERY = pytest.mark.xfail(
    strict=True,
    reason="MinCostObjective.recovery_target pins source and sink only when the sink is "
    "priced above the source; at the uniform-price optima polish lands on, the "
    "recovered flows route nothing and the primal value is -inf",
)
_PIECEWISE_RECOVERY = pytest.mark.xfail(
    strict=True,
    reason="recovery fits one supported segment per edge, which cannot reach a feasible "
    "flow on these multi-segment gain networks: the primal value is -inf",
)
_PIECEWISE_STALL = pytest.mark.xfail(
    strict=True, reason="the driver stalls at dual value 21.325 against the LP optimum 20.6933"
)


@pytest.mark.parametrize("seed", range(3))
def test_mincost_dual_matches_lp(seed):
    instance = mincost_instance(seed)
    assert_matches_lp(instance, solve(instance), ["dual_value"])


@_MINCOST_RECOVERY
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
