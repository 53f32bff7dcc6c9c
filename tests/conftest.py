"""Shared fixture builders and references for the test suite."""

import decimal

import numpy as np

from convexflows import (
    EdgeIncidence,
    Hyperedge,
    LinearNonnegObjective,
    MaxFlowObjective,
    MinCostObjective,
    OpfQuadraticObjective,
    ProblemInstance,
    QuadraticPenalty,
    TwoAssetGeometricPool,
    GeometricMeanPool,
    lossless_edge,
    piecewise_linear_edge,
    solve,
)
from convexflows.io_cli import gen_cfmm, gen_maxflow, gen_opf, instance_from_dict


def path_maxflow_instance(caps=(1.0, 2.0)):
    """Chain 0 -> 1 -> ... -> len(caps) with lossless capacities."""
    n = len(caps) + 1
    edges = [
        Hyperedge(EdgeIncidence((i, i + 1)), lossless_edge(cap))
        for i, cap in enumerate(caps)
    ]
    return ProblemInstance(n=n, edges=edges, net_objective=MaxFlowObjective(n))


def two_pool_arbitrage_instance():
    """Two-asset arbitrage between pools quoting different prices."""
    edges = [
        Hyperedge(EdgeIncidence((0, 1)), TwoAssetGeometricPool([100.0, 100.0], 0.5, 1.0)),
        Hyperedge(EdgeIncidence((0, 1)), TwoAssetGeometricPool([80.0, 120.0], 0.5, 1.0)),
    ]
    return ProblemInstance(
        n=2, edges=edges, net_objective=LinearNonnegObjective([1.0, 1.0])
    )


def three_asset_pool_instance():
    """One three-asset pool serving quadratic demands."""
    pool = GeometricMeanPool([100.0, 150.0, 200.0], [1 / 3, 1 / 3, 1 / 3], 1.0)
    edges = [Hyperedge(EdgeIncidence((0, 1, 2)), pool)]
    return ProblemInstance(
        n=3, edges=edges, net_objective=OpfQuadraticObjective([0.5, 1.0, 2.0])
    )


def opf_instance(n=10, seed=0):
    return instance_from_dict(gen_opf(n, seed))


def cfmm_instance(m=10, seed=0, edge_penalties=False):
    return instance_from_dict(gen_cfmm(m, seed, edge_penalties=edge_penalties))


def maxflow_instance(n=8, density=0.35, seed=0):
    return instance_from_dict(gen_maxflow(n, density, seed))


# Gains above one on the first piece: at zero or near-tied prices the
# maximizer can jump past the face endpoints, so the bound is not exact.
_PIECES = [(0.0, 0.0), (1.0, 1.2), (2.0, 2.2), (3.0, 2.7)]


def piecewise_dag_instance(seed, n=8, density=0.7):
    """Max-flow over an acyclic graph of four-point piecewise-linear gains."""
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                c = float(rng.integers(1, 4))
                edges.append(
                    Hyperedge(EdgeIncidence((u, v)), piecewise_linear_edge([(w * c, h * c) for w, h in _PIECES]))
                )
    return ProblemInstance(n=n, edges=edges, net_objective=MaxFlowObjective(n))


def maxflow_arcs(instance):
    """(u, v, cap) arc list of a lossless max-flow instance."""
    arcs = []
    for edge in instance.edges:
        u, v = edge.incidence.nodes
        arcs.append((u, v, edge.oracle.gain.capacity))
    return arcs


def group_edges(program, group):
    """The edge positions a dual program's group answers, in its row order:
    the edges that own its buffer entries, each edge's entries in a run."""
    owners = np.searchsorted(program.offsets, np.ravel(group.entries), side="right") - 1
    return owners[np.diff(owners, prepend=-1) != 0].tolist()


def answered_by(program):
    """``{edge position: kernel kind}`` over a dual program's groups, with
    None for an edge answered one by one through its own oracle."""
    return {pos: group.kind for group in program._groups for pos in group_edges(program, group)}


def quadratic_penalty_on(instance, every=1):
    """Copy of the instance with a quadratic penalty on every ``every``-th edge."""
    edges = [
        Hyperedge(e.incidence, e.oracle, QuadraticPenalty(e.incidence.dim) if k % every == 0 else None)
        for k, e in enumerate(instance.edges)
    ]
    return ProblemInstance(n=instance.n, edges=edges, net_objective=instance.net_objective)


def random_prices(rng, dim, lo=0.05, hi=3.0):
    return rng.uniform(lo, hi, size=dim)


def interior_dual_point(instance, rng):
    """Random dual point strictly inside the domain (off the bounds)."""
    from convexflows.solver import DualPoint

    lower = np.maximum(np.asarray(instance.net_objective.lower_bounds(), float), 0.0)
    nu = lower + rng.uniform(0.25, 1.75, size=instance.n)
    for j, value in instance.net_objective.fixed_coordinates():
        nu[j] = value
    etas = []
    for edge in instance.edges:
        base = edge.incidence.gather(nu)
        if edge.utility is None:
            etas.append(base)
        else:
            etas.append(base + rng.uniform(0.05, 0.9, size=edge.incidence.dim))
    return DualPoint(node_prices=nu, edge_prices=etas)


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


def mincost_instance(seed):
    """Route half the max flow of a random lossless graph."""
    graph = maxflow_instance(12, 0.35, seed)
    flow = solve(graph).primal_value
    return ProblemInstance(n=graph.n, edges=graph.edges, net_objective=MinCostObjective(graph.n, 0.5 * flow))


def geometric_pool_by_decimal(pool, prices, digits=40, s=None):
    """Exact trade against a geometric mean pool, to ``digits`` digits.

    The log residual ``sum_j w_j log(post_j / r_j)`` is piecewise linear
    in ``u = log(lam)``, with asset j received below ``log s_j``, idle up
    to ``log(s_j / fee)`` and tendered above; its root is the weighted
    mean of the active knots on the piece that contains that mean.
    ``s_j = p_j r_j / w_j`` is exact unless ``s`` gives it: a closed
    form that works from the floats ``s_j`` can answer only for those,
    and below the normal range a float keeps few of their digits.  A
    two-asset pool is the one of weights ``(w, 1 - w)``.  Returns
    ``(value, flow, pattern)`` with the pattern per asset one of
    ``"receive"``, ``"idle"`` and ``"tender"``; an amount past the float
    range reads as an infinite float.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        r = [D(v) for v in pool.reserves]
        w = [D(v) for v in pool.weights]
        p = [D(float(v)) for v in prices]
        fee = D(pool.fee)
        if s is None:
            log_s = [(pj * rj / wj).ln() for pj, rj, wj in zip(p, r, w)]
        else:
            log_s = [D(float(v)).ln() for v in s]
        log_fee = fee.ln()
        knots = sorted(set(log_s) | {k - log_fee for k in log_s})
        lows = [None] + knots
        highs = knots + [None]
        for lo, hi in zip(lows, highs):
            probe = lo if hi is None else hi if lo is None else (lo + hi) / 2
            sides = [
                "receive" if probe < k else "tender" if probe > k - log_fee else "idle"
                for k in log_s
            ]
            active = [j for j, side in enumerate(sides) if side != "idle"]
            if not active:
                continue
            mean = sum(
                w[j] * (log_s[j] - (log_fee if sides[j] == "tender" else 0)) for j in active
            ) / sum(w[j] for j in active)
            if (lo is None or lo <= mean) and (hi is None or mean <= hi):
                break
        else:
            return 0.0, [0.0] * len(r), ["idle"] * len(r)
        flow = []
        for j, side in enumerate(sides):
            if side == "receive":
                flow.append(r[j] * (1 - (mean - log_s[j]).exp()))
            elif side == "tender":
                flow.append(-r[j] * ((mean - log_s[j] + log_fee).exp() - 1) / fee)
            else:
                flow.append(D(0))
        value = sum(pj * x for pj, x in zip(p, flow))
        return float(value), [float(x) for x in flow], sides
