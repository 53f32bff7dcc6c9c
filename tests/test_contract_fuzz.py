"""Seeded contract fuzz over small instances of every solved family.

Each case is one generated instance, fixed by its family and seed.  The
contract of :func:`convexflows.solve` on it:

- the solve raises nothing, and its result file is strict JSON;
- a ``converged`` solve returns a point that passes ``check_feasibility``
  at ``feas_tol``, with a finite primal value within
  ``feas_tol * (1 + |dual|)`` of the dual value;
- a finite dual value is what :func:`convexflows.eval_dual` gives at the
  result's dual point, within ``1e-12 * (1 + |dual|)``: the explicit
  form, summed edge by edge, checks the pass's sum, also in edge order
  (the tolerance covers a penalized edge, whose utility's conjugate the
  explicit form adds as a term of its own);
- ``check_feasibility`` on the instance, which tests column-stored edges
  a group at a time, gives the report that it gives on the same edges
  given as a list of records (which the instance packs again), and the
  membership each record's ``is_member`` gives, both at the result's
  flows and with every third edge's flow moved by 0.5;
- a second solve returns the same bytes;
- the instance's document parses to the same kernel groups and group
  bytes, which solve to the same bytes.

The seed range is fixed.  A case that breaks the contract is marked as
a strict xfail that names the fault; it is never dropped from the range.
"""

import json
import math

import numpy as np
import pytest

from conftest import piecewise_dag_instance
from convexflows import PrimalPoint, ProblemInstance, SolverConfig, check_feasibility, eval_dual, solve
from convexflows.io_cli import (
    fisher_instance,
    gen_cfmm,
    gen_maxflow,
    gen_opf,
    instance_from_dict,
    parse_instance,
    result_to_dict,
    serialize_instance,
)

SEEDS = range(10)


def _fisher(seed):
    rng = np.random.default_rng(seed)
    buyers, goods = 2 + seed % 3, 2 + seed % 4
    return fisher_instance(rng.uniform(1.0, 3.0, buyers), rng.uniform(0.5, 2.5, (buyers, goods)))[0]


FAMILIES = {
    "maxflow": lambda seed: instance_from_dict(gen_maxflow(8, 0.3, seed)),
    "opf": lambda seed: instance_from_dict(gen_opf(12, seed)),
    "cfmm": lambda seed: instance_from_dict(gen_cfmm(8, seed)),
    "cfmm_pen": lambda seed: instance_from_dict(gen_cfmm(8, seed, edge_penalties=True)),
    "fisher": _fisher,
    "dag": lambda seed: piecewise_dag_instance(seed, n=6),
}


def _answer(result):
    return (
        result.status,
        result.iterations,
        result.n_evals,
        np.float64(result.dual_value).tobytes(),
        np.float64(result.primal_value).tobytes(),
        result.dual_point.node_prices.tobytes(),
        result.flows.data.tobytes(),
        result.net_flow.tobytes(),
    )


@pytest.mark.parametrize("family, seed", [(family, seed) for family in FAMILIES for seed in SEEDS])
def test_solve_keeps_its_contract(family, seed):
    config = SolverConfig()
    instance = FAMILIES[family](seed)
    result = solve(instance, config=config)
    # As `convexflows solve --out` writes it: a non-finite value is null.
    doc = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in result_to_dict(result).items()}
    json.dumps(doc, allow_nan=False)
    if result.status == "converged":
        tol = config.feas_tol
        report = check_feasibility(instance, PrimalPoint(result.flows, result.net_flow), tol)
        assert report.ok
        assert report.net_flow_residual <= tol * (1.0 + float(np.max(np.abs(result.net_flow), initial=0.0)))
        assert math.isfinite(result.primal_value)
        assert abs(result.dual_value - result.primal_value) <= tol * (1.0 + abs(result.dual_value))
    if math.isfinite(result.dual_value):
        dual = eval_dual(instance, result.dual_point)
        assert abs(dual - result.dual_value) <= 1e-12 * (1.0 + abs(result.dual_value)), (dual, result.dual_value)
    edges = list(FAMILIES[family](seed).edges)
    records = ProblemInstance(n=instance.n, edges=edges, net_objective=instance.net_objective)
    moved = [flow + 0.5 if k % 3 == 0 else flow for k, flow in enumerate(result.flows)]
    for flows in (result.flows, moved):
        point = PrimalPoint(flows, result.net_flow)
        got, want = check_feasibility(instance, point, config.feas_tol), check_feasibility(records, point, config.feas_tol)
        assert (got.edge_membership, got.net_flow_residual) == (want.edge_membership, want.net_flow_residual)
        assert got.edge_membership == [edge.oracle.is_member(flow, config.feas_tol) for edge, flow in zip(edges, flows)]
    assert _answer(solve(FAMILIES[family](seed), config=config)) == _answer(result)


def _groups(instance):
    """The kernel groups a dual program forms (positions, kind, penalty,
    node and parameter bytes), and the group bytes of the edge table."""
    kernels = [
        (positions.tobytes(), columns.kind, columns.penalized, columns.nodes.tobytes(), [column.tobytes() for column in columns.params])
        for positions, columns in instance.edge_columns()
    ]
    return kernels, instance.edges.group.tobytes()


@pytest.mark.parametrize("family, seed", [(family, seed) for family in FAMILIES for seed in SEEDS])
def test_a_serialized_instance_parses_to_the_same_groups_and_solve(family, seed):
    instance = FAMILIES[family](seed)
    again = parse_instance(serialize_instance(instance))
    kernels, group = _groups(instance)
    assert _groups(again)[0] == kernels
    assert _groups(again)[1] == group
    assert _answer(solve(again)) == _answer(solve(instance))
