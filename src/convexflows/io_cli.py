"""Instance files, problem generators, and the command-line interface.

Instances travel as self-describing JSON documents with a closed set of
``kind`` tags; no executable content.  Generators are pure functions of
``(size, seed)``.  The CLI wraps solve / generate / check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import EdgeIncidence, Hyperedge, PrimalPoint, ProblemInstance, check_feasibility, primal_objective
from .edges import (
    FisherBasketEdge,
    GeometricMeanPool,
    LinearGain,
    PiecewiseLinearGain,
    PowerLossGain,
    TwoAssetGeometricPool,
    TwoNodeEdge,
)
from .objectives import (
    FisherObjective,
    LinearNonnegObjective,
    MaxFlowObjective,
    MinCostObjective,
    OpfQuadraticObjective,
    QuadraticPenalty,
)
from .solver import InfeasibleStartError, SolveResult, SolverConfig, UnboundedDualError, solve

__all__ = [
    "ParseError",
    "InstanceValidationError",
    "parse_instance",
    "serialize_instance",
    "instance_from_dict",
    "instance_to_dict",
    "gen_opf",
    "gen_cfmm",
    "gen_maxflow",
    "fisher_instance",
    "FisherLayout",
    "allocations_from_flows",
    "fisher_equilibrium_prices",
    "result_to_dict",
    "main",
]

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed instance document; the message carries the JSON path."""


class InstanceValidationError(ParseError):
    """Structurally valid document describing an inconsistent instance."""


def _get(obj: dict, key: str, path: str, kind=None):
    if key not in obj:
        raise ParseError(f"{path}: missing required field '{key}'")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _floats(value, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: expected a numeric array") from exc
    return arr


def _build_objective(doc: dict, n: int, path: str):
    kind = _get(doc, "kind", path, str)
    params = doc.get("params", {})
    if kind == "linear_nonneg":
        prices = _floats(_get(params, "prices", f"{path}.params"), f"{path}.params.prices")
        if len(prices) != n:
            raise InstanceValidationError(f"{path}: prices length {len(prices)} != n={n}")
        return LinearNonnegObjective(prices)
    if kind == "opf_quadratic":
        demands = _floats(_get(params, "demands", f"{path}.params"), f"{path}.params.demands")
        if len(demands) != n:
            raise InstanceValidationError(f"{path}: demands length {len(demands)} != n={n}")
        return OpfQuadraticObjective(demands)
    if kind == "maxflow":
        return MaxFlowObjective(n, source=int(params.get("source", 0)), sink=params.get("sink"))
    if kind == "mincost":
        return MinCostObjective(
            n,
            float(_get(params, "target", f"{path}.params")),
            source=int(params.get("source", 0)),
            sink=params.get("sink"),
        )
    if kind == "fisher":
        budgets = _floats(_get(params, "budgets", f"{path}.params"), f"{path}.params.budgets")
        n_goods = int(_get(params, "n_goods", f"{path}.params"))
        if len(budgets) + n_goods != n:
            raise InstanceValidationError(f"{path}: buyers + goods != n={n}")
        return FisherObjective(budgets, n_goods)
    raise ParseError(f"{path}.kind: unknown objective kind '{kind}'")


def _build_edge_oracle(kind: str, params: dict, path: str):
    if kind == "lossless":
        return TwoNodeEdge(LinearGain(slope=1.0, capacity=float(_get(params, "capacity", path))))
    if kind == "linear_gain":
        return TwoNodeEdge(
            LinearGain(
                slope=float(_get(params, "gain", path)),
                capacity=float(_get(params, "capacity", path)),
            )
        )
    if kind == "piecewise_linear":
        points = _get(params, "points", path, list)
        return TwoNodeEdge(PiecewiseLinearGain([(float(w), float(h)) for w, h in points]))
    if kind == "opf_line":
        return TwoNodeEdge(
            PowerLossGain(
                alpha=float(_get(params, "alpha", path)),
                beta=float(_get(params, "beta", path)),
                capacity=float(_get(params, "capacity", path)),
            )
        )
    if kind == "uniswap":
        return TwoAssetGeometricPool(
            _floats(_get(params, "reserves", path), f"{path}.reserves"),
            weight=float(params.get("weight", 0.5)),
            fee=float(params.get("fee", 1.0)),
        )
    if kind == "geometric_mean":
        return GeometricMeanPool(
            _floats(_get(params, "reserves", path), f"{path}.reserves"),
            _floats(_get(params, "weights", path), f"{path}.weights"),
            fee=float(params.get("fee", 1.0)),
        )
    if kind == "fisher_basket":
        return FisherBasketEdge(_floats(_get(params, "valuations", path), f"{path}.valuations"))
    raise ParseError(f"{path}.kind: unknown edge kind '{kind}'")


def instance_from_dict(doc: dict) -> ProblemInstance:
    version = _get(doc, "version", "$", int)
    if version != FORMAT_VERSION:
        raise ParseError(f"$.version: unsupported version {version}")
    n = _get(doc, "n", "$", int)
    if n < 1:
        raise InstanceValidationError("$.n: need at least one node")
    objective = _build_objective(_get(doc, "objective", "$", dict), n, "$.objective")
    edges_doc = _get(doc, "edges", "$", list)
    edges = []
    for k, edge_doc in enumerate(edges_doc):
        path = f"$.edges[{k}]"
        kind = _get(edge_doc, "kind", path, str)
        params = edge_doc.get("params", {})
        nodes = _get(edge_doc, "nodes", path, list)
        if any(not isinstance(j, int) for j in nodes):
            raise ParseError(f"{path}.nodes: node indices must be integers")
        if any(j < 0 or j >= n for j in nodes):
            raise InstanceValidationError(f"{path}.nodes: index out of range for n={n}")
        oracle = _build_edge_oracle(kind, params, path)
        try:
            incidence = EdgeIncidence(tuple(nodes))
        except ValueError as exc:
            raise InstanceValidationError(f"{path}.nodes: {exc}") from exc
        utility = None
        if "edge_utility" in edge_doc and edge_doc["edge_utility"] is not None:
            u_doc = edge_doc["edge_utility"]
            u_kind = _get(u_doc, "kind", f"{path}.edge_utility", str)
            if u_kind != "quadratic_penalty":
                raise ParseError(f"{path}.edge_utility.kind: unknown kind '{u_kind}'")
            utility = QuadraticPenalty(len(nodes))
        edges.append(Hyperedge(incidence=incidence, oracle=oracle, utility=utility))
    try:
        return ProblemInstance(n=n, edges=edges, net_objective=objective)
    except ValueError as exc:
        raise InstanceValidationError(f"$: {exc}") from exc


def parse_instance(text: str) -> ProblemInstance:
    """Parse an instance document; errors carry the offending JSON path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"$: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError("$: expected a JSON object")
    return instance_from_dict(doc)


def _objective_to_dict(objective) -> dict:
    if isinstance(objective, LinearNonnegObjective):
        return {"kind": "linear_nonneg", "params": {"prices": objective.c.tolist()}}
    if isinstance(objective, OpfQuadraticObjective):
        return {"kind": "opf_quadratic", "params": {"demands": objective.demands.tolist()}}
    if isinstance(objective, MaxFlowObjective):
        c = objective.conservation
        return {"kind": "maxflow", "params": {"source": c.source, "sink": c.sink}}
    if isinstance(objective, MinCostObjective):
        c = objective.conservation
        return {
            "kind": "mincost",
            "params": {"target": c.target, "source": c.source, "sink": c.sink},
        }
    if isinstance(objective, FisherObjective):
        return {
            "kind": "fisher",
            "params": {"budgets": objective.budgets.tolist(), "n_goods": objective.n_goods},
        }
    raise ValueError(f"cannot serialize objective type {type(objective).__name__}")


def _oracle_to_dict(oracle) -> tuple[str, dict]:
    if isinstance(oracle, TwoNodeEdge):
        gain = oracle.gain
        if isinstance(gain, LinearGain):
            if gain.slope == 1.0 and gain.input_lo == 0.0:
                return "lossless", {"capacity": gain.capacity}
            return "linear_gain", {"gain": gain.slope, "capacity": gain.capacity}
        if isinstance(gain, PiecewiseLinearGain):
            points = [[float(w), float(h)] for w, h in zip(gain._ws, gain._hs)]
            return "piecewise_linear", {"points": points}
        if isinstance(gain, PowerLossGain):
            return "opf_line", {"alpha": gain.alpha, "beta": gain.beta, "capacity": gain.capacity}
        raise ValueError(f"cannot serialize gain type {type(gain).__name__}")
    if isinstance(oracle, TwoAssetGeometricPool):
        return "uniswap", {
            "reserves": oracle.reserves.tolist(),
            "weight": oracle.weight,
            "fee": oracle.fee,
        }
    if isinstance(oracle, GeometricMeanPool):
        return "geometric_mean", {
            "reserves": oracle.reserves.tolist(),
            "weights": oracle.weights.tolist(),
            "fee": oracle.fee,
        }
    if isinstance(oracle, FisherBasketEdge):
        return "fisher_basket", {"valuations": oracle.valuations.tolist()}
    raise ValueError(f"cannot serialize edge type {type(oracle).__name__}")


def instance_to_dict(instance: ProblemInstance) -> dict:
    edges = []
    for edge in instance.edges:
        kind, params = _oracle_to_dict(edge.oracle)
        doc = {"kind": kind, "params": params, "nodes": list(edge.incidence.nodes)}
        if edge.utility is not None:
            doc["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
        edges.append(doc)
    return {
        "version": FORMAT_VERSION,
        "n": instance.n,
        "objective": _objective_to_dict(instance.net_objective),
        "edges": edges,
    }


def serialize_instance(instance: ProblemInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2, sort_keys=True) + "\n"


# -- generators ----------------------------------------------------------


def gen_maxflow(n: int, density: float, seed: int) -> dict:
    """Random directed max-flow instance with a guaranteed source-sink path."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if not (0.0 < density <= 1.0):
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    arcs: dict[tuple[int, int], int] = {}

    interior = rng.permutation(np.arange(1, n - 1))
    length = int(rng.integers(0, len(interior) + 1))
    path = [0, *interior[:length].tolist(), n - 1]
    for u, v in zip(path[:-1], path[1:]):
        arcs[(u, v)] = int(rng.integers(1, 11))
    for u in range(n):
        for v in range(n):
            if u == v or (u, v) in arcs:
                continue
            if rng.random() < density:
                arcs[(u, v)] = int(rng.integers(1, 11))

    edges = [
        {"kind": "lossless", "params": {"capacity": cap}, "nodes": [u, v]}
        for (u, v), cap in sorted(arcs.items())
    ]
    return {
        "version": FORMAT_VERSION,
        "n": n,
        "objective": {"kind": "maxflow", "params": {"source": 0, "sink": n - 1}},
        "edges": edges,
    }


def gen_opf(n: int, seed: int) -> dict:
    """Random power network: local 3-nearest-neighbor lines plus a few
    long-range ones, all bidirectional, with the standard loss family."""
    if n < 2:
        raise ValueError("need at least two nodes")
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))

    lines: set[tuple[int, int]] = set()
    for i in range(n):
        dists = np.linalg.norm(points - points[i], axis=1)
        order = np.argsort(dists)
        neighbors = [int(j) for j in order if j != i][: min(3, n - 1)]
        for j in neighbors:
            lines.add((min(i, j), max(i, j)))
    available = n * (n - 1) // 2 - len(lines)
    n_long = min(math.ceil(0.05 * n), available)
    added = 0
    while added < n_long:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in lines:
            continue
        lines.add(key)
        added += 1

    edges = []
    for i, j in sorted(lines):
        capacity = float(rng.choice([1.0, 2.0, 3.0]))
        params = {"alpha": 16.0, "beta": 0.25, "capacity": capacity}
        edges.append({"kind": "opf_line", "params": dict(params), "nodes": [i, j]})
        edges.append({"kind": "opf_line", "params": dict(params), "nodes": [j, i]})
    demands = rng.choice([0.5, 1.0, 2.0], size=n)
    return {
        "version": FORMAT_VERSION,
        "n": n,
        "objective": {"kind": "opf_quadratic", "params": {"demands": demands.tolist()}},
        "edges": edges,
    }


def gen_cfmm(m: int, seed: int, edge_penalties: bool = False) -> dict:
    """Random market network: two-asset pools (plain and weighted) and
    three-asset pools over ``ceil(2 sqrt(m))`` assets, unit reference prices."""
    if m < 1:
        raise ValueError("need at least one market")
    rng = np.random.default_rng(seed)
    n = math.ceil(2.0 * math.sqrt(m))
    edges = []
    for _ in range(m):
        kind = int(rng.choice(3, p=[0.4, 0.4, 0.2]))
        if kind == 2 and n < 3:
            kind = 0
        size = 3 if kind == 2 else 2
        nodes = [int(v) for v in rng.choice(n, size=size, replace=False)]
        reserves = rng.uniform(100.0, 200.0, size=size).tolist()
        if kind == 0:
            doc = {
                "kind": "uniswap",
                "params": {"reserves": reserves, "weight": 0.5, "fee": 1.0},
                "nodes": nodes,
            }
        elif kind == 1:
            doc = {
                "kind": "uniswap",
                "params": {"reserves": reserves, "weight": 0.8, "fee": 1.0},
                "nodes": nodes,
            }
        else:
            doc = {
                "kind": "geometric_mean",
                "params": {"reserves": reserves, "weights": [1.0 / 3.0] * 3, "fee": 1.0},
                "nodes": nodes,
            }
        if edge_penalties:
            doc["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
        edges.append(doc)
    return {
        "version": FORMAT_VERSION,
        "n": n,
        "objective": {"kind": "linear_nonneg", "params": {"prices": [1.0] * n}},
        "edges": edges,
    }


# -- bundled market fixture ------------------------------------------------


@dataclass
class FisherLayout:
    """Node and edge layout of a bipartite linear Fisher instance."""

    n_buyers: int
    n_goods: int
    pairs: list[tuple[int, int]] = field(default_factory=list)  # (buyer, good) per edge

    def buyer_node(self, i: int) -> int:
        return i

    def good_node(self, j: int) -> int:
        return self.n_buyers + j


def fisher_instance(budgets, valuations) -> tuple[ProblemInstance, FisherLayout]:
    """Linear Fisher market as a flow instance.

    Buyers are nodes ``0..n_b-1``, goods ``n_b..n_b+n_g-1``.  Each
    positive valuation becomes a two-node edge from the good to the
    buyer with gain equal to the valuation and capacity one (at most one
    unit of the good exists); segment recovery on these edges yields the
    equilibrium allocations.
    """
    budgets = np.asarray(budgets, dtype=float)
    valuations = np.asarray(valuations, dtype=float)
    n_b, n_g = valuations.shape
    if len(budgets) != n_b:
        raise ValueError("one budget per buyer required")
    layout = FisherLayout(n_buyers=n_b, n_goods=n_g)
    edges = []
    for i in range(n_b):
        for j in range(n_g):
            if valuations[i, j] <= 0.0:
                continue
            edges.append(
                Hyperedge(
                    incidence=EdgeIncidence((layout.good_node(j), layout.buyer_node(i))),
                    oracle=TwoNodeEdge(LinearGain(slope=float(valuations[i, j]), capacity=1.0)),
                )
            )
            layout.pairs.append((i, j))
    instance = ProblemInstance(
        n=n_b + n_g, edges=edges, net_objective=FisherObjective(budgets, n_g)
    )
    return instance, layout


def allocations_from_flows(layout: FisherLayout, flows) -> np.ndarray:
    """Buyer-by-good allocation matrix from recovered edge flows."""
    alloc = np.zeros((layout.n_buyers, layout.n_goods))
    for (i, j), flow in zip(layout.pairs, flows):
        alloc[i, j] = -float(flow[0])
    return alloc


def fisher_equilibrium_prices(node_prices, valuations, layout: FisherLayout) -> np.ndarray:
    """Equilibrium good prices from a solved dual point.

    The dual optimum is flat in a good's price whenever the good sells
    entirely to one buyer; complementary slackness picks the endpoint
    where no buyer's value-per-money strictly exceeds the price:
    ``mu_j = max_i nu_i * v_ij``.
    """
    buyer_prices = np.asarray(node_prices, dtype=float)[: layout.n_buyers]
    valuations = np.asarray(valuations, dtype=float)
    return np.max(buyer_prices[:, None] * valuations, axis=0)


# -- CLI -------------------------------------------------------------------


def result_to_dict(result: SolveResult) -> dict:
    return {
        "dual_value": result.dual_value,
        "primal_value": result.primal_value,
        "duality_gap": result.duality_gap,
        "relative_gap": result.relative_gap,
        "converged": result.converged,
        "status": result.status,
        "iterations": result.iterations,
        "node_prices": result.dual_point.node_prices.tolist(),
        "edge_prices": [eta.tolist() for eta in result.dual_point.edge_prices],
        "flows": [x.tolist() for x in result.flows],
        "net_flow": result.net_flow.tolist(),
    }


def _read_instance(path: str) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _cmd_solve(args) -> int:
    instance = _read_instance(args.instance)
    config = SolverConfig(grad_tol=args.tol, max_iter=args.max_iter)
    # A start outside the dual's domain or an unbounded edge subproblem
    # ends the solve with no result; report it as a status, not a crash.
    try:
        result = solve(instance, config=config)
    except InfeasibleStartError as exc:
        print(f"status=infeasible_start {exc}")
        return 2
    except UnboundedDualError as exc:
        print(f"status=unbounded {exc}")
        return 2
    if args.trace:
        result.trace.to_csv(args.trace)
    if args.out:
        # JSON has no infinities: a non-finite value (say, the -inf primal
        # value of an infeasible recovered point) is written as null.
        doc = {
            key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in result_to_dict(result).items()
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, allow_nan=False)
            handle.write("\n")
    print(
        f"status={result.status} iterations={result.iterations} "
        f"dual={result.dual_value:.10g} primal={result.primal_value:.10g} "
        f"rel_gap={result.relative_gap:.3e}"
    )
    certified = result.converged or result.relative_gap <= args.tol
    return 0 if certified and math.isfinite(result.primal_value) else 2


def _cmd_generate(args) -> int:
    if args.family == "opf":
        doc = gen_opf(args.size, args.seed)
    elif args.family == "cfmm":
        doc = gen_cfmm(args.size, args.seed, edge_penalties=args.edge_penalties)
    else:
        doc = gen_maxflow(args.size, args.density, args.seed)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _cmd_check(args) -> int:
    instance = _read_instance(args.instance)
    with open(args.result, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    flows = [np.asarray(x, dtype=float) for x in doc["flows"]]
    net_flow = np.asarray(doc["net_flow"], dtype=float)
    point = PrimalPoint(edge_flows=flows, net_flow=net_flow)
    report = check_feasibility(instance, point, args.tol)
    primal = primal_objective(instance, point, tol=args.tol)
    dual_value = float(doc["dual_value"])
    gap = dual_value - primal if math.isfinite(primal) else math.inf
    rel_gap = gap / (1.0 + abs(dual_value))
    ok = (
        report.ok
        and report.net_flow_residual <= args.tol * (1.0 + float(np.max(np.abs(net_flow))))
        and math.isfinite(primal)
        and rel_gap >= -args.tol
        and rel_gap <= args.gap_tol
    )
    print(
        f"feasible={report.ok} net_residual={report.net_flow_residual:.3e} "
        f"primal={primal:.10g} dual={dual_value:.10g} rel_gap={rel_gap:.3e} "
        f"=> {'OK' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexflows", description="Convex network flow solver over hypergraphs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--trace", help="write per-iteration CSV trace")
    p_solve.add_argument("--tol", type=float, default=1e-7)
    p_solve.add_argument("--max-iter", type=int, default=1000)
    p_solve.add_argument("--out", help="write the result JSON")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("generate", help="generate a random instance")
    p_gen.add_argument("family", choices=["opf", "cfmm", "maxflow"])
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--density", type=float, default=0.3, help="maxflow arc density")
    p_gen.add_argument("--edge-penalties", action="store_true", help="cfmm: quadratic edge penalties")
    p_gen.add_argument("-o", "--output", default="-")
    p_gen.set_defaults(func=_cmd_generate)

    p_check = sub.add_parser("check", help="verify a result file against its instance")
    p_check.add_argument("instance")
    p_check.add_argument("result")
    p_check.add_argument("--tol", type=float, default=1e-6)
    p_check.add_argument("--gap-tol", type=float, default=1e-4)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
