import json
import math

import numpy as np
import pytest

from convexflows import io_cli
from convexflows.io_cli import (
    InstanceValidationError,
    ParseError,
    allocations_from_flows,
    fisher_instance,
    gen_cfmm,
    gen_maxflow,
    gen_opf,
    instance_from_dict,
    instance_to_dict,
    main,
    parse_instance,
    serialize_instance,
)
from convexflows.solver import SolverConfig, UnboundedDualError, solve
from convexflows.validation import maxflow_oracle

MINIMAL = {
    "version": 1,
    "n": 2,
    "objective": {"kind": "maxflow", "params": {}},
    "edges": [{"kind": "lossless", "params": {"capacity": 2.0}, "nodes": [0, 1]}],
}


def test_parse_minimal_maxflow():
    instance = parse_instance(json.dumps(MINIMAL))
    assert instance.n == 2 and instance.m == 1


def test_round_trip_identity():
    for doc in (gen_opf(12, 3), gen_cfmm(9, 5, edge_penalties=True), gen_maxflow(6, 0.4, 1)):
        text = json.dumps(doc, indent=2, sort_keys=True)
        instance = parse_instance(text)
        again = serialize_instance(instance)
        assert json.loads(again) == json.loads(text)
        # Parsing the serialized form gives the same document again.
        assert json.loads(serialize_instance(parse_instance(again))) == json.loads(text)


def test_parse_errors_carry_paths():
    bad = dict(MINIMAL, edges=[{"kind": "mystery", "params": {}, "nodes": [0, 1]}])
    with pytest.raises(ParseError, match=r"\$\.edges\[0\]"):
        instance_from_dict(bad)
    with pytest.raises(ParseError, match="missing required field"):
        instance_from_dict({"version": 1, "n": 2, "edges": []})
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_instance("{not json")


def test_node_index_out_of_range_is_validation_error():
    bad = dict(MINIMAL, edges=[{"kind": "lossless", "params": {"capacity": 1.0}, "nodes": [0, 2]}])
    with pytest.raises(InstanceValidationError):
        instance_from_dict(bad)


def test_generators_deterministic():
    assert gen_opf(30, 7) == gen_opf(30, 7)
    assert gen_cfmm(25, 9) == gen_cfmm(25, 9)
    assert gen_maxflow(9, 0.3, 11) == gen_maxflow(9, 0.3, 11)
    assert gen_cfmm(25, 9) != gen_cfmm(25, 10)


def test_cfmm_asset_count_scaling():
    assert gen_cfmm(2500, 0)["n"] == 100
    doc = gen_cfmm(1, 0)
    assert doc["n"] == 2 and len(doc["edges"]) == 1


def test_cfmm_kind_frequencies():
    doc = gen_cfmm(10_000, 123)
    kinds = {"plain": 0, "weighted": 0, "multi": 0}
    for edge in doc["edges"]:
        if edge["kind"] == "geometric_mean":
            kinds["multi"] += 1
        elif edge["params"]["weight"] == 0.5:
            kinds["plain"] += 1
        else:
            kinds["weighted"] += 1
    assert abs(kinds["plain"] / 10_000 - 0.4) < 0.02
    assert abs(kinds["weighted"] / 10_000 - 0.4) < 0.02
    assert abs(kinds["multi"] / 10_000 - 0.2) < 0.02


def test_maxflow_generator_guarantees_path():
    for seed in range(30):
        doc = gen_maxflow(8, 0.15, seed)
        instance = instance_from_dict(doc)
        arcs = [
            (e["nodes"][0], e["nodes"][1], e["params"]["capacity"]) for e in doc["edges"]
        ]
        assert maxflow_oracle(instance.n, arcs) >= 1.0


def test_opf_generator_shape():
    doc = gen_opf(40, 5)
    assert len(doc["edges"]) % 2 == 0
    directed = {tuple(e["nodes"]) for e in doc["edges"]}
    for u, v in list(directed):
        assert (v, u) in directed  # every line runs both ways
    demands = set(doc["objective"]["params"]["demands"])
    assert demands <= {0.5, 1.0, 2.0}
    for e in doc["edges"]:
        assert e["params"]["alpha"] == 16.0 and e["params"]["beta"] == 0.25
        assert e["params"]["capacity"] in (1.0, 2.0, 3.0)
    tiny = gen_opf(2, 0)
    assert len(tiny["edges"]) == 2


def test_fisher_instance_layout():
    budgets = [1.0, 2.0]
    valuations = [[2.0, 0.0], [1.0, 3.0]]
    instance, layout = fisher_instance(budgets, valuations)
    assert instance.n == 4
    assert instance.m == 3  # zero valuation drops the edge
    alloc = allocations_from_flows(layout, [np.array([-0.5, 1.0])] * 3)
    assert alloc[0, 0] == 0.5 and alloc[0, 1] == 0.0


def test_generated_instances_solve_to_tolerance():
    # Smoke property: desk-size outputs of every generator solve cleanly.
    for doc in (gen_opf(15, 2), gen_cfmm(9, 3), gen_maxflow(7, 0.35, 4)):
        instance = instance_from_dict(doc)
        result = solve(instance, config=SolverConfig(grad_tol=1e-10))
        assert result.relative_gap <= 1e-6


# -- CLI ----------------------------------------------------------------------


def test_cli_generate_solve_check_cycle(tmp_path, capsys):
    instance_path = tmp_path / "inst.json"
    result_path = tmp_path / "result.json"
    trace_path = tmp_path / "trace.csv"

    assert main(["generate", "maxflow", "--size", "6", "--seed", "4", "-o", str(instance_path)]) == 0
    assert main([
        "solve", str(instance_path),
        "--out", str(result_path),
        "--trace", str(trace_path),
    ]) in (0, 2)
    capsys.readouterr()

    assert trace_path.read_text().startswith("iter,g,pg_norm,primal_residual,gap,time_s")
    result = json.loads(result_path.read_text())
    assert {"dual_value", "flows", "net_flow", "node_prices"} <= set(result)

    assert main(["check", str(instance_path), str(result_path)]) == 0
    capsys.readouterr()

    # Tampering with the flows must fail the check.
    result["flows"][0][1] += 0.5
    result_path.write_text(json.dumps(result))
    assert main(["check", str(instance_path), str(result_path)]) == 1


def test_cli_solve_result_is_strict_json_and_exit_needs_finite_primal(tmp_path, capsys):
    # On this instance the recovered net flow is infeasible, so the primal
    # value is -inf even though the dual driver reports convergence.
    instance_path = tmp_path / "inst.json"
    result_path = tmp_path / "result.json"
    assert main(["generate", "cfmm", "--size", "1600", "--seed", "0", "-o", str(instance_path)]) == 0
    code = main(["solve", str(instance_path), "--out", str(result_path)])
    capsys.readouterr()

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    doc = json.loads(result_path.read_text(), parse_constant=reject)
    assert code == 2 or doc["primal_value"] is not None
    if doc["primal_value"] is None:
        assert doc["duality_gap"] is None and doc["relative_gap"] is None


def test_cli_generate_to_stdout(capsys):
    assert main(["generate", "cfmm", "--size", "3", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4


def test_cli_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["solve", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_solve_reports_infeasible_start(tmp_path, capsys):
    # The source price is pinned at 0, where the pool's price subproblem
    # has no attained maximizer, so the dual is infinite at the start.
    doc = {
        "version": 1,
        "n": 3,
        "objective": {"kind": "maxflow", "params": {}},
        "edges": [
            {"kind": "uniswap", "params": {"reserves": [10.0, 10.0]}, "nodes": [0, 1]},
            {"kind": "lossless", "params": {"capacity": 1.0}, "nodes": [1, 2]},
        ],
    }
    instance_path = tmp_path / "inst.json"
    result_path = tmp_path / "result.json"
    instance_path.write_text(json.dumps(doc))
    assert main(["solve", str(instance_path), "--out", str(result_path)]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].startswith("status=infeasible_start ")
    assert not result_path.exists()


def test_cli_solve_reports_unbounded(tmp_path, capsys, monkeypatch):
    def unbounded(instance, config=None):
        raise UnboundedDualError("unbounded edge subproblem: test")

    monkeypatch.setattr(io_cli, "solve", unbounded)
    instance_path = tmp_path / "inst.json"
    result_path = tmp_path / "result.json"
    instance_path.write_text(json.dumps(MINIMAL))
    assert main(["solve", str(instance_path), "--out", str(result_path)]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["status=unbounded unbounded edge subproblem: test"]
    assert not result_path.exists()
