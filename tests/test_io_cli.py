import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from convexflows import EdgeIncidence, Hyperedge, MaxFlowObjective, ProblemInstance, TwoNodeEdge, io_cli
from convexflows.edges import LinearGain
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


@pytest.mark.parametrize("slope", [1.0, 2.0], ids=["lossless", "linear_gain"])
def test_linear_gains_round_trip_or_refuse_to_serialize(slope):
    def instance(gain):
        edge = Hyperedge(EdgeIncidence((0, 1)), TwoNodeEdge(gain))
        return ProblemInstance(n=2, edges=[edge], net_objective=MaxFlowObjective(2, source=0, sink=1))

    kept = LinearGain(slope, 3.0)
    assert parse_instance(serialize_instance(instance(kept))).edges[0].oracle.gain == kept
    # A document has no lower input bound: a gain with one is refused,
    # not written as if it had none.
    with pytest.raises(ValueError, match="cannot serialize"):
        serialize_instance(instance(LinearGain(slope, 3.0, -1.0)))


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


def test_parse_instance_keeps_the_callers_gc_state():
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            parse_instance(json.dumps(MINIMAL))
            assert gc.isenabled() is enabled
            with pytest.raises(ParseError, match="invalid JSON"):
                parse_instance("{not json")
            assert gc.isenabled() is enabled
            with pytest.raises(InstanceValidationError):
                parse_instance(json.dumps(dict(MINIMAL, n=0)))
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_parsed_opf_instance_stays_small():
    # Column-stored opf lines: about 60 bytes an edge on CPython 3.11,
    # against about 420 as slotted records and about 680 with a
    # dictionary per record and a numpy index on every incidence
    # (tests/test_columnar.py holds the tighter bound).
    text = json.dumps(gen_opf(200, 0))
    parse_instance(text)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        instance = parse_instance(text)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert used / instance.m < 450


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cli_rejects_non_finite_literals(tmp_path, capsys, value):
    # Python writes these as the NaN / Infinity literals, which strict
    # JSON lacks; a NaN capacity used to solve to status=converged.
    doc = gen_opf(12, 0)
    doc["edges"][0]["params"]["capacity"] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert "status=" not in captured.out
    assert "error: $: non-finite number" in captured.err


def test_cli_edge_range_errors_carry_the_edge_path(tmp_path, capsys):
    doc = gen_opf(12, 0)
    doc["edges"][3]["params"]["capacity"] = -1.0
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1
    assert "error: $.edges[3]: capacity must be positive" in capsys.readouterr().err


def basket_doc(penalized):
    edge = {"kind": "fisher_basket", "params": {"valuations": [2.0, 1.0]}, "nodes": [0, 1, 2]}
    if penalized:
        edge["edge_utility"] = {"kind": "quadratic_penalty", "params": {}}
    objective = {"kind": "linear_nonneg", "params": {"prices": [1.0, 1.0, 1.0]}}
    return {"version": 1, "n": 3, "objective": objective, "edges": [edge]}


def test_penalty_on_a_basket_edge_is_rejected(tmp_path, capsys):
    # A buyer basket has no penalized subproblem to minimize its local
    # prices in.
    assert instance_from_dict(basket_doc(False)).m == 1
    with pytest.raises(InstanceValidationError, match="edge 0: unsupported edge utility"):
        instance_from_dict(basket_doc(True))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(basket_doc(True)))
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert "status=" not in captured.out
    assert "error: $: edge 0: unsupported edge utility QuadraticPenalty on FisherBasketEdge" in captured.err


@pytest.mark.parametrize(
    "edge",
    [
        {"kind": "opf_line", "params": {"alpha": 16.0, "beta": 0.25, "capacity": math.nan}},
        {"kind": "opf_line", "params": {"alpha": math.nan, "beta": 0.25, "capacity": 1.0}},
        {"kind": "lossless", "params": {"capacity": math.nan}},
        {"kind": "linear_gain", "params": {"gain": math.nan, "capacity": 1.0}},
        {"kind": "uniswap", "params": {"reserves": [math.nan, 1.0]}},
        {"kind": "geometric_mean", "params": {"reserves": [1.0, 1.0], "weights": [math.nan, 0.5]}},
    ],
)
def test_nan_edge_parameters_are_validation_errors(edge):
    bad = dict(MINIMAL, edges=[MINIMAL["edges"][0], dict(edge, nodes=[1, 0])])
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[1\]: "):
        instance_from_dict(bad)


@pytest.mark.parametrize(
    "edge",
    [
        {"kind": "opf_line", "params": {"alpha": 16.0, "beta": 0.25, "capacity": math.inf}},
        {"kind": "lossless", "params": {"capacity": math.inf}},
        {"kind": "linear_gain", "params": {"gain": math.inf, "capacity": 1.0}},
        {"kind": "piecewise_linear", "params": {"points": [[0.0, 0.0], [math.inf, math.inf]]}},
        {"kind": "piecewise_linear", "params": {"points": [[0.0, 0.0], [1.0, math.nan]]}},
        {"kind": "uniswap", "params": {"reserves": [math.inf, 1.0]}},
        {"kind": "geometric_mean", "params": {"reserves": [1.0, math.inf], "weights": [0.5, 0.5]}},
    ],
)
def test_infinite_edge_parameters_are_validation_errors(edge):
    bad = dict(MINIMAL, edges=[MINIMAL["edges"][0], dict(edge, nodes=[1, 0])])
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[1\]: .*finite"):
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



@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--tol", "nan", "tol must be positive and finite, got nan"),
        ("--tol", "inf", "tol must be positive and finite, got inf"),
        ("--tol", "-1", "tol must be positive and finite, got -1.0"),
        ("--gap-tol", "nan", "gap-tol must be positive and finite, got nan"),
        ("--gap-tol", "-1", "gap-tol must be positive and finite, got -1.0"),
        ("--gap-tol", "0", "gap-tol must be positive and finite, got 0.0"),
    ],
)
def test_cli_check_refuses_a_tolerance_that_cannot_judge(option, value, message, tmp_path, capsys):
    # A correct result is neither passed nor failed at such a tolerance:
    # the check ends with an error line.
    instance_path = tmp_path / "inst.json"
    result_path = tmp_path / "result.json"
    instance_path.write_text(json.dumps(MINIMAL))
    assert main(["solve", str(instance_path), "--out", str(result_path)]) == 0
    assert main(["check", str(instance_path), str(result_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(instance_path), str(result_path), option, value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda doc: {k: v for k, v in doc.items() if k != "flows"}, "missing required field 'flows'"),
        (lambda doc: {**doc, "dual_value": None}, ".dual_value: expected float, got NoneType"),
        (lambda doc: [doc], "expected dict, got list"),
        (lambda doc: {**doc, "net_flow": "0"}, ".net_flow: expected a list of numbers, got str"),
        (lambda doc: {**doc, "flows": [[True, 0.0]] + doc["flows"][1:]}, ".flows[0]: expected a number, got bool"),
    ],
    ids=["missing_key", "null_dual", "top_level_list", "net_flow_not_a_list", "boolean_flow"],
)
def test_cli_check_reports_a_malformed_result_file(tamper, message, tmp_path, capsys):
    instance_path = tmp_path / "inst.json"
    result_path = tmp_path / "result.json"
    instance_path.write_text(json.dumps(MINIMAL))
    assert main(["solve", str(instance_path), "--out", str(result_path)]) == 0
    result_path.write_text(json.dumps(tamper(json.loads(result_path.read_text()))))
    capsys.readouterr()
    assert main(["check", str(instance_path), str(result_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {result_path}") and err[0].endswith(message)


# SHA-256 of the `solve --out` file of one small seed-0 instance per
# family, as written when flows and edge prices were lists of per-edge
# arrays (CPython 3.11, numpy 2.4, x86-64).  Reading the packed buffers
# must write the same bytes.  The `cfmm` and `opf` digests were taken
# again when the pool and power-line closed forms moved from `math` to
# numpy's log and exp (numpy 2.4.6, SIMD target X86_V4), which moves
# the last bits of their answers.  The `opf` digest was taken again when
# smooth power networks moved to Newton-CG steps: the solve takes 8
# iterations instead of 32 and ends at another iterate, still
# `converged`, with its dual value moved by 3e-14 relative and its primal
# value by 2e-13.  The `cfmm` digest was taken again when the dual pass
# moved to adding values and net flows in edge order (its two pool kinds'
# edges interleave): still 16 iterations and `converged`, the dual value
# moved by 3e-16 relative, the primal value not at all, the node prices
# by 2e-16 and the flows by 7e-15.
_GOLDEN_OUT = {
    "cfmm": (gen_cfmm, (30, 0), {}, "c0a4b6733c15ef4ad32d6a7f3d38f620a0db3f6115885366fdd18bc9298357ea"),
    "cfmm_pen": (
        gen_cfmm, (20, 0), {"edge_penalties": True}, "60ba9269e3600ecf022ac8354dd67e258dc1e2f533a389daa9d9e9c1b18f969c"
    ),
    "opf": (gen_opf, (30, 0), {}, "2482e9f4cf47977534f41d46c64fb0c2a805e52eb2ca10397a680ae307aae509"),
    "maxflow": (gen_maxflow, (12, 0.3, 0), {}, "08838c0f4a61527228ebf8de30ebddf6d9182b4006c4f85cd2e46a369a515246"),
}


@pytest.mark.parametrize("family", sorted(_GOLDEN_OUT))
def test_cli_result_file_is_byte_identical_to_the_per_edge_layout(family, tmp_path, capsys):
    generate, args, kwargs, digest = _GOLDEN_OUT[family]
    instance_path = tmp_path / "inst.json"
    result_path = tmp_path / "result.json"
    instance_path.write_text(json.dumps(generate(*args, **kwargs)))
    assert main(["solve", str(instance_path), "--out", str(result_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(result_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "generate_args",
    [["cfmm", "--size", "40", "--seed", "0", "--edge-penalties"], ["maxflow", "--size", "14", "--seed", "0"]],
    ids=["cfmm_pen", "maxflow"],
)
def test_cli_solve_out_then_check_round_trip(generate_args, tmp_path, capsys):
    instance_path = tmp_path / "inst.json"
    result_path = tmp_path / "result.json"
    assert main(["generate", *generate_args, "-o", str(instance_path)]) == 0
    assert main(["solve", str(instance_path), "--out", str(result_path)]) == 0
    assert main(["check", str(instance_path), str(result_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("=> OK")
    doc = json.loads(result_path.read_text())
    instance = parse_instance(instance_path.read_text())
    assert [len(x) for x in doc["flows"]] == [len(x) for x in doc["edge_prices"]] == [
        edge.incidence.dim for edge in instance.edges
    ]


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


@pytest.mark.parametrize(
    "doc, keys, where",
    [
        (gen_cfmm(9, 5), ("edges", 0, "params", "reserves", 0), "$.edges[0]"),
        (MINIMAL, ("edges", 0, "params", "capacity"), "$.edges[0]"),
        (gen_opf(12, 0), ("edges", 2, "params", "capacity"), "$.edges[2]"),
        (gen_opf(12, 0), ("objective", "params", "demands", 1), "$.objective"),
    ],
    ids=["pool_reserve", "lossless_capacity", "opf_line_capacity", "opf_demand"],
)
def test_cli_rejects_numbers_past_the_float_range(tmp_path, capsys, doc, keys, where):
    # 1e400 reads as inf.  These used to end status=infeasible_start, or
    # solve as an uncapped line.
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in keys[:-1]:
        holder = holder[key]
    holder[keys[-1]] = "HUGE"
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', "1e400"))
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert "status=" not in captured.out
    assert f"error: {where}: " in captured.err and "finite" in captured.err


@pytest.mark.parametrize(
    "edge",
    [
        {"kind": "lossless", "params": {"capacity": "HUGE"}},
        {"kind": "uniswap", "params": {"reserves": [1.0, "HUGE"]}},
    ],
    ids=["lossless_capacity", "pool_reserve"],
)
def test_integers_past_the_float_range_are_not_finite(edge):
    # float() of such an integer raises OverflowError, which used to end
    # in a traceback.
    doc = dict(MINIMAL, edges=[MINIMAL["edges"][0], dict(edge, nodes=[1, 0])])
    text = json.dumps(doc).replace('"HUGE"', "1" + "0" * 400)
    with pytest.raises(InstanceValidationError, match=r"^\$\.edges\[1\]: .*finite"):
        parse_instance(text)


@pytest.mark.parametrize(
    "objective",
    [
        {"kind": "maxflow", "params": {"sink": 9}},
        {"kind": "maxflow", "params": {"sink": 3.7}},
        {"kind": "maxflow", "params": {"source": -1}},
        {"kind": "maxflow", "params": {"source": True}},
        {"kind": "maxflow", "params": {"source": 3}},
        {"kind": "mincost", "params": {"target": 1.0, "sink": 9}},
        {"kind": "mincost", "params": {"target": 1.0, "source": "0"}},
        {"kind": "mincost", "params": {"target": 1.0, "source": 2, "sink": 2}},
    ],
)
def test_cli_rejects_bad_source_and_sink(tmp_path, capsys, objective):
    # A sink past the last node used to end in an IndexError traceback,
    # and source -1 silently meant the sink.
    doc = dict(gen_maxflow(4, 0.5, 0), objective=objective)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceValidationError, match=r"^\$\.objective: (source|sink)"):
        parse_instance(path.read_text())
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert "status=" not in captured.out
    assert "error: $.objective: " in captured.err


@pytest.mark.parametrize(
    "change, where",
    [
        (lambda d: d.update(version=True), r"\$\.version"),
        (lambda d: d.update(n=True), r"\$\.n"),
        (lambda d: d["edges"][0].update(nodes=[True, 2]), r"\$\.edges\[0\]\.nodes"),
        (lambda d: d["edges"][0].update(params={"capacity": True}), r"\$\.edges\[0\]\.params\.capacity"),
        (
            lambda d: d["edges"][0].update(kind="linear_gain", params={"gain": True, "capacity": 1.0}),
            r"\$\.edges\[0\]\.params\.gain",
        ),
        (
            lambda d: d["edges"][0].update(kind="linear_gain", params={"gain": 0.5, "capacity": True}),
            r"\$\.edges\[0\]\.params\.capacity",
        ),
        (
            lambda d: d["edges"][0].update(kind="opf_line", params={"alpha": True, "beta": 0.25, "capacity": 1.0}),
            r"\$\.edges\[0\]\.params\.alpha",
        ),
        (
            lambda d: d["edges"][0].update(kind="opf_line", params={"alpha": 16.0, "beta": False, "capacity": 1.0}),
            r"\$\.edges\[0\]\.params\.beta",
        ),
        (
            lambda d: d["edges"][0].update(kind="opf_line", params={"alpha": 16.0, "beta": 0.25, "capacity": True}),
            r"\$\.edges\[0\]\.params\.capacity",
        ),
        (
            lambda d: d["edges"][0].update(kind="piecewise_linear", params={"points": [[0.0, 0.0], [True, 1.0]]}),
            r"\$\.edges\[0\]\.params\.points",
        ),
        (
            lambda d: d["edges"][0].update(kind="uniswap", params={"reserves": [True, 1.0]}),
            r"\$\.edges\[0\]\.params\.reserves\[0\]: expected a number, got bool",
        ),
        (
            lambda d: d["edges"][0].update(kind="uniswap", params={"reserves": [1.0, 1.0], "weight": True}),
            r"\$\.edges\[0\]\.params\.weight: expected a number, got bool",
        ),
        (
            lambda d: d["edges"][0].update(kind="uniswap", params={"reserves": [1.0, 1.0], "fee": True}),
            r"\$\.edges\[0\]\.params\.fee: expected a number, got bool",
        ),
        (
            lambda d: d["edges"][0].update(
                kind="geometric_mean", params={"reserves": [1.0, 1.0], "weights": [True, 0.0]}
            ),
            r"\$\.edges\[0\]\.params\.weights\[0\]: expected a number, got bool",
        ),
        (
            lambda d: d["edges"][0].update(kind="fisher_basket", params={"valuations": [True]}),
            r"\$\.edges\[0\]\.params\.valuations: expected a number, got bool",
        ),
        (
            lambda d: d.update(objective={"kind": "linear_nonneg", "params": {"prices": [1.0, True, 1.0]}}),
            r"\$\.objective\.params\.prices",
        ),
        (
            lambda d: d.update(objective={"kind": "opf_quadratic", "params": {"demands": [1.0, 1.0, True]}}),
            r"\$\.objective\.params\.demands",
        ),
        (
            lambda d: d.update(objective={"kind": "fisher", "params": {"budgets": [True], "n_goods": 2}}),
            r"\$\.objective\.params\.budgets",
        ),
        (
            lambda d: d.update(objective={"kind": "mincost", "params": {"target": True}}),
            r"\$\.objective\.params\.target",
        ),
        (
            lambda d: d.update(objective={"kind": "fisher", "params": {"budgets": [1.0], "n_goods": True}}),
            r"\$\.objective\.params\.n_goods",
        ),
        (
            lambda d: d.update(objective={"kind": "fisher", "params": {"budgets": [1.0], "n_goods": 2.7}}),
            r"\$\.objective\.params\.n_goods",
        ),
    ],
    ids=[
        "version",
        "n",
        "nodes",
        "lossless_capacity",
        "linear_gain_gain",
        "linear_gain_capacity",
        "opf_line_alpha",
        "opf_line_beta",
        "opf_line_capacity",
        "piecewise_linear_points",
        "pool_reserves",
        "pool_weight",
        "pool_fee",
        "pool_weights",
        "basket_valuations",
        "prices",
        "demands",
        "budgets",
        "target",
        "n_goods",
        "n_goods_fractional",
    ],
)
def test_json_booleans_are_not_integers(change, where):
    # Booleans used to parse as 1.0 wherever a number was read with
    # float(...), and a fractional goods count was truncated.
    doc = json.loads(json.dumps(gen_maxflow(3, 1.0, 0)))
    change(doc)
    with pytest.raises(ParseError, match=where):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "change, where",
    [
        (lambda d: d["edges"].__setitem__(0, 3), r"^\$\.edges\[0\]: expected dict"),
        (lambda d: d["edges"][0].update(params=[1.0]), r"^\$\.edges\[0\]\.params: expected dict"),
        (lambda d: d["edges"][0].update(edge_utility=3), r"^\$\.edges\[0\]\.edge_utility: expected dict"),
        (lambda d: d["objective"].update(params=[1.0]), r"^\$\.objective\.params: expected dict"),
    ],
    ids=["edge", "edge_params", "edge_utility", "objective_params"],
)
def test_documents_that_are_not_objects_are_parse_errors(change, where):
    # Each of these used to end in a TypeError traceback.
    doc = json.loads(json.dumps(gen_maxflow(3, 1.0, 0)))
    change(doc)
    with pytest.raises(ParseError, match=where):
        parse_instance(json.dumps(doc))


_BAD_SHAPES = ["abc", [1.0], [1.0, "x"], [[1, 2], [3, 4]], 3.0, None]


@pytest.mark.parametrize("bad", _BAD_SHAPES, ids=["string", "short", "mixed", "nested", "scalar", "null"])
@pytest.mark.parametrize(
    "kind, params, key",
    [
        ("uniswap", {"reserves": [1.0, 2.0], "weight": 0.5}, "reserves"),
        ("geometric_mean", {"reserves": [1.0, 2.0], "weights": [0.5, 0.5]}, "reserves"),
        ("geometric_mean", {"reserves": [1.0, 2.0], "weights": [0.5, 0.5]}, "weights"),
    ],
    ids=["uniswap_reserves", "geometric_mean_reserves", "geometric_mean_weights"],
)
def test_malformed_pools_are_parse_errors(tmp_path, capsys, kind, params, key, bad):
    # The pool constructors read the JSON lists as they come; a scalar
    # reserves entry used to end in a TypeError traceback.
    edge = {"kind": kind, "params": dict(params, **{key: bad}), "nodes": [1, 0]}
    doc = dict(MINIMAL, edges=[MINIMAL["edges"][0], edge])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"^\$\.edges\[1\]"):
        parse_instance(path.read_text())
    # Instance errors exit 1; exit 2 is kept for solves that end uncertified.
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert "status=" not in captured.out
    assert captured.err.startswith("error: $.edges[1]")


def test_parsed_cfmm_instance_stays_small():
    # One copy of each pool's data, as Python floats in slots: about 440
    # bytes an edge on CPython 3.11, against about 716 with reserves and
    # weights arrays (and, for the multi-asset pools, float lists) kept
    # beside an instance dictionary.
    text = json.dumps(gen_cfmm(1600, 0))
    parse_instance(text)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        instance = parse_instance(text)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert used / instance.m < 480


def test_solving_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: importing the package and solving
    # through the command line must not load it.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(gen_maxflow(6, 0.4, 1)))
    script = (
        "import sys\n"
        "from convexflows import io_cli\n"
        f"assert io_cli.main(['solve', {str(path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_solving_a_flat_faced_instance_loads_no_masked_arrays(tmp_path):
    # The threshold candidates of the polish find the distinct values of
    # the iterate without np.unique, which imports numpy.ma on a float
    # array; numpy.matrixlib, which numpy always loads, does not match.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(gen_maxflow(6, 0.4, 1)))
    script = (
        "import sys\n"
        "from convexflows import io_cli\n"
        f"assert io_cli.main(['solve', {str(path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
