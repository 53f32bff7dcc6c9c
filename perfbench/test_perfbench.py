"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest perfbench -q``.
They use small instances of each workload family, so they take seconds.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), HERE) if p not in sys.path]

import run  # noqa: E402
import suite  # noqa: E402
from tracer import Tracer  # noqa: E402

from convexflows.io_cli import parse_instance  # noqa: E402
from convexflows.solver import solve  # noqa: E402

TINY = {
    "cfmm": (("cfmm", 30, 2),),
    "cfmm_pen": (("cfmm_pen", 10, 1),),
    "opf": (("opf", 20, 2),),
    "maxflow": (("maxflow", 10, 2),),
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_emitted_metric_names_match_benchmark_json(name, monkeypatch, capsys):
    spec = _spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(suite.WORKLOADS)
    groups = TINY[name]
    tiny = suite.Workload(name, groups, groups[0][:2])
    monkeypatch.setitem(suite.WORKLOADS, name, tiny)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
        line = _last_line(capsys)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_refuses_to_run_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(HERE, "no-such-src"))
    assert run.main(["--workload", "opf", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def _solved(family, size, seed):
    case = suite.make_case(family, size, seed)
    instance = parse_instance(case.text)
    return case, instance, solve(instance)


def test_gate_accepts_a_valid_result_and_rejects_tampered_ones():
    case, instance, result = _solved("cfmm", 30, 3)
    assert suite.gate(instance, result).ok

    flows = list(result.flows)
    flows[0] = flows[0] + 1.0  # more received and less tendered than the pool allows
    result.flows = flows
    verdict = suite.gate(instance, result)
    assert not verdict.ok and not verdict.wrong_answer

    case, instance, result = _solved("cfmm", 30, 3)
    result.primal_value = -math.inf
    verdict = suite.gate(instance, result)
    assert any("JSON" in r for r in verdict.reasons)

    case, instance, result = _solved("cfmm", 30, 3)
    result.net_flow = result.net_flow - 1.0  # infeasible net flow: primal is -inf
    assert not suite.gate(instance, result).ok


def test_gate_checks_maxflow_against_the_augmenting_path_value():
    case, instance, result = _solved("maxflow", 10, 2)
    assert suite.gate(instance, result, case.truth).ok
    verdict = suite.gate(instance, result, case.truth + 1.0)
    assert not verdict.ok and verdict.wrong_answer


def test_counts_repeat_exactly_across_runs():
    cases = suite.make_cases((("maxflow", 10, 2), ("cfmm_pen", 10, 1)), 5)
    first = suite.run_untraced(cases, seconds=0.0)
    second = suite.run_untraced(cases, seconds=0.0)
    for name in ("iterations", "evals"):
        assert first.metrics[name] == second.metrics[name]
    assert first.correct and second.correct


def test_phase_attribution_sums_to_evals():
    cases = suite.make_cases((("maxflow", 10, 3),), 0)
    instances = [parse_instance(case.text) for case in cases]
    n_evals = sum(solve(instance).n_evals for instance in instances)
    report, tracer = suite.run_traced(cases)
    assert report.correct, report.problems  # traced and untraced solves agree
    m = {name: value for name, (value, _) in report.metrics.items()}
    assert m["qn.escape_attempts"] > 0, "pick cases that exercise escapes"
    assert m["qn.unattributed_evals"] == 0
    logs = tracer.phase_logs
    assert len(logs) == len(cases)
    unreported = sum(log.escape_unreported_evals for log in logs)
    attributed = (
        sum(log.evals["init"] for log in logs)
        + m["qn.linesearch_evals"] + m["qn.escape_evals"] - unreported + m["qn.polish_evals"]
    )
    assert attributed == n_evals


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.enter("outer")
    time.sleep(0.01)
    tracer.enter("inner")
    time.sleep(0.02)
    tracer.leave()
    tracer.leave()
    assert tracer.self_time["inner"] == pytest.approx(tracer.total["inner"])
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"]
    )
    (inner_id, _, _, _, parent), (outer_id, *_rest) = tracer.spans
    assert parent == outer_id


def test_tracing_changes_no_oracle_result():
    case = suite.make_case("cfmm", 30, 1)
    plain, traced = parse_instance(case.text), parse_instance(case.text)
    tracer = Tracer()
    tracer.instrument(traced, case.kinds)
    for edge_a, edge_b in zip(plain.edges, traced.edges):
        prices = np.linspace(1.0, 1.5, edge_a.incidence.dim)
        a, b = edge_a.oracle.evaluate(prices), edge_b.oracle.evaluate(prices)
        assert a.value == b.value and np.array_equal(a.flow, b.flow)
    assert sum(tracer.calls[f"edges.{k}"] for k in suite.EDGE_KINDS) == len(case.kinds)
