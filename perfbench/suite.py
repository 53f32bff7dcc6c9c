"""Workloads, the per-instance correctness gate, and the measured runs.

A workload is a fixed list of generator groups ``(family, size, count)``.
For a workload seed ``s`` each group contributes the instances generated
with seeds ``s, s + 1, ..., s + count - 1``; instances that fail the
gate stay in (they are counted, never skipped).  Instances reach the
library only as JSON text through ``parse_instance``, and every solve
uses ``solve(instance)`` defaults, one at a time in this process.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from convexflows.core import PrimalPoint, check_feasibility, primal_objective
from convexflows.io_cli import gen_cfmm, gen_maxflow, gen_opf, parse_instance, result_to_dict
from convexflows.solver import solve
from convexflows.validation import maxflow_oracle

from tracer import Tracer

_clock = time.perf_counter

MAXFLOW_DENSITY = 0.3
FEAS_TOL = 1e-6  # `convexflows check` --tol default
GAP_TOL = 1e-4  # `convexflows check` --gap-tol default
ORACLE_RTOL = 1e-6
# Set-up repeats until it has taken SETUP_MIN_S and at least
# SETUP_MIN_ROUNDS rounds, so that short set-ups are timed many times.
SETUP_MIN_ROUNDS = 3
SETUP_MAX_ROUNDS = 15
SETUP_MIN_S = 1.0
STATUSES = ("converged", "polished", "stalled", "max_iter")
EDGE_KINDS = ("uniswap", "geometric_mean", "opf_line", "lossless")


@dataclass(frozen=True)
class Workload:
    name: str
    # (family, size, count).  At the seed commit one pass over them takes
    # 12-18 s on a 2-core x86 box, under the 20 s run length; the counts
    # keep the spread of the summed iterations and evaluations across
    # workload seeds below the bounds in BENCHMARK.json.
    groups: tuple[tuple[str, int, int], ...]
    warmup: tuple[str, int]  # untimed solve before measuring


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cfmm", (("cfmm", 1600, 14), ("cfmm", 6400, 2)), ("cfmm", 30)),
        Workload("cfmm_pen", (("cfmm_pen", 100, 12), ("cfmm_pen", 400, 1)), ("cfmm_pen", 10)),
        Workload("opf", (("opf", 1000, 22),), ("opf", 20)),
        Workload("maxflow", (("maxflow", 40, 1), ("maxflow", 20, 26)), ("maxflow", 8)),
    )
}


@dataclass
class Case:
    """One generated instance: its JSON text and what the gate needs."""

    label: str
    text: str
    kinds: list[str]
    truth: float | None = None  # augmenting-path max-flow value


def generate(family: str, size: int, seed: int) -> dict:
    if family == "cfmm":
        return gen_cfmm(size, seed)
    if family == "cfmm_pen":
        return gen_cfmm(size, seed, edge_penalties=True)
    if family == "opf":
        return gen_opf(size, seed)
    if family == "maxflow":
        return gen_maxflow(size, MAXFLOW_DENSITY, seed)
    raise ValueError(f"unknown family {family!r}")


def make_case(family: str, size: int, seed: int) -> Case:
    doc = generate(family, size, seed)
    truth = None
    if family == "maxflow":
        arcs = [(e["nodes"][0], e["nodes"][1], e["params"]["capacity"]) for e in doc["edges"]]
        truth = maxflow_oracle(doc["n"], arcs)
    return Case(
        label=f"{family}-{size}-s{seed}",
        text=json.dumps(doc),
        kinds=[e["kind"] for e in doc["edges"]],
        truth=truth,
    )


def make_cases(groups, seed: int) -> list[Case]:
    return [
        make_case(family, size, seed + k)
        for family, size, count in groups
        for k in range(count)
    ]


# -- correctness gate ---------------------------------------------------------


@dataclass
class Verdict:
    reasons: list[str]
    wrong_answer: bool  # certificate holds but the independent oracle disagrees
    check_s: float
    result_json_s: float

    @property
    def ok(self) -> bool:
        return not self.reasons


def gate(instance, result, truth: float | None = None) -> Verdict:
    """Judge one result by its certificate, not by ``result.converged``.

    Passes only if the flows are feasible at ``FEAS_TOL`` with a net-flow
    residual of at most ``FEAS_TOL * (1 + |y|_inf)``, the primal value is
    finite, the relative gap lies in ``[-FEAS_TOL, GAP_TOL]`` (the
    ``convexflows check`` defaults), the result serializes as strict JSON,
    and, when ``truth`` is given, the primal value matches it to
    ``ORACLE_RTOL`` relative.
    """
    reasons = []
    start = _clock()
    point = PrimalPoint(edge_flows=result.flows, net_flow=result.net_flow)
    report = check_feasibility(instance, point, FEAS_TOL)
    primal = primal_objective(instance, point, tol=FEAS_TOL)
    check_s = _clock() - start
    y_scale = 1.0 + float(np.max(np.abs(result.net_flow)))
    if not report.ok:
        reasons.append(f"{report.edge_membership.count(False)} edge flows outside their sets")
    if not report.net_flow_residual <= FEAS_TOL * y_scale:
        reasons.append(f"net-flow residual {report.net_flow_residual:.3e}")
    certified = False
    if not math.isfinite(primal):
        reasons.append(f"primal value {primal}")
    else:
        rel_gap = (result.dual_value - primal) / (1.0 + abs(result.dual_value))
        if not -FEAS_TOL <= rel_gap <= GAP_TOL:
            reasons.append(f"relative gap {rel_gap:.3e}")
        certified = not reasons
    wrong = False
    if truth is not None and not abs(primal - truth) <= ORACLE_RTOL * max(1.0, abs(truth)):
        reasons.append(f"primal {primal!r} != augmenting-path value {truth!r}")
        wrong = certified
    start = _clock()
    try:
        json.dumps(result_to_dict(result), allow_nan=False)
    except ValueError:
        reasons.append("result JSON holds NaN or infinity")
    return Verdict(reasons, wrong, check_s, _clock() - start)


# -- runs ---------------------------------------------------------------------


@dataclass
class Outcome:
    """What one solve produced; ``key`` must repeat across passes and tracing."""

    status: str
    key: tuple
    iterations: int = 0
    n_evals: int = 0
    recovery_residual: float = math.nan
    verdict: Verdict | None = None


@dataclass
class Report:
    """Figures of one run plus everything the final line needs."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    statuses: Counter = field(default_factory=Counter)
    notes: list[str] = field(default_factory=list)
    # Figures that are printed for people but kept off the result line.
    printed: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


def setup(cases: list[Case]) -> tuple[list, float]:
    """Parse every case in rounds; the median round is setup_s."""
    rounds: list[float] = []
    while len(rounds) < SETUP_MAX_ROUNDS and (
        len(rounds) < SETUP_MIN_ROUNDS or sum(rounds) < SETUP_MIN_S
    ):
        instances = None  # let the previous round go before timing the next
        start = _clock()
        instances = [parse_instance(case.text) for case in cases]
        rounds.append(_clock() - start)
    return instances, statistics.median(rounds)


def timed_solve(instance):
    """``(result, seconds)``; a solve that raises returns the exception."""
    start = _clock()
    try:
        result = solve(instance)
    except Exception as exc:  # a failed solve is a failed operation, not a crash
        return exc, _clock() - start
    return result, _clock() - start


def outcome(result) -> Outcome:
    if isinstance(result, Exception):
        status = f"error:{type(result).__name__}"
        return Outcome(status, (status, str(result)))
    return Outcome(
        result.status,
        (result.status, result.dual_value, result.iterations, result.n_evals),
        result.iterations,
        result.n_evals,
        result.recovery_residual,
    )


def judged(instance, case: Case, result) -> Outcome:
    out = outcome(result)
    if isinstance(result, Exception):
        out.verdict = Verdict([f"solve raised {out.status}: {result}"], False, 0.0, 0.0)
    else:
        out.verdict = gate(instance, result, case.truth)
    return out


def _tally(report: Report, cases: list[Case], outcomes: list[Outcome]) -> None:
    for case, out in zip(cases, outcomes):
        report.attempted += 1
        report.statuses[out.status] += 1
        if not out.verdict.ok:
            report.failed += 1
            report.notes.append(f"gate failed {case.label}: {'; '.join(out.verdict.reasons)}")
        if out.verdict.wrong_answer:
            report.problems.append(f"{case.label}: certified result disagrees with the oracle")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(cases: list[Case], seconds: float) -> Report:
    """End-to-end run: passes over the cases while they fit in ``seconds``
    (at least one).

    ``solve_s`` sums, over the cases, the median of each case's solve
    times across the passes.  The first pass is gated; every later pass
    must reproduce it exactly.
    """
    report = Report()
    instances, setup_s = setup(cases)
    times: list[list[float]] = [[] for _ in cases]
    first: list[Outcome] = []
    begin = _clock()
    while True:
        pass_start = _clock()
        results = []
        for k, instance in enumerate(instances):
            result, elapsed = timed_solve(instance)
            times[k].append(elapsed)
            results.append(result)
        pass_s = _clock() - pass_start
        if not first:
            first = [judged(*args) for args in zip(instances, cases, results)]
        elif [outcome(r).key for r in results] != [o.key for o in first]:
            report.problems.append(f"pass {len(times[0])} did not reproduce the first pass")
        del results
        if _clock() - begin + pass_s > seconds:
            break
    _tally(report, cases, first)
    report.metrics = {
        "setup_s": (setup_s, "s"),
        "iterations": (float(sum(o.iterations for o in first)), "count"),
        "evals": (float(sum(o.n_evals for o in first)), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report.printed = {
        "solve_s": (sum(statistics.median(t) for t in times), "s"),
        "fail_rate": (report.failed / report.attempted, "fraction"),
    }
    report.notes.append(f"instances={len(cases)} passes={len(times[0])}")
    return report


def run_traced(cases: list[Case]) -> tuple[Report, Tracer]:
    """Per-layer run: one untraced and one traced pass over the same cases.

    The traced pass parses fresh instances and shadows their oracle
    methods, so the gate always runs on untouched instances.
    """
    report = Report()
    instances, _ = setup(cases)
    plain = [timed_solve(instance) for instance in instances]
    tracer = Tracer()
    traced_instances = [parse_instance(case.text) for case in cases]
    for instance, case in zip(traced_instances, cases):
        tracer.instrument(instance, case.kinds)
    traced = []
    saved = tracer.patch_modules()
    try:
        for instance in traced_instances:
            tracer.enter("solve")
            result, _ = timed_solve(instance)
            traced.append((result, tracer.leave()))
    finally:
        Tracer.restore(saved)

    check_s = json_s = residual_max = 0.0
    outcomes = []
    for (plain_result, _), (result, _), instance, case in zip(plain, traced, instances, cases):
        out = judged(instance, case, result)
        check_s += out.verdict.check_s
        json_s += out.verdict.result_json_s
        if out.key != outcome(plain_result).key:
            report.problems.append(f"{case.label}: traced solve differs from the untraced one")
        if math.isfinite(out.recovery_residual):
            residual_max = max(residual_max, out.recovery_residual)
        outcomes.append(out)
    _tally(report, cases, outcomes)

    plain_s = sum(elapsed for _, elapsed in plain)
    traced_s = sum(elapsed for _, elapsed in traced)
    report.metrics = layer_metrics(tracer, report.statuses)
    report.metrics.update({
        "io_cli.result_json_s": (json_s, "s"),
        "core.check_s": (check_s, "s"),
        "recovery.residual_max": (residual_max, "norm"),
        "trace.solve_s": (traced_s, "s"),
        "trace.overhead": (traced_s / plain_s, "ratio"),
    })
    unattributed = report.metrics["qn.unattributed_evals"][0]
    if unattributed:
        report.notes.append(f"{unattributed:g} driver evaluations not attributed to a phase")
    return report, tracer


def layer_metrics(tracer: Tracer, statuses: Counter) -> dict[str, tuple[float, str]]:
    total, self_time, calls, count = tracer.total, tracer.self_time, tracer.calls, tracer.count
    logs = tracer.phase_logs

    def phase_sum(attr, phase=None):
        if phase is None:
            return float(sum(getattr(log, attr) for log in logs))
        return float(sum(getattr(log, attr)[phase] for log in logs))

    def frac(num, den):
        return num / den if den else 0.0

    m = {
        "objectives.conj_s": (total["objectives.conj"], "s"),
        "objectives.conj_calls": (float(calls["objectives.conj"]), "count"),
        "objectives.edge_conj_s": (total["objectives.edge_conj"], "s"),
        "objectives.edge_conj_calls": (float(calls["objectives.edge_conj"]), "count"),
    }
    for kind in EDGE_KINDS:
        name = f"edges.{kind}"
        n_calls = calls[name]
        m[f"{name}.s"] = (total[name], "s")
        m[f"{name}.calls"] = (float(n_calls), "count")
        m[f"{name}.zero_flow_frac"] = (frac(count[name + ".zero_flow"], n_calls), "fraction")
        m[f"{name}.unattained"] = (float(count[name + ".unattained"]), "count")
    attempts = phase_sum("escape_attempts")
    m.update({
        "edges.supported_face_calls": (float(calls["edges.supported_face"]), "count"),
        "edges.supported_face_s": (total["edges.supported_face"], "s"),
        "solver.solve_self_s": (self_time["solve"], "s"),
        "solver.build_s": (total["solver.build"], "s"),
        "solver.eval_s": (total["solver.eval"], "s"),
        "solver.eval_self_s": (self_time["solver.eval"], "s"),
        "solver.record_s": (total["solver.record"], "s"),
        "solver.escape_directions_s": (total["solver.escape_directions"], "s"),
        "qn.s": (total["qn"], "s"),
        "qn.self_s": (self_time["qn"], "s"),
        "qn.linesearch_evals": (phase_sum("evals", "linesearch"), "count"),
        "qn.inf_evals": (phase_sum("inf_evals"), "count"),
        "qn.escape_attempts": (attempts, "count"),
        "qn.escape_success_frac": (frac(phase_sum("escape_successes"), attempts), "fraction"),
        "qn.escape_evals": (phase_sum("evals", "escape"), "count"),
        "qn.escape_s": (phase_sum("seconds", "escape"), "s"),
        "qn.polish_evals": (phase_sum("evals", "polish"), "count"),
        "qn.polish_s": (phase_sum("seconds", "polish"), "s"),
        "qn.unattributed_evals": (float(sum(log.unattributed() for log in logs)), "count"),
        "recovery.s": (total["recovery"], "s"),
        "recovery.detect_s": (total["recovery.detect"], "s"),
        "recovery.restore_s": (total["recovery.restore"], "s"),
        "recovery.segments": (count["recovery.segments"], "count"),
        "core.primal_objective_s": (total["core.primal_objective"], "s"),
    })
    for status in STATUSES:
        m[f"solver.status.{status}"] = (float(statuses[status]), "count")
    return m
