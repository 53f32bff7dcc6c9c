"""Run one convexflows benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cfmm --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer split instead and writes the recorded spans to
``.perfbench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The run is single-process and single-threaded: one solve at a time.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before numpy loads: one BLAS/OpenMP thread and the
# solver's default single worker.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CONVEXFLOWS_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _git_commit(root: str) -> str:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "convexflows", "solver.py")):
        print(f"error: no convexflows sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy as np

    import suite
    from convexflows.solver import solve

    if args.workload not in suite.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = suite.WORKLOADS[args.workload]
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(ROOT),
        "CONVEXFLOWS_THREADS": os.environ.get("CONVEXFLOWS_THREADS"),
    }
    print("env " + json.dumps(env, sort_keys=True))

    # Untimed warm-up: imports, lazy set-up and caches settle before timing.
    family, size = workload.warmup
    solve(suite.parse_instance(suite.make_case(family, size, args.seed).text))

    cases = suite.make_cases(workload.groups, args.seed)
    if args.trace:
        report, tracer = suite.run_traced(cases)
        _write_trace(env, report, tracer)
    else:
        report = suite.run_untraced(cases, args.seconds)

    for note in report.notes:
        print("note " + note)
    for problem in report.problems:
        print("PROBLEM " + problem)
    print("statuses " + json.dumps(dict(sorted(report.statuses.items()))))
    for name, (value, unit) in {**report.metrics, **report.printed}.items():
        print(f"metric {name} = {value!r} {unit}")

    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in report.metrics.items()},
    }))
    return 0


def _write_trace(env: dict, report, tracer) -> None:
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{env['workload']}-seed{env['seed']}.json")
    doc = {
        "env": env,
        "metrics": {name: value for name, (value, _) in report.metrics.items()},
        "span_fields": ["id", "name", "start", "end", "parent"],
        "spans": tracer.spans,
        "leaf_totals": {
            name: {"calls": tracer.calls[name], "s": tracer.total[name]}
            for name in tracer.total
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    print(f"note spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
