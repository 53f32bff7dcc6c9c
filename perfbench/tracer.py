"""Traced-run recorder: spans, self times and driver phase attribution.

Nothing here edits the library.  :class:`Tracer` installs wrappers from
outside, in two ways:

* module globals the solver looks up at call time are swapped for the
  duration of one ``solve`` (``solver.minimize_bound_lbfgs``,
  ``solver.DualProgram``, ``solver.primal_objective``,
  ``recovery.recover_flows``, ``recovery.restore_primal``,
  ``recovery.detect_ambiguous``);
* per-instance oracle methods (``net_objective.conj``, ``utility.conj``,
  ``oracle.evaluate``, ``oracle.evaluate_pair``,
  ``oracle.supported_face``) are shadowed by instance attributes before
  ``solve`` builds its ``DualProgram``, which captures them.

Coarse spans (``solve``, ``solver.build``, ``qn``, ``solver.eval`` ...)
are kept in memory as ``(id, name, start, end, parent)`` and written out
at the end.  The per-call oracle and conjugate spans (hundreds of
thousands per solve) are folded into per-name totals instead; their time
still counts as child time of the span that caused them, so self times
stay exact.

Driver evaluations are attributed to phases by call order: before the
first callback is the initial evaluation, after a callback is line
search, after ``escape_directions`` is an escape, and after a polish
generator is polish.  An escape that is followed by a callback succeeded;
one followed by polish or the end of the driver failed, and the driver
does not count a failed escape's evaluations in ``n_evals``.  (A
successful escape on the driver's last allowed iteration is followed by
polish too; its evaluations then show as negative unattributed ones.)
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

from convexflows import recovery, solver
from convexflows.edges.base import UnattainedSupremumError

_clock = time.perf_counter


class Tracer:
    """Span stack plus per-name totals, self times and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, float] = defaultdict(float)
        # Frames are [span id, name, start, child time].
        self._stack: list[list] = []
        self._next_id = 0
        self._in_edge = False
        self.phase_logs: list[_PhaseLog] = []

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, _clock(), 0.0])

    def leave(self) -> float:
        end = _clock()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, name, start, end, parent))
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        return duration

    def span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()

        return wrapped

    def _leaf(self, name: str, duration: float) -> None:
        self.total[name] += duration
        self.self_time[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    # -- per-instance oracle wrappers ---------------------------------------

    def instrument(self, instance, kinds: list[str]) -> None:
        """Shadow the oracle methods of one parsed instance.

        ``kinds`` holds the instance-file tag of each edge, in edge order.
        """
        objective = instance.net_objective
        objective.conj = self._timed_leaf("objectives.conj", objective.conj)
        for edge, kind in zip(instance.edges, kinds):
            oracle = edge.oracle
            name = f"edges.{kind}"
            oracle.evaluate = self._edge_call(name, oracle.evaluate, _array_zero)
            if hasattr(oracle, "evaluate_pair"):
                oracle.evaluate_pair = self._edge_call(name, oracle.evaluate_pair, _pair_zero)
            oracle.supported_face = self._timed_leaf("edges.supported_face", oracle.supported_face)
            if edge.utility is not None:
                edge.utility.conj = self._timed_leaf("objectives.edge_conj", edge.utility.conj)

    def _timed_leaf(self, name: str, fn):
        def wrapped(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf(name, _clock() - start)

        return wrapped

    def _edge_call(self, name: str, fn, is_zero):
        """Time one oracle entry point; nested entries (``evaluate`` calling
        ``evaluate_pair``) count once, at the outermost call."""
        count = self.count

        def wrapped(*args):
            if self._in_edge:
                return fn(*args)
            self._in_edge = True
            start = _clock()
            try:
                out = fn(*args)
            except UnattainedSupremumError:
                count[name + ".unattained"] += 1
                raise
            finally:
                self._in_edge = False
                self._leaf(name, _clock() - start)
            if is_zero(out):
                count[name + ".zero_flow"] += 1
            return out

        return wrapped

    # -- module patches -------------------------------------------------------

    def patch_modules(self) -> list[tuple[object, str, object]]:
        """Swap the solver's module globals; returns what to restore."""
        saved = []

        def swap(module, attr, replacement):
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, replacement(getattr(module, attr)))

        swap(solver, "DualProgram", lambda f: self.span("solver.build", f))
        swap(solver, "primal_objective", lambda f: self.span("core.primal_objective", f))
        swap(solver, "minimize_bound_lbfgs", self._driver)
        swap(recovery, "recover_flows", lambda f: self.span("recovery", f))
        swap(recovery, "detect_ambiguous", lambda f: self.span("recovery.detect", f))
        swap(recovery, "restore_primal", self._restore_primal)
        return saved

    @staticmethod
    def restore(saved) -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    def _restore_primal(self, fn):
        def wrapped(y_target, unique_flows, segments, *args, **kwargs):
            self.count["recovery.segments"] += len(segments)
            self.enter("recovery.restore")
            try:
                return fn(y_target, unique_flows, segments, *args, **kwargs)
            finally:
                self.leave()

        return wrapped

    def _driver(self, minimize):
        """Wrap the driver and every callable it is handed."""

        def wrapped(fun, *args, **kwargs):
            log = _PhaseLog()
            self.phase_logs.append(log)

            def traced_fun(x):
                self.enter("solver.eval")
                try:
                    value, grad = fun(x)
                finally:
                    self.leave()
                log.evaluation(value)
                return value, grad

            callback = kwargs.get("callback")
            if callback is not None:

                def traced_callback(*cb_args):
                    log.mark("linesearch")
                    self.enter("solver.record")
                    try:
                        return callback(*cb_args)
                    finally:
                        self.leave()

                kwargs["callback"] = traced_callback
            escape = kwargs.get("escape_directions")
            if escape is not None:

                def traced_escape(x):
                    log.mark("escape")
                    self.enter("solver.escape_directions")
                    try:
                        return escape(x)
                    finally:
                        self.leave()

                kwargs["escape_directions"] = traced_escape
            generators = kwargs.get("polish_candidates")
            if generators:
                kwargs["polish_candidates"] = [_polish_generator(log, g) for g in generators]

            self.enter("qn")
            try:
                result = minimize(traced_fun, *args, **kwargs)
            finally:
                self.leave()
                log.mark(None)
            log.n_evals = result.n_evals
            return result

        return wrapped


def _polish_generator(log: "_PhaseLog", generator):
    def wrapped(x):
        log.mark("polish")
        return generator(x)

    return wrapped


def _array_zero(result) -> bool:
    return not result.flow.any()


def _pair_zero(out) -> bool:
    return out[1] == 0.0 and out[2] == 0.0


class _PhaseLog:
    """Driver evaluations and wall time per phase, by call order."""

    def __init__(self) -> None:
        self.phase = "init"
        self.start = _clock()
        self.evals: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.inf_evals = 0
        self.escape_attempts = 0
        self.escape_successes = 0
        self.escape_unreported_evals = 0
        self._escape_evals = 0
        self.n_evals = 0

    def evaluation(self, value: float) -> None:
        self.evals[self.phase] += 1
        if self.phase == "escape":
            self._escape_evals += 1
        if not math.isfinite(value):
            self.inf_evals += 1

    def mark(self, phase: str | None) -> None:
        """Close the current phase and open ``phase`` (None ends the run)."""
        now = _clock()
        self.seconds[self.phase] += now - self.start
        if self.phase == "escape":
            self.escape_attempts += 1
            if phase == "linesearch":
                self.escape_successes += 1
            else:
                self.escape_unreported_evals += self._escape_evals
            self._escape_evals = 0
        self.phase = phase
        self.start = now

    def unattributed(self) -> int:
        """``n_evals`` minus the evaluations the phases account for (0 when
        the attribution is exact)."""
        counted = sum(self.evals.values()) - self.escape_unreported_evals
        return self.n_evals - counted
