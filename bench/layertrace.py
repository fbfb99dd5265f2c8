"""Per-layer tracing for the benchmark, done entirely from outside the program.

Each traced name is patched where its caller looks it up: a module attribute
of the calling module, or a class attribute for ``Problem`` methods and
``CaseData.bus_index``. The ``scipy.linalg`` calls of ``sesopf.solver`` are
traced by giving that module a forwarding stand-in for its ``scipy`` global,
so no other caller of scipy is affected.

Spans are kept in memory, one log per phase ("op" for the timed operations,
"check" for the correctness gate), as parallel arrays of name, parent span,
start and end. A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

FORMULATION_METHODS = ("objective", "objective_gradient", "equalities",
                       "equality_jacobian", "inequalities",
                       "inequality_jacobian", "lagrangian_hessian")


class SpanLog:
    """Spans of one phase; parent is -1 for a root span."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")

    def __len__(self):
        return len(self.name)

    def add(self, name: int, parent: int, t0: float, t1: float = 0.0) -> int:
        self.name.append(name)
        self.parent.append(parent)
        self.t0.append(t0)
        self.t1.append(t1)
        return len(self.name) - 1


def layer_totals(log: SpanLog, names: list[str]) -> dict[str, tuple[int, float]]:
    """Map each span name to (calls, self seconds) over one log."""
    n = len(log)
    if n == 0:
        return {}
    name = np.frombuffer(log.name, dtype=np.int32)
    parent = np.frombuffer(log.parent, dtype=np.int32)
    dur = np.frombuffer(log.t1, dtype=np.float64) - np.frombuffer(log.t0, dtype=np.float64)
    child = parent >= 0
    self_s = dur - np.bincount(parent[child], weights=dur[child], minlength=n)
    calls = np.bincount(name, minlength=len(names))
    total = np.bincount(name, weights=self_s, minlength=len(names))
    return {names[k]: (int(calls[k]), float(total[k]))
            for k in range(len(names)) if calls[k]}


class Tracer:
    """Records spans while a phase is open; wrapped calls outside any phase
    pass straight through."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.logs: dict[str, SpanLog] = {}
        self.counters: dict[str, float] = {}
        self._log: SpanLog | None = None
        self._stack: list[int] = []

    @contextmanager
    def phase(self, label: str):
        prev, self._log = self._log, self.logs.setdefault(label, SpanLog())
        try:
            yield
        finally:
            self._log = prev

    def totals(self, label: str) -> dict[str, tuple[int, float]]:
        return layer_totals(self.logs.get(label, SpanLog()), self.names)

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` wrapped in a span named ``name``. ``count(args,
        result)`` may return extra counters to add for each call."""
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        idx = self._index[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self._log
            if log is None:
                return fn(*args, **kwargs)
            span = log.add(idx, stack[-1] if stack else -1, perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                log.t1[span] = perf_counter()
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced


class _Forward:
    """Stand-in for a module: the given attributes, everything else from
    the real module."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _iterations(args, solution):
    return {"solver.iterations": solution.iterations, "solver.solves": 1}


def _emitted_bytes(args, _result):
    return {"harness.emit.bytes": os.path.getsize(args[2])}


def patch_sites():
    """(owner, attribute, span name, counter) for every traced call site."""
    from sesopf import acnetwork, casemodel, cli, formulation, harness, solver

    sites = [
        (casemodel.CaseData, "bus_index", "casemodel.bus_index", None),
        (harness, "scale_ses", "casemodel.scale_ses", None),
        (casemodel, "load_case", "casemodel.load_case", None),
        (cli, "load_case", "casemodel.load_case", None),
        (formulation, "validate_case", "casemodel.validate_case", None),
        (cli, "validate_case", "casemodel.validate_case", None),
        (formulation, "social_objective", "welfare.social_objective", None),
        (harness, "social_objective", "welfare.social_objective", None),
        (formulation, "marginal_satisfaction", "welfare.marginal_satisfaction", None),
        (formulation, "marginal_cost", "welfare.marginal_cost", None),
    ]
    sites += [(acnetwork, fn, f"acnetwork.{fn}", None)
              for fn in ("bus_injections", "flow_p_grad", "flow_p_hess",
                         "flow_q_hess", "network_losses")]
    sites += [
        (harness, "build_problem", "formulation.build_problem", None),
        (cli, "build_problem", "formulation.build_problem", None),
    ]
    sites += [(formulation.Problem, m, f"formulation.{m}", None)
              for m in FORMULATION_METHODS]
    sites += [
        (harness, "solve", "solver.solve", _iterations),
        (solver, "kkt_check", "solver.kkt_check", None),
        (cli, "finite_difference_audit", "solver.finite_difference_audit", None),
        (harness, "run_solve", "harness.run_solve", None),
        (harness, "ses_sweep", "harness.ses_sweep", None),
        (harness, "compute_metrics", "harness.compute_metrics", None),
        (harness, "solve_document", "harness.solve_document", None),
        (harness, "emit", "harness.emit", _emitted_bytes),
        (cli, "cli_main", "cli.cli_main", None),
    ]
    return sites


@contextmanager
def patched(tracer: Tracer):
    """Install the tracing wrappers; restore every original on exit."""
    from sesopf import solver

    saved = []
    try:
        for owner, attr, name, count in patch_sites():
            original = getattr(owner, attr)  # AttributeError if the program renamed it
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        linalg = solver.scipy.linalg
        saved.append((solver, "scipy", solver.scipy))
        solver.scipy = _Forward(solver.scipy, linalg=_Forward(
            linalg,
            ldl=tracer.wrap(linalg.ldl, "solver.ldl"),
            solve=tracer.wrap(linalg.solve, "solver.kkt_solve")))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def derived(calls: dict[str, int], iterations: int, solves: int) -> dict[str, float]:
    """Ratios over fixed counts; 0 where the workload runs no solve.

    ``merit_evals`` counts the objective calls made by the line search: a
    solve calls ``Problem.objective`` once per iteration for its log line,
    once in ``_finish``, and once per merit evaluation that reaches the
    objective (the merit at the current point and each backtracking trial).
    """
    ldl = calls.get("solver.ldl", 0)
    kkt = calls.get("solver.kkt_solve", 0)
    per_iter = (lambda c: c / iterations) if iterations else (lambda c: 0.0)
    return {
        "formulation.evals_per_iter": per_iter(calls.get("formulation.equalities", 0)),
        "solver.factorizations_per_iter": per_iter(ldl + kkt),
        "solver.inertia_retries": ldl - kkt,
        "solver.merit_evals": (calls.get("formulation.objective", 0) - iterations - solves
                               if solves else 0),
    }


# Per-layer metrics: (name, unit). ``.calls`` are exact counts, ``.self_s``
# seconds of self time in the "op" phase; ``solver.kkt_check.self_s`` comes
# from the "check" phase, the only place the benchmark calls it.
CALLS = ("casemodel.bus_index", "welfare.social_objective",
         "welfare.marginal_satisfaction", "welfare.marginal_cost",
         "acnetwork.bus_injections", "acnetwork.flow_p_grad",
         "acnetwork.flow_p_hess", "acnetwork.flow_q_hess",
         *(f"formulation.{m}" for m in FORMULATION_METHODS),
         "solver.ldl", "solver.kkt_solve")
SELF = ("casemodel.scale_ses", "casemodel.load_case", "casemodel.validate_case",
        "welfare.social_objective", "acnetwork.bus_injections",
        "acnetwork.network_losses", "formulation.build_problem",
        *(f"formulation.{m}" for m in FORMULATION_METHODS),
        "solver.solve", "solver.ldl", "solver.kkt_solve", "solver.kkt_check",
        "solver.finite_difference_audit", "harness.run_solve",
        "harness.ses_sweep", "harness.compute_metrics",
        "harness.solve_document", "harness.emit", "cli.cli_main")
PER_LAYER = ([(f"{n}.calls", "count") for n in CALLS]
             + [(f"{n}.self_s", "s") for n in SELF]
             + [("solver.iterations", "count"),
                ("formulation.evals_per_iter", "ratio"),
                ("solver.factorizations_per_iter", "ratio"),
                ("solver.inertia_retries", "count"),
                ("solver.merit_evals", "count"),
                ("harness.emit.bytes", "bytes"),
                ("trace.spans", "count"),
                ("trace.untraced_wall_s", "s"),
                ("trace.traced_wall_s", "s"),
                ("trace.overhead_s", "s")])


def layer_metrics(tracer: Tracer, untraced_wall: float, traced_wall: float) -> dict:
    """Every per-layer metric of one traced unit, as {name: value}."""
    op = tracer.totals("op")
    check = tracer.totals("check")
    calls = {name: c for name, (c, _) in op.items()}
    iterations = int(tracer.counters.get("solver.iterations", 0))
    solves = int(tracer.counters.get("solver.solves", 0))
    values = {f"{n}.calls": calls.get(n, 0) for n in CALLS}
    values.update({f"{n}.self_s": op.get(n, (0, 0.0))[1] for n in SELF})
    values["solver.kkt_check.self_s"] = check.get("solver.kkt_check", (0, 0.0))[1]
    values["solver.iterations"] = iterations
    values.update(derived(calls, iterations, solves))
    values["harness.emit.bytes"] = int(tracer.counters.get("harness.emit.bytes", 0))
    values["trace.spans"] = sum(len(log) for log in tracer.logs.values())
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values
