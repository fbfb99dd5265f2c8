"""Run-level metrics, the SES sensitivity sweep, and file emission.

Sweep points are solved independently from cold starts so every record is
path-independent; non-converged points are recorded with their status
instead of aborting the sweep.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import count

import numpy as np

from . import acnetwork
# scale_ses: nothing here calls it; bench/layertrace.py patches it on this module
from .casemodel import CaseData, scale_ses  # noqa: F401
from .formulation import Problem, build_problem
from .solver import Solution, SolverOptions, solve
from .welfare import normalized_satisfaction, social_objective, welfare_coefficients


@dataclass(frozen=True)
class Metrics:
    total_satisfaction: float       # $/h, unweighted
    weighted_objective: float       # score * $/h, the raw objective
    total_cost: float               # $/h
    social_welfare: float           # satisfaction - cost, $/h
    total_curtailment_mw: float     # sum of curtailment
    losses_mw: float                # network losses
    # per aggregator, in case order like Solution.p_agg
    normalized_satisfaction: np.ndarray  # in (0, 1]
    curtailment: np.ndarray              # p_n - P_a, MW


# the scalar Metrics fields, as the sweep rows and the solve document name them
SCALAR_METRICS = tuple(f.name for f in fields(Metrics) if f.type == "float")


def _agg_keys(case: CaseData) -> list[tuple[int, int]]:
    """(bus, index at that bus) of each aggregator: its label in the reports."""
    seen = defaultdict(lambda: count(1))  # a running count per bus
    return [(a.bus, next(seen[a.bus])) for a in case.aggregators]


def compute_metrics(case: CaseData, solution: Solution) -> Metrics:
    """The run metrics of a solution; its weighted_objective is the
    solution's objective bit for bit."""
    coef = welfare_coefficients(case)
    weighted, sat, cost = social_objective(coef, solution.p_agg, solution.p_gen)
    norm = normalized_satisfaction(coef, solution.p_agg)
    curt_mw = coef.p_n - solution.p_agg
    losses = acnetwork.network_losses(case, solution.v, solution.theta)
    return Metrics(sat, weighted, cost, sat - cost, float(curt_mw.sum()), losses,
                   norm, curt_mw)


def run_solve(case: CaseData | Problem, opts: SolverOptions = SolverOptions()):
    """Solve a case, or a Problem built from one; return (Solution, Metrics)."""
    problem = case if isinstance(case, Problem) else build_problem(case)
    solution = solve(problem, opts)
    return solution, compute_metrics(problem.case, solution)


@dataclass(frozen=True)
class SweepRecord:
    scale_pct: float
    status: str
    iterations: int
    metrics: Metrics


@dataclass(frozen=True)
class SweepResult:
    case_name: str
    records: tuple[SweepRecord, ...]
    agg_keys: tuple[tuple[int, int], ...]  # labels of the per-aggregator columns


# Most points a sweep may list. The default sweep has 71; a range with more
# is taken to be a mistake, such as a step far below the range's width.
MAX_SWEEP_POINTS = 100_000


def sweep_points(from_pct: float, to_pct: float, step_pct: float) -> list[float]:
    """The scale percentages of a sweep: from_pct + k * step_pct, rounded to
    9 decimals, for k = 0, 1, ... while they stay within to_pct + 1e-9.
    Raises ValueError, before listing any point, for a range that is empty,
    not finite, or longer than MAX_SWEEP_POINTS points, and for a step too
    small to move from_pct past its float spacing."""
    if not (0 < from_pct <= to_pct < np.inf and 0 < step_pct < np.inf):
        raise ValueError("invalid sweep range")
    if from_pct + step_pct == from_pct:
        raise ValueError(f"sweep step {step_pct!r} does not move the start {from_pct!r}")
    if (to_pct - from_pct) / step_pct >= MAX_SWEEP_POINTS:
        raise ValueError(f"sweep range has more than {MAX_SWEEP_POINTS} points")
    pcts = []
    for k in range(MAX_SWEEP_POINTS + 1):
        pct = from_pct + k * step_pct
        if pct > to_pct + 1e-9:
            return pcts
        pcts.append(round(pct, 9))
    raise ValueError(f"sweep range has more than {MAX_SWEEP_POINTS} points")


# The default sweep, 71 points: the SES values scaled from 10 % to 150 %
# in steps of 2 %. ``sesopf sweep`` reads its --from, --to and --step
# defaults from here.
SWEEP_FROM_PCT, SWEEP_TO_PCT, SWEEP_STEP_PCT = 10.0, 150.0, 2.0


def ses_sweep(case: CaseData, from_pct: float = SWEEP_FROM_PCT, to_pct: float = SWEEP_TO_PCT,
              step_pct: float = SWEEP_STEP_PCT,
              opts: SolverOptions = SolverOptions(), *, on_solve=None) -> SweepResult:
    """Re-solve the case's one Problem with all SES values scaled together
    (``Problem.scaled``) at each point of ``sweep_points``. ``on_solve``, if
    given, is called with (scale_pct, Solution) after each point."""
    records, pcts = [], sweep_points(from_pct, to_pct, step_pct)
    problem = build_problem(case)
    for pct in pcts:
        solution, metrics = run_solve(problem.scaled(pct / 100.0), opts)
        if on_solve is not None:
            on_solve(pct, solution)
        records.append(SweepRecord(pct, solution.status, solution.iterations, metrics))
    return SweepResult(case.name, tuple(records), tuple(_agg_keys(case)))


# ---------------------------------------------------------------------------
# emission


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def sweep_rows(result: SweepResult) -> tuple[list[str], list[list[str]]]:
    header = ["scale_pct", "status", "iterations", *SCALAR_METRICS]
    header += [f"norm_sat_{bus}_{idx}" for bus, idx in result.agg_keys]
    rows = []
    for rec in result.records:
        m = rec.metrics
        rows.append([_fmt(rec.scale_pct), rec.status, str(rec.iterations),
                     *(_fmt(getattr(m, name)) for name in SCALAR_METRICS),
                     *map(_fmt, m.normalized_satisfaction)])
    return header, rows


def write_trace(fh, log, **extra) -> None:
    """Write a solver log to an open text file as JSON lines, one row per
    iteration, each led by the ``extra`` fields."""
    for row in log:
        fh.write(json.dumps({**extra, **row}) + "\n")


def solve_document(case: CaseData, solution: Solution, metrics: Metrics) -> dict:
    p_ft, p_tf = acnetwork.line_flows(case, solution.v, solution.theta)
    lines = [
        {"from_bus": ln.from_bus, "to_bus": ln.to_bus, "s_max": ln.s_max,
         "p_from_to": ft, "p_to_from": tf,
         "binding": bool(max(ft, tf) > ln.s_max - 1e-4)}
        for ln, ft, tf in zip(case.lines, p_ft.tolist(), p_tf.tolist())
    ]
    return {
        "case": case.name,
        "status": solution.status,
        "iterations": solution.iterations,
        "objective": solution.objective,
        "max_violation": solution.max_violation,
        "metrics": {name: getattr(metrics, name) for name in SCALAR_METRICS},
        "buses": [
            {"id": b.id, "v": solution.v[i], "theta": solution.theta[i]}
            for i, b in enumerate(case.buses)
        ],
        "generators": [
            {"bus": g.bus, "p": solution.p_gen[k], "q": solution.q_gen[k]}
            for k, g in enumerate(case.generators)
        ],
        "aggregators": [
            {"bus": bus, "index": idx,
             "p": solution.p_agg[k], "q": solution.q_agg[k],
             "curtailment": metrics.curtailment[k],
             "normalized_satisfaction": metrics.normalized_satisfaction[k]}
            for k, (bus, idx) in enumerate(_agg_keys(case))
        ],
        "lines": lines,
    }


def write_result(result, fmt: str, fh, lineterminator: str = "\r\n") -> None:
    """Write a SweepResult or a solve document to an open text file as csv
    or json, each csv row ended by ``lineterminator``."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format '{fmt}'")
    if isinstance(result, SweepResult):
        header, rows = sweep_rows(result)
        if fmt == "csv":
            csv.writer(fh, lineterminator=lineterminator).writerows([header] + rows)
            return
        result = {"case": result.case_name,
                  "records": [dict(zip(header, row)) for row in rows]}
    elif not isinstance(result, dict):
        raise TypeError("expected a SweepResult or a solve document dict")
    if fmt == "json":
        # one string, one write: json.dump writes chunk by chunk
        fh.write(json.dumps(result, indent=2) + "\n")
    else:
        csv.writer(fh, lineterminator=lineterminator).writerows(_flatten(result))


def emit(result, fmt: str, path) -> None:
    """Write a SweepResult or a solve document to ``path`` as csv or json.
    Nothing is written when ``write_result`` rejects the input."""
    buf = io.StringIO()
    write_result(result, fmt, buf)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], doc
