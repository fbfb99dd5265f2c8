"""Run-level metrics, the SES sensitivity sweep, and file emission.

Sweep points are solved independently from cold starts so every record is
path-independent; non-converged points are recorded with their status
instead of aborting the sweep.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import acnetwork
from .casemodel import CaseData, scale_ses
from .formulation import build_problem
from .solver import Solution, SolverOptions, solve
from .welfare import normalized_satisfaction, social_objective


@dataclass(frozen=True)
class Metrics:
    total_satisfaction: float       # $/h, unweighted
    weighted_objective: float       # score * $/h, the raw objective
    total_cost: float               # $/h
    social_welfare: float           # satisfaction - cost, $/h
    normalized_satisfaction: dict   # (bus, agg index) -> value in (0, 1]
    curtailment: dict               # (bus, agg index) -> MW
    total_curtailment: float        # MW
    losses: float                   # MW


def _agg_keys(case: CaseData) -> list[tuple[int, int]]:
    keys = []
    counters: dict[int, int] = {}
    for a in case.aggregators:
        counters[a.bus] = counters.get(a.bus, 0) + 1
        keys.append((a.bus, counters[a.bus]))
    return keys


def compute_metrics(case: CaseData, solution: Solution) -> Metrics:
    weighted, sat, cost = social_objective(case, solution.p_agg, solution.p_gen)
    keys = _agg_keys(case)
    norm = {k: normalized_satisfaction(a, p)
            for k, a, p in zip(keys, case.aggregators, solution.p_agg)}
    p_n = np.array([a.p_n for a in case.aggregators])
    curt = dict(zip(keys, p_n - np.asarray(solution.p_agg)))
    total_curt = float(np.sum(solution.p_gen) - np.sum(solution.p_agg))
    losses = acnetwork.network_losses(case, solution.v, solution.theta)
    return Metrics(sat, weighted, cost, sat - cost, norm, curt, total_curt, losses)


def run_solve(case: CaseData, opts: SolverOptions = SolverOptions()):
    """Solve a case at its default SES values; return (Solution, Metrics)."""
    problem = build_problem(case)
    solution = solve(problem, opts)
    metrics = compute_metrics(case, solution)
    return solution, metrics


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
    agg_keys: tuple = field(default=())


def ses_sweep(case: CaseData, from_pct: float = 10.0, to_pct: float = 150.0,
              step_pct: float = 2.0,
              opts: SolverOptions = SolverOptions(), *, on_solve=None) -> SweepResult:
    """Re-solve the case with all SES values scaled together over a range.
    ``on_solve``, if given, is called with (scale_pct, Solution) after each
    point."""
    if not (0 < from_pct <= to_pct) or step_pct <= 0:
        raise ValueError("invalid sweep range")
    pcts = []
    k = 0
    while True:
        pct = from_pct + k * step_pct
        if pct > to_pct + 1e-9:
            break
        pcts.append(round(pct, 9))
        k += 1

    records = []
    for pct in pcts:
        scaled = scale_ses(case, pct / 100.0)
        solution, metrics = run_solve(scaled, opts)
        if on_solve is not None:
            on_solve(pct, solution)
        records.append(SweepRecord(pct, solution.status, solution.iterations, metrics))
    return SweepResult(case.name, tuple(records), tuple(_agg_keys(case)))


# ---------------------------------------------------------------------------
# emission


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def sweep_rows(result: SweepResult) -> tuple[list[str], list[list[str]]]:
    header = ["scale_pct", "status", "iterations", "total_satisfaction",
              "weighted_objective", "total_cost", "social_welfare",
              "total_curtailment_mw", "losses_mw"]
    header += [f"norm_sat_{bus}_{idx}" for bus, idx in result.agg_keys]
    rows = []
    for rec in result.records:
        m = rec.metrics
        row = [_fmt(rec.scale_pct), rec.status, str(rec.iterations),
               _fmt(m.total_satisfaction), _fmt(m.weighted_objective),
               _fmt(m.total_cost), _fmt(m.social_welfare),
               _fmt(m.total_curtailment), _fmt(m.losses)]
        row += [_fmt(m.normalized_satisfaction[k]) for k in result.agg_keys]
        rows.append(row)
    return header, rows


def write_trace(fh, log, **extra) -> None:
    """Write a solver log to an open text file as JSON lines, one row per
    iteration, each led by the ``extra`` fields."""
    for row in log:
        fh.write(json.dumps({**extra, **row}) + "\n")


def solve_document(case: CaseData, solution: Solution, metrics: Metrics) -> dict:
    keys = _agg_keys(case)
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
        "metrics": {
            "total_satisfaction": metrics.total_satisfaction,
            "weighted_objective": metrics.weighted_objective,
            "total_cost": metrics.total_cost,
            "social_welfare": metrics.social_welfare,
            "total_curtailment_mw": metrics.total_curtailment,
            "losses_mw": metrics.losses,
        },
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
             "curtailment": metrics.curtailment[(bus, idx)],
             "normalized_satisfaction": metrics.normalized_satisfaction[(bus, idx)]}
            for k, (bus, idx) in enumerate(keys)
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
        json.dump(result, fh, indent=2)
        fh.write("\n")
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
