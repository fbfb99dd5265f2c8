"""The benchmark's three workloads: inputs made from a seed, one operation
(op) at a time through sesopf's public surface, and a correctness gate per
op that runs outside the timed interval.

Every call into sesopf goes through a module attribute (``harness.run_solve``,
``cli.cli_main``, ...) so that the per-layer tracer can patch it there.

``run(spec)`` returns the (start, end) perf_counter intervals of its ops,
the interval of the whole call, and the output the gate checks.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from pathlib import Path
from time import perf_counter

from sesopf import casemodel, cli, formulation, harness, solver

REFERENCE = Path(__file__).with_name("reference.json")

# solve-rts24: SES scale factors on a 0.01 grid over [0.7, 1.3], one drawn
# from each of RTS24_SOLVES equal strata so that every seed gets the same
# spread of iteration counts (129 at 0.7 to 144 at 1.3).
RTS24_SCALES = tuple(round(0.70 + 0.01 * k, 2) for k in range(61))
RTS24_SOLVES = 6
# sweep-five_bus: --from is 10 + u with u on a 0.1 grid over [0, 2).
SWEEP_FROM = tuple(f"{10 + k / 10:.1f}" for k in range(20))
# audit-rts24: --seed of each check is drawn from AUDIT_SEEDS.
AUDIT_SEEDS = range(100)
AUDIT_CHECKS = 3

OBJECTIVE_RTOL = 1e-6


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= OBJECTIVE_RTOL * max(1.0, abs(ref))


def _strata(values, k):
    """Split ``values`` into ``k`` contiguous groups of near-equal size."""
    q, r = divmod(len(values), k)
    out, start = [], 0
    for i in range(k):
        end = start + q + (1 if i < r else 0)
        out.append(values[start:end])
        start = end
    return out


class SolveRts24:
    """Cold solves of rts24 with every SES score scaled by a seeded factor.
    One op: load_case, run_solve, solve_document, emit as JSON."""

    name = "solve-rts24"

    def __init__(self, seed: int, workdir: Path, reference: dict | None = None):
        rng = random.Random(seed)
        self.scales = [rng.choice(group) for group in _strata(RTS24_SCALES, RTS24_SOLVES)]
        base = casemodel.builtin_case("rts24")
        self.inputs = []
        for scale in self.scales:
            path = workdir / f"rts24-x{scale:.2f}.json"
            casemodel.save_case(casemodel.scale_ses(base, scale), path)
            self.inputs.append((path, workdir / f"solution-x{scale:.2f}.json"))
        formulation.build_problem(casemodel.load_case(self.inputs[0][0]))
        self.reference = (reference or {}).get("rts24_objective", {})

    def unit(self):
        return list(zip(self.scales, self.inputs))

    def run(self, spec):
        _, (case_path, out_path) = spec
        t0 = perf_counter()
        case = casemodel.load_case(case_path)
        solution, metrics = harness.run_solve(case)
        doc = harness.solve_document(case, solution, metrics)
        harness.emit(doc, "json", out_path)
        t1 = perf_counter()
        return [(t0, t1)], (t0, t1), (case, solution)

    def failures(self, spec, output) -> int:
        scale, (_, out_path) = spec
        case, solution = output
        doc = json.loads(out_path.read_text())
        ok = (solution.status == "converged" and doc["status"] == "converged"
              and doc["objective"] == solution.objective
              and solver.kkt_check(formulation.build_problem(case), solution).passed
              and _close(solution.objective, self.reference[f"{scale:.2f}"]))
        return 0 if ok else 1


class SweepFiveBus:
    """The CLI SES sweep of five_bus from 10 + u to 150 percent in steps of
    2. One op is one sweep point; one call of cli_main runs 70 or 71."""

    name = "sweep-five_bus"

    def __init__(self, seed: int, workdir: Path, reference: dict | None = None):
        self.start = random.Random(seed).choice(SWEEP_FROM)
        self.csv = workdir / "sweep.csv"
        self.argv = ["sweep", "builtin:five_bus", "--from", self.start, "--to", "150",
                     "--step", "2", "--output", str(self.csv)]
        formulation.build_problem(casemodel.builtin_case("five_bus"))
        self.reference = (reference or {}).get("five_bus_sweep_welfare", {})
        self.first_csv = None

    def unit(self):
        return [self.argv]

    def run(self, argv):
        # A point runs from the end of the previous one (or the start of
        # cli_main) to the return of its run_solve.
        ends = []
        original = harness.run_solve

        def stamped(*args, **kwargs):
            result = original(*args, **kwargs)
            ends.append(perf_counter())
            return result

        harness.run_solve = stamped
        try:
            t0 = perf_counter()
            code = cli.cli_main(argv)
            t1 = perf_counter()
        finally:
            harness.run_solve = original
        return list(zip([t0] + ends, ends)), (t0, t1), code

    def failures(self, argv, code) -> int:
        ref = self.reference[self.start]
        data = self.csv.read_bytes()
        if self.first_csv is None:
            self.first_csv = data
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if code != 0 or data != self.first_csv or len(rows) != len(ref):
            return len(ref)
        return sum(1 for row, w in zip(rows, ref)
                   if row["status"] != "converged" or not _close(float(row["social_welfare"]), w))


class AuditRts24:
    """`sesopf check` on rts24: validation, build_problem and a 20-point
    central-difference audit. No solver, no KKT system."""

    name = "audit-rts24"

    def __init__(self, seed: int, workdir: Path, reference: dict | None = None):
        rng = random.Random(seed)
        self.seeds = [rng.choice(AUDIT_SEEDS) for _ in range(AUDIT_CHECKS)]
        self.case = workdir / "rts24.json"
        base = casemodel.builtin_case("rts24")
        casemodel.save_case(base, self.case)
        formulation.build_problem(casemodel.load_case(self.case))

    def unit(self):
        return [["check", str(self.case), "--seed", str(s)] for s in self.seeds]

    def run(self, argv):
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.cli_main(argv)
        t1 = perf_counter()
        return [(t0, t1)], (t0, t1), (code, out.getvalue())

    def failures(self, argv, output) -> int:
        code, text = output
        return 0 if code == 0 and "(pass)" in text else 1


WORKLOADS = {w.name: w for w in (SolveRts24, SweepFiveBus, AuditRts24)}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
