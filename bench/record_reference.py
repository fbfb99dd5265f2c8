"""Record bench/reference.json, the values the benchmark's correctness gate
compares against: the rts24 objective at every SES scale on the solve-rts24
grid, and the five-bus sweep welfare column for every sweep start. It also
runs the audit at every audit seed and records the worst relative error.

    python3 bench/record_reference.py

Run it once, on the commit that defines the benchmark; later commits are
checked against what it recorded.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import env


def main() -> None:
    env.pin_blas()
    env.use_checkout_source()
    import workloads
    from sesopf import casemodel, cli, formulation, harness, solver

    ref = {"recorded_on": env.git_commit(),
           "rts24_objective": {}, "five_bus_sweep_welfare": {}, "audit_max_rel_error": {}}
    base = casemodel.builtin_case("rts24")
    with tempfile.TemporaryDirectory(dir=env.ROOT) as tmp:
        tmp = Path(tmp)
        for scale in workloads.RTS24_SCALES:
            path = tmp / "case.json"
            casemodel.save_case(casemodel.scale_ses(base, scale), path)
            case = casemodel.load_case(path)
            solution, _ = harness.run_solve(case)
            kkt = solver.kkt_check(formulation.build_problem(case), solution)
            if solution.status != "converged" or not kkt.passed:
                raise SystemExit(f"rts24 x{scale}: {solution.status}, kkt {kkt}")
            ref["rts24_objective"][f"{scale:.2f}"] = solution.objective
            print(f"rts24 x{scale:.2f}: {solution.iterations} it, {solution.objective!r}")

        for start in workloads.SWEEP_FROM:
            out = tmp / "sweep.csv"
            code = cli.cli_main(["sweep", "builtin:five_bus", "--from", start, "--to", "150",
                                 "--step", "2", "--output", str(out)])
            rows = list(csv.DictReader(io.StringIO(out.read_text())))
            if code != 0 or any(r["status"] != "converged" for r in rows):
                raise SystemExit(f"sweep from {start}: exit {code}")
            ref["five_bus_sweep_welfare"][start] = [float(r["social_welfare"]) for r in rows]
            print(f"sweep from {start}: {len(rows)} points")

        casemodel.save_case(base, tmp / "rts24.json")
        for seed in workloads.AUDIT_SEEDS:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = cli.cli_main(["check", str(tmp / "rts24.json"), "--seed", str(seed)])
            if code != 0:
                raise SystemExit(f"audit seed {seed}: exit {code}\n{text.getvalue()}")
            error = float(text.getvalue().split("max relative error ")[1].split()[0])
            ref["audit_max_rel_error"][str(seed)] = error
            print(f"audit seed {seed}: {error:.3e}")

    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
