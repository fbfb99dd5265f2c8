"""Command-line surface: solve, sweep, check, and oracle subcommands.

Exit codes: 0 success, 1 solver non-convergence, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import harness
from .casemodel import CaseData, builtin_case, load_case, validate_case
from .formulation import build_problem
from .solver import SolverOptions, copper_plate_oracle, finite_difference_audit, solve


def _load(spec: str) -> CaseData:
    if spec.startswith("builtin:"):
        return builtin_case(spec.split(":", 1)[1])
    return load_case(spec)


def _options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, max_iter=args.max_iter)


def _write_or_print(doc, fmt, path):
    if path is None:
        harness.write_result(doc, fmt, sys.stdout, lineterminator="\n")
    else:
        harness.emit(doc, fmt, path)


def cli_main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-6)
    common.add_argument("--max-iter", type=int, default=200)
    common.add_argument("--seed", type=int, default=0,
                        help="seed of the audit's random points; used only by check")
    common.add_argument("--output", default=None)
    common.add_argument("--format", choices=["csv", "json"], default=None)

    parser = argparse.ArgumentParser(
        prog="sesopf",
        description="Equity-weighted AC optimal power flow under scarcity")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve a case at default SES")
    p_solve.add_argument("case")
    p_solve.add_argument("--trace", metavar="FILE", default=None,
                         help="write the solver log to FILE as JSON lines")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="SES sensitivity sweep")
    p_sweep.add_argument("case")
    p_sweep.add_argument("--from", dest="from_pct", type=float, default=10.0)
    p_sweep.add_argument("--to", dest="to_pct", type=float, default=150.0)
    p_sweep.add_argument("--step", dest="step_pct", type=float, default=2.0)
    p_sweep.add_argument("--trace", metavar="FILE", default=None,
                         help="write every point's solver log to FILE as JSON lines")

    p_check = sub.add_parser("check", parents=[common],
                             help="validate a case and audit derivatives")
    p_check.add_argument("case")

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="copper-plate comparison")
    p_oracle.add_argument("case")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        case = _load(args.case)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            solution, metrics = harness.run_solve(case, _options(args))
            if args.trace is not None:
                with open(args.trace, "w") as fh:
                    harness.write_trace(fh, solution.log)
            doc = harness.solve_document(case, solution, metrics)
            _write_or_print(doc, args.format or "json", args.output)
            return 0 if solution.status == "converged" else 1

        if args.command == "sweep":
            trace = contextlib.nullcontext() if args.trace is None else open(args.trace, "w")
            with trace as fh:
                on_solve = None if fh is None else (
                    lambda pct, sol: harness.write_trace(fh, sol.log, scale_pct=pct))
                result = harness.ses_sweep(case, args.from_pct, args.to_pct,
                                           args.step_pct, _options(args), on_solve=on_solve)
            _write_or_print(result, args.format or "csv", args.output)
            ok = all(r.status == "converged" for r in result.records)
            return 0 if ok else 1

        if args.command == "check":
            report = validate_case(case)
            for message in report:
                print(f"violation: {message}", file=sys.stderr)
            if report:
                return 2
            audit = finite_difference_audit(build_problem(case), n_points=20,
                                            seed=args.seed)
            print("validation: ok")
            print(f"derivative audit: max relative error "
                  f"{audit.max_rel_error:.3e} at {audit.worst_entry} "
                  f"({'pass' if audit.passed else 'fail'})")
            return 0 if audit.passed else 1

        if args.command == "oracle":
            p_a, p_g, obj = copper_plate_oracle(case)
            solution = solve(build_problem(case), _options(args))
            rel = abs(solution.objective - obj) / max(1.0, abs(obj))
            doc = {
                "oracle_objective": obj,
                "solver_objective": solution.objective,
                "solver_status": solution.status,
                "relative_gap": rel,
                "oracle_p_agg": list(np.asarray(p_a)),
                "oracle_p_gen": list(np.asarray(p_g)),
            }
            _write_or_print(doc, args.format or "json", args.output)
            return 0 if solution.status == "converged" else 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
