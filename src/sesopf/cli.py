"""Command-line surface: solve, sweep, check, and oracle subcommands.

Exit codes: 0 success, 1 solver non-convergence, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from . import harness
from .casemodel import CaseData, builtin_case, load_case, validate_case
from .formulation import Problem, build_problem
from .solver import SolverOptions, copper_plate_oracle, finite_difference_audit, solve


def _load(spec: str) -> CaseData:
    if spec.startswith("builtin:"):
        return builtin_case(spec.split(":", 1)[1])
    return load_case(spec)


def _given(args, *names) -> dict:
    """The options among ``names`` that the command line sets, as keyword
    arguments: the library's default stands for every other."""
    return {name: getattr(args, name) for name in names if name in args}


def _options(args) -> SolverOptions:
    return SolverOptions(**_given(args, "tol", "max_iter"))


def _print(write) -> None:
    """Call ``write(sys.stdout)`` and flush stdout. A reader that has closed
    the pipe (``sesopf ... | head``) ends the output, not the command:
    stdout is pointed at os.devnull, so that the flush at exit stays quiet,
    and the command returns the exit code it has earned."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_or_print(doc, fmt, path):
    if path is None:
        _print(lambda out: harness.write_result(doc, fmt, out, lineterminator="\n"))
    else:
        harness.emit(doc, fmt, path)


def _solving(sub, name: str, help: str, fmt: str) -> argparse.ArgumentParser:
    """A subcommand that solves the case: solver options and an output."""
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    parser.add_argument("case")
    parser.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    parser.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--output", metavar="FILE")
    parser.add_argument("--format", choices=["csv", "json"], default=fmt)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and building it costs more than a small case's check."""
    parser = argparse.ArgumentParser(
        prog="sesopf",
        description="Equity-weighted AC optimal power flow under scarcity")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = _solving(sub, "solve", "solve a case at default SES", "json")
    p_solve.add_argument("--trace", metavar="FILE", default=None,
                         help="write the solver log to FILE as JSON lines")

    p_sweep = _solving(sub, "sweep", "SES sensitivity sweep", "csv")
    p_sweep.add_argument("--from", dest="from_pct", type=float, default=harness.SWEEP_FROM_PCT)
    p_sweep.add_argument("--to", dest="to_pct", type=float, default=harness.SWEEP_TO_PCT)
    p_sweep.add_argument("--step", dest="step_pct", type=float, default=harness.SWEEP_STEP_PCT)
    p_sweep.add_argument("--trace", metavar="FILE", default=None,
                         help="write every point's solver log to FILE as JSON lines")

    p_check = sub.add_parser("check", help="validate a case and audit derivatives",
                             allow_abbrev=False)
    p_check.add_argument("case")
    p_check.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                         help="seed of the derivative audit's random points")

    _solving(sub, "oracle", "copper-plate comparison", "json")
    return parser


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        case = _load(args.case)
    except (OSError, KeyError, ValueError) as exc:  # a KeyError's str() adds quotes
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            solution, metrics = harness.run_solve(case, _options(args))
            if args.trace is not None:
                with open(args.trace, "w") as fh:
                    harness.write_trace(fh, solution.log)
            doc = harness.solve_document(case, solution, metrics)
            _write_or_print(doc, args.format, args.output)
            return 0 if solution.status == "converged" else 1

        if args.command == "sweep":
            # reject the options and the range before the trace file exists
            opts = _options(args)
            harness.sweep_points(args.from_pct, args.to_pct, args.step_pct)
            trace = contextlib.nullcontext() if args.trace is None else open(args.trace, "w")
            with trace as fh:
                on_solve = None if fh is None else (
                    lambda pct, sol: harness.write_trace(fh, sol.log, scale_pct=pct))
                result = harness.ses_sweep(case, args.from_pct, args.to_pct,
                                           args.step_pct, opts, on_solve=on_solve)
            _write_or_print(result, args.format, args.output)
            ok = all(r.status == "converged" for r in result.records)
            return 0 if ok else 1

        if args.command == "check":
            report = validate_case(case)
            for message in report:
                print(f"violation: {message}", file=sys.stderr)
            if report:
                return 2
            audit = finite_difference_audit(Problem(case), **_given(args, "seed"))
            _print(lambda out: out.write(
                f"validation: ok\nderivative audit: max relative error "
                f"{audit.max_rel_error:.3e} at {audit.worst_entry} "
                f"({'pass' if audit.passed else 'fail'})\n"))
            return 0 if audit.passed else 1

        if args.command == "oracle":
            problem = build_problem(case)  # validates the case first
            p_a, p_g, obj = copper_plate_oracle(case)
            solution = solve(problem, _options(args))
            rel = abs(solution.objective - obj) / max(1.0, abs(obj))
            doc = {
                "oracle_objective": obj,
                "solver_objective": solution.objective,
                "solver_status": solution.status,
                "relative_gap": rel,
                "oracle_p_agg": list(np.asarray(p_a)),
                "oracle_p_gen": list(np.asarray(p_g)),
            }
            _write_or_print(doc, args.format, args.output)
            return 0 if solution.status == "converged" else 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
