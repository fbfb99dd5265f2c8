"""The interior-point solver's converged answers against a second,
independent solver (``tests/second_solver.py``, scipy's trust-constr)."""

import numpy as np
import pytest

from sesopf.formulation import build_problem
from sesopf.solver import SolverOptions, solve

import second_solver
from conftest import three_bus_copper_case, toy_case, two_bus_copper_case

# How closely a converged solve must agree with the second solver: the
# objective relatively; P (generators and aggregators, p.u.), v (p.u.) and the
# free angles (rad) absolutely. The default solves agree to within 3e-9, 1.1e-8,
# 4e-9 and 5e-10. Q is not compared: the optimum is a flat face in Q, where
# the two methods stop at points up to 0.2 p.u. apart on five_bus.
TOLERANCE = {"objective": 1e-7, "p": 1e-6, "v": 1e-6, "theta": 1e-6}

# five_bus at its default SES and at two sweep points, and the small cases. On
# the lossless copper plates (r = 0) and the one-bus toy, v and theta lie on a
# face of optima too (only v_i v_j sin(theta_i - theta_j) is priced, or nothing
# of v at all), so there only the objective and P are compared.
PROBLEMS = {
    "five_bus": (lambda five_bus: five_bus, ("objective", "p", "v", "theta")),
    "five_bus_ses40": (lambda five_bus: five_bus.scaled(0.40), ("objective", "p", "v", "theta")),
    "five_bus_ses150": (lambda five_bus: five_bus.scaled(1.50), ("objective", "p", "v", "theta")),
    "toy": (lambda _: build_problem(toy_case()), ("objective", "p")),
    "two_bus_copper": (lambda _: build_problem(two_bus_copper_case()), ("objective", "p")),
    "three_bus_copper": (lambda _: build_problem(three_bus_copper_case()), ("objective", "p")),
}


def _gaps(problem, solution, optimum):
    """The solve's distance from the second solver's optimum, by quantity."""
    lay, x, y = problem.layout, solution.x, optimum.x
    p = np.r_[lay.pg.start:lay.pg.stop, lay.pa.start:lay.pa.stop]
    reference = problem.objective(y)
    return {"objective": abs(solution.objective - reference) / abs(reference),
            "p": np.abs(x[p] - y[p]).max(),
            "v": np.abs(x[lay.v] - y[lay.v]).max(),
            "theta": np.abs(x[lay.th] - y[lay.th]).max(initial=0.0)}


def _second_optimum(problem):
    optimum = second_solver.optimum(problem)
    assert optimum.status == 1 and optimum.constr_violation < 1e-9  # gtol met, feasible
    return optimum


@pytest.mark.parametrize("name", PROBLEMS)
def test_a_converged_solve_is_the_second_solvers_optimum(name, five_bus_problem):
    make, compared = PROBLEMS[name]
    problem = make(five_bus_problem)
    solution = solve(problem, SolverOptions())
    assert solution.status == "converged"
    gaps = _gaps(problem, solution, _second_optimum(problem))
    assert {q: gaps[q] for q in compared if gaps[q] > TOLERANCE[q]} == {}


def test_the_second_solver_sees_an_early_stop(five_bus_problem):
    """At tol=1e-2 the five_bus solve at 40 % SES still ends converged, but
    the oracle tells its answer from the optimum, in the objective and in P."""
    problem = five_bus_problem.scaled(0.40)
    solution = solve(problem, SolverOptions(tol=1e-2))
    assert solution.status == "converged"
    gaps = _gaps(problem, solution, _second_optimum(problem))
    assert gaps["objective"] > TOLERANCE["objective"] and gaps["p"] > TOLERANCE["p"]
