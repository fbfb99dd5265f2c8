"""Interior-point solver, KKT verification, oracle, and derivative audit."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sesopf.casemodel import Aggregator, Bus, CaseData, Generator, Line
from sesopf.formulation import Problem, build_problem
from sesopf.solver import (
    SolverOptions, _inertia, copper_plate_oracle, finite_difference_audit,
    kkt_check, solve,
)

from conftest import (
    copperize, single_bus_case, three_bus_copper_case, toy_case,
    two_bus_copper_case,
)


# ---------------------------------------------------------------------------
# analytic toy


def test_toy_exchange_reaches_analytic_optimum():
    solution = solve(build_problem(toy_case()))
    assert solution.status == "converged"
    assert solution.p_gen[0] == pytest.approx(10.0 / 3.0, abs=1e-6)
    assert solution.p_agg[0] == pytest.approx(10.0 / 3.0, abs=1e-6)
    assert solution.objective == pytest.approx(50.0 / 3.0, abs=1e-4)


def test_oracle_toy_analytic():
    p_a, p_g, obj = copper_plate_oracle(toy_case())
    assert p_a[0] == pytest.approx(10.0 / 3.0, abs=1e-7)
    assert p_g[0] == pytest.approx(10.0 / 3.0, abs=1e-7)
    assert obj == pytest.approx(50.0 / 3.0, abs=1e-6)


# ---------------------------------------------------------------------------
# copper-plate equivalence


@pytest.mark.parametrize("builder", [two_bus_copper_case,
                                     three_bus_copper_case],
                         ids=["two_bus", "three_bus"])
def test_solver_matches_oracle_on_transparent_networks(builder):
    case = builder()
    _, _, oracle_obj = copper_plate_oracle(case)
    solution = solve(build_problem(case))
    assert solution.status == "converged"
    rel = abs(solution.objective - oracle_obj) / max(1.0, abs(oracle_obj))
    assert rel < 1e-5


def test_solver_matches_oracle_on_copperized_five_bus(five_bus):
    case = copperize(five_bus)
    _, _, oracle_obj = copper_plate_oracle(case)
    solution = solve(build_problem(case))
    assert solution.status == "converged"
    rel = abs(solution.objective - oracle_obj) / max(1.0, abs(oracle_obj))
    assert rel < 1e-5


def test_oracle_pins_demands_at_critical_when_capacity_is_exhausted():
    gen = Generator(1, 0.1, 1.0, 0.0, 0.0, 60.0, 0.0, 0.0)
    aggs = (Aggregator(1, 5.0, 40.0, 0.2, 50.0, 30.0, 0.0, 0.0),
            Aggregator(1, 9.0, 40.0, 0.2, 50.0, 30.0, 0.0, 0.0))
    case = CaseData("pinned", 100.0, (Bus(1, is_slack=True),), (), (gen,), aggs)
    p_a, p_g, _ = copper_plate_oracle(case)
    assert np.allclose(p_a, [30.0, 30.0], atol=1e-6)
    assert np.sum(p_g) == pytest.approx(60.0, abs=1e-6)


# ---------------------------------------------------------------------------
# status handling


def test_infeasible_case_detected():
    gen = Generator(1, 1.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0)
    agg = Aggregator(1, 1.0, 50.0, 0.1, 30.0, 20.0, 0.0, 0.0)
    solution = solve(build_problem(single_bus_case(gen, agg)))
    assert solution.status == "infeasible_detected"


def test_iteration_limit_reported():
    solution = solve(build_problem(toy_case()), SolverOptions(max_iter=2))
    assert solution.status == "iteration_limit"
    assert solution.iterations == 2


# ---------------------------------------------------------------------------
# five-bus convergence


def test_five_bus_converges_with_certificates(five_bus_problem,
                                              five_bus_solution):
    sol = five_bus_solution
    assert sol.status == "converged"
    assert sol.iterations <= 200
    assert sol.max_violation < 1e-6
    report = kkt_check(five_bus_problem, sol, tol=1e-6)
    assert report.passed, report


def test_five_bus_feasibility_dominance(five_bus_problem, five_bus_solution):
    p, x = five_bus_problem, five_bus_solution.x
    tol = 1e-6
    finite_lb = np.isfinite(p.lb)
    finite_ub = np.isfinite(p.ub)
    assert np.all(x[finite_lb] >= p.lb[finite_lb] - tol)
    assert np.all(x[finite_ub] <= p.ub[finite_ub] + tol)
    assert np.max(p.inequalities(x)) <= tol
    assert np.max(np.abs(p.equalities(x))) <= tol


def test_barrier_parameter_monotone(five_bus_solution):
    mus = [entry["mu"] for entry in five_bus_solution.log]
    assert all(b <= a + 1e-15 for a, b in zip(mus, mus[1:]))


def test_solver_determinism(five_bus_problem):
    a = solve(five_bus_problem)
    b = solve(five_bus_problem)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert abs(a.objective - b.objective) <= 1e-12


# ---------------------------------------------------------------------------
# KKT verifier


def test_kkt_check_requires_duals(five_bus_problem, five_bus_solution):
    bad = dataclasses.replace(five_bus_solution, lam_eq=None)
    with pytest.raises(ValueError):
        kkt_check(five_bus_problem, bad)


def test_kkt_zero_duals_reduce_to_gradient_norm(five_bus_problem,
                                                five_bus_solution):
    n = five_bus_problem.n_var
    sol = dataclasses.replace(
        five_bus_solution,
        lam_eq=np.zeros(five_bus_problem.n_eq),
        nu_ineq=np.zeros(five_bus_problem.n_ineq),
        z_lower=np.zeros(n), z_upper=np.zeros(n))
    report = kkt_check(five_bus_problem, sol)
    grad = five_bus_problem.objective_gradient(sol.x)
    assert report.stationarity == pytest.approx(np.max(np.abs(grad)))


def test_kkt_primal_residual_equals_bound_violation(five_bus_problem,
                                                    five_bus_solution):
    lay = five_bus_problem.layout
    x = five_bus_solution.x.copy()
    i = lay.v.start
    x[i] = five_bus_problem.ub[i] + 0.01  # push one voltage past its cap
    sol = dataclasses.replace(five_bus_solution, x=x)
    report = kkt_check(five_bus_problem, sol)
    assert report.primal_feasibility >= 0.01 - 1e-9


# ---------------------------------------------------------------------------
# derivative audit


def test_audit_passes_on_clean_problem(five_bus_problem):
    report = finite_difference_audit(five_bus_problem, n_points=10, seed=1)
    assert report.passed
    assert report.max_rel_error < 1e-6


class _CorruptedGradient(Problem):
    def objective_gradient(self, x):
        grad = super().objective_gradient(x)
        grad[0] += 1.0
        return grad


def test_audit_flags_corrupted_gradient(five_bus_problem):
    p = five_bus_problem
    corrupted = _CorruptedGradient(p.case, p.layout, p.lb, p.ub, p.adm,
                                   p.line_from, p.line_to, p.line_g, p.line_b)
    report = finite_difference_audit(corrupted, n_points=3, seed=1)
    assert not report.passed
    assert report.worst_entry.startswith("gradient")


def test_audit_linear_rows_exact(five_bus_problem):
    """Adequacy rows are linear, so central differences agree to roundoff."""
    rng = np.random.default_rng(2)
    from conftest import random_interior_state
    x = random_interior_state(five_bus_problem, rng)
    jac = five_bus_problem.inequality_jacobian(x)
    h = 1e-6
    for i in range(five_bus_problem.n_var):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        col = (five_bus_problem.inequalities(up)[-2:]
               - five_bus_problem.inequalities(dn)[-2:]) / (2 * h)
        assert np.allclose(jac[-2:, i], col, atol=1e-10)


def test_audit_rejects_zero_points(five_bus_problem):
    with pytest.raises(ValueError):
        finite_difference_audit(five_bus_problem, n_points=0)


# ---------------------------------------------------------------------------
# KKT inertia and evaluations per iterate


def _random_kkt(rng):
    """[[H, J'], [J, -1e-8 I]] with H indefinite, positive semidefinite and
    singular, indefinite and singular, or zero. rank(H) + rows(J) >= n keeps
    the matrix nonsingular, so every eigenvalue has a definite sign."""
    n = int(rng.integers(1, 13))
    kind = int(rng.integers(4))
    rank = n if kind == 0 else 0 if kind == 3 else int(rng.integers(0, n))
    m = int(rng.integers(n - rank, n + 1))
    b = rng.normal(size=(n, rank))
    signs = np.ones(rank) if kind == 1 else rng.choice([-1.0, 1.0], size=rank)
    j = rng.normal(size=(m, n))
    return np.block([[(b * signs) @ b.T, j.T], [j, -1e-8 * np.eye(m)]])


def test_inertia_matches_eigenvalue_signs():
    rng = np.random.default_rng(0)
    with_blocks = 0
    for _ in range(1200):
        kkt = _random_kkt(rng)
        ev = np.linalg.eigvalsh(kkt)
        expected = (int(np.sum(ev > 1e-12)), int(np.sum(ev < -1e-12)),
                    int(np.sum(np.abs(ev) <= 1e-12)))
        assert _inertia(kkt) == expected
        _, d, _ = scipy.linalg.ldl(kkt, lower=True)
        with_blocks += bool(np.any(np.diag(d, -1) != 0))
    assert with_blocks > 600  # 2x2 Bunch-Kaufman pivots are exercised
    assert _inertia(np.diag([2.0, -3.0, 0.0])) == (1, 1, 1)


def test_each_iterate_is_evaluated_once(five_bus):
    problem = build_problem(five_bus)
    calls = dict.fromkeys(("equalities", "equality_jacobian",
                           "inequality_jacobian", "lagrangian_hessian"), 0)
    for name in calls:
        def counted(*args, _method=getattr(problem, name), _name=name):
            calls[_name] += 1
            return _method(*args)
        setattr(problem, name, counted)
    solution = solve(problem)
    assert solution.status == "converged"
    assert calls["equality_jacobian"] <= solution.iterations
    assert calls["inequality_jacobian"] <= solution.iterations
    assert calls["lagrangian_hessian"] <= solution.iterations
    # one evaluation at the start, one per line-search trial, one at the end
    assert calls["equalities"] <= 2 * solution.iterations


def test_repeated_solves_retain_no_memory(five_bus_problem):
    """A sweep runs thousands of KKT solves in one process; none may leave
    memory behind (an ill-conditioned scipy.linalg.solve keeps ~650 bytes)."""
    solve(five_bus_problem)
    tracemalloc.start()
    try:
        solve(five_bus_problem)
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            solve(five_bus_problem)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown < 16_000
