"""Interior-point solver, KKT verification, oracle, and derivative audit."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sesopf import solver
from sesopf.casemodel import Aggregator, Bus, CaseData, Generator, Line, scale_ses
from sesopf.formulation import Problem, build_problem
from sesopf.solver import (
    MU0, MU_REDUCTION, SolverOptions, _inertia, copper_plate_oracle,
    finite_difference_audit, kkt_check, solve,
)

from conftest import (
    copperize, single_bus_case, three_bus_copper_case, toy_case,
    two_bus_copper_case,
)


# ---------------------------------------------------------------------------
# analytic toy


def test_toy_exchange_reaches_analytic_optimum():
    problem = build_problem(toy_case())
    solution = solve(problem)
    assert solution.status == "converged"
    # both units' Q are fixed at 0, so their duals fold into the bound duals
    assert kkt_check(problem, solution).passed
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
    assert solution.reason == "total generation capacity below total critical active demand"


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


class _CorruptedEqJacobian(Problem):
    def equality_jacobian(self, x):
        jac = super().equality_jacobian(x)
        jac[3, 30] += 1.0
        return jac


class _CorruptedIneqJacobian(Problem):
    def inequality_jacobian(self, x):
        jac = super().inequality_jacobian(x)
        jac[5, 27] += 1.0
        return jac


def _rebuilt(cls, p):
    return cls(p.case, p.layout, p.lb, p.ub, p.adm,
               p.line_from, p.line_to, p.line_g, p.line_b)


def test_audit_flags_corrupted_gradient(five_bus_problem):
    report = finite_difference_audit(_rebuilt(_CorruptedGradient, five_bus_problem),
                                     n_points=3, seed=1)
    assert not report.passed
    assert report.worst_entry == "gradient[0]"


@pytest.mark.parametrize("cls, entry", [(_CorruptedEqJacobian, "eq_jacobian[3, 30]"),
                                        (_CorruptedIneqJacobian, "ineq_jacobian[5, 27]")])
def test_audit_flags_corrupted_jacobian_entry(cls, entry, five_bus_problem):
    report = finite_difference_audit(_rebuilt(cls, five_bus_problem), n_points=3, seed=1)
    assert not report.passed
    assert report.worst_entry == entry


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


def _three_coupled_blocks():
    """Three 2x2 pivots, then a 1x1 pivot. Between the blocks the factor's
    subdiagonal holds nonzero L multipliers, not block entries."""
    kkt = np.full((7, 7), 0.5)
    kkt[6, :] = kkt[:, 6] = 0.25
    np.fill_diagonal(kkt, 0.0)
    kkt[6, 6] = -1.0
    for i, v in ((0, 4.0), (2, -3.0), (4, 2.0)):
        kkt[i, i + 1] = kkt[i + 1, i] = v
    return kkt, 6


def _two_blocks_same_pivot():
    """Two 2x2 pivots that both swap in the same row, so all four pivot
    entries are equal (-4) and only their order tells the blocks apart."""
    kkt = np.array([[0, -2, 1, -3, 2], [-2, 0, 3, 1, -1], [1, 3, 0, -2, -1],
                    [-3, 1, -2, 0, 3], [2, -1, -1, 3, 0]], dtype=float)
    return kkt, 4


@pytest.mark.parametrize("build", [_three_coupled_blocks, _two_blocks_same_pivot])
def test_inertia_reads_consecutive_two_by_two_blocks(build):
    kkt, run = build()
    n = len(kkt)
    lwork = int(scipy.linalg.lapack.dsytrf_lwork(n, lower=1)[0])
    _, ipiv, info = scipy.linalg.lapack.dsytrf(kkt, lower=1, lwork=lwork)
    assert info == 0
    assert (ipiv < 0).tolist() == [True] * run + [False] * (n - run)
    ev = np.linalg.eigvalsh(kkt)
    assert np.min(np.abs(ev)) > 0.1
    assert _inertia(kkt) == (int(np.sum(ev > 0)), int(np.sum(ev < 0)), 0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (3, 1), (4, 4)])
def test_inertia_rejects_non_finite_matrices(value, where):
    """LAPACK factors a non-finite matrix without complaint, and an infinite
    pivot would read as positive; such a matrix must never pass as having
    the inertia the solver accepts."""
    kkt = np.diag([2.0, 1.0, 3.0, -1.0, -2.0])
    kkt[3, 0] = kkt[0, 3] = 0.5
    kkt[where] = kkt[where[::-1]] = value
    try:
        counts = _inertia(kkt)
    except ValueError:
        return
    assert counts != (3, 2, 0)


def test_inertia_matches_ldl_on_solver_matrices(five_bus_problem, monkeypatch):
    """Every KKT matrix of a five_bus solve gets the counts that the
    eigenvalues of scipy.linalg.ldl's block diagonal D give."""
    seen = []

    def recording(kkt):
        seen.append(kkt.copy())  # the solver refills kkt in place
        return _inertia(kkt)

    monkeypatch.setattr(solver, "_inertia", recording)
    solution = solve(five_bus_problem)
    assert solution.status == "converged"
    assert len(seen) >= solution.iterations - 1
    for kkt in seen:
        ev = np.linalg.eigvalsh(scipy.linalg.ldl(kkt, lower=True)[1])
        pos, neg = int(np.sum(ev > 1e-12)), int(np.sum(ev < -1e-12))
        assert _inertia(kkt) == (pos, neg, len(ev) - pos - neg)


def test_iteration_counts_are_pinned(five_bus_solution, rts24_solution):
    """The same iterates as before: a change meant to keep them must keep
    these counts. A deliberate algorithm change updates the pins and records
    the old and new counts in CHANGES.md."""
    assert five_bus_solution.iterations == 25
    assert rts24_solution.iterations == 31


# ---------------------------------------------------------------------------
# barrier schedule and per-iteration log


@pytest.mark.parametrize("scale, parent_objective", [
    (0.70, 3_754_861.77), (1.00, 5_398_138.39), (1.30, 7_041_463.31)])
def test_rts24_converges_within_forty_iterations(rts24, scale, parent_objective):
    """The objective-sized barrier keeps the optimum that the fixed
    mu0 = 0.1 schedule reached in 129-144 iterations."""
    problem = build_problem(scale_ses(rts24, scale))
    solution = solve(problem)
    assert solution.status == "converged"
    assert solution.iterations <= 40
    assert kkt_check(problem, solution).passed
    assert solution.objective == pytest.approx(parent_objective, rel=1e-6)


def _gradient_sized_mu0(problem):
    grad = problem.objective_gradient(problem.initial_point())
    return 0.1 * max(1.0, np.max(np.abs(grad)) / 100.0)


def test_initial_barrier_is_sized_to_the_gradient(five_bus_problem, five_bus_solution):
    assert _gradient_sized_mu0(five_bus_problem) > 100 * MU0
    assert five_bus_solution.log[0]["mu"] == _gradient_sized_mu0(five_bus_problem)


def test_small_objective_starts_at_mu0():
    """The toy exchange with every price divided by 20: its gradient at the
    start point is 50, below 100, so the barrier starts at mu0 itself."""
    gen = Generator(1, 0.05, 0.0, 0.0, 0.0, 8.0, 0.0, 0.0)
    agg = Aggregator(1, 1.0, 0.5, 0.05, 8.0, 0.0, 0.0, 0.0)
    problem = build_problem(single_bus_case(gen, agg, "small_toy"))
    solution = solve(problem)
    assert solution.status == "converged"
    assert solution.log[0]["mu"] == MU0 == _gradient_sized_mu0(problem)
    assert solution.p_gen[0] == pytest.approx(10.0 / 3.0, abs=1e-6)


def test_barrier_decreases_superlinearly(five_bus_solution, rts24_solution):
    opts = SolverOptions()
    for solution in (five_bus_solution, rts24_solution):
        mus = [row["mu"] for row in solution.log]
        cuts = [(a, b) for a, b in zip(mus, mus[1:]) if b != a]
        assert cuts
        for a, b in cuts:
            assert b == max(opts.tol / 100.0, min(MU_REDUCTION * a, a ** 1.5))
        assert any(b == a ** 1.5 < MU_REDUCTION * a for a, b in cuts)


def test_converged_solve_ends_with_a_small_barrier(five_bus_solution, rts24_solution):
    for solution in (five_bus_solution, rts24_solution):
        assert solution.log[-1]["mu"] <= SolverOptions().tol


def test_log_rows_carry_the_step_columns(five_bus_solution):
    """Row k describes iterate k and the step that reached it; the first
    row, the start point, was reached by no step."""
    log = five_bus_solution.log
    assert [row["iter"] for row in log] == list(range(1, five_bus_solution.iterations + 1))
    keys = {"iter", "mu", "inf_pr", "inf_du", "inf_comp", "f",
            "alpha_p", "alpha_d", "delta_w", "backtracks", "fallback"}
    assert all(set(row) == keys for row in log)
    assert (log[0]["alpha_p"], log[0]["alpha_d"], log[0]["backtracks"]) == (0.0, 0.0, 0)
    for row in log[1:]:
        assert 0.0 < row["alpha_p"] <= 1.0
        assert 0.0 < row["alpha_d"] <= 1.0
        assert row["delta_w"] >= 0.0
        assert 0 <= row["backtracks"] <= 30
    assert all(type(row["fallback"]) is bool for row in log)
    assert all(isinstance(row[k], float) for row in log
               for k in ("mu", "inf_pr", "inf_du", "inf_comp", "f", "alpha_p", "alpha_d",
                         "delta_w"))


def test_log_rows_record_backtracks_and_regularization():
    """The two-bus case backtracks and the three-bus case regularizes its
    Hessian; both show in the rows of the iterates those steps reached."""
    two = solve(build_problem(two_bus_copper_case()))
    three = solve(build_problem(three_bus_copper_case()))
    assert two.status == three.status == "converged"
    assert any(row["backtracks"] > 0 for row in two.log)
    assert any(row["delta_w"] > 0 for row in three.log)
    assert not any(row["fallback"] for row in two.log + three.log)


def test_log_rows_flag_the_fallback_step(monkeypatch):
    """With every merit value NaN no trial is accepted, so each step is the
    full boundary-limited one after 30 halvings."""
    merit = solver._merit
    monkeypatch.setattr(solver, "_merit", lambda *args: (np.nan, merit(*args)[1]))
    solution = solve(build_problem(toy_case()), SolverOptions(max_iter=4))
    assert solution.status == "iteration_limit"
    for row in solution.log[1:]:
        assert row["fallback"] is True
        assert row["backtracks"] == 30
        assert 0.0 < row["alpha_p"] <= 1.0


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
