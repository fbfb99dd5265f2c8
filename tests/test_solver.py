"""Interior-point solver, KKT verification, oracle, and derivative audit."""

import collections
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from sesopf import acnetwork, casemodel, solver
from sesopf.casemodel import (
    Aggregator, Bus, CaseData, Generator, Line, builtin_case, scale_ses,
)
from sesopf.formulation import Problem, build_problem
from sesopf.solver import (
    MU0, MU_REDUCTION, SolverOptions, _inertia, copper_plate_oracle,
    finite_difference_audit, kkt_check, solve,
)

from conftest import (
    assembled_hessian, copperize, random_interior_state, single_bus_case,
    three_bus_copper_case, toy_case, two_bus_copper_case,
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


@pytest.mark.xfail(strict=True, reason=(
    "a known defect (ROADMAP item 3): with its reactances cut to a tenth the "
    "copper-plate rts24 reaches the oracle's objective within 2.2e-11 but "
    "ends iteration_limit at 200 iterations and fails kkt_check"))
def test_solver_matches_oracle_on_a_copper_plate_rts24(rts24):
    """rts24 with every line at r = 0, s_max = 1e6 and x / 10 is a copper
    plate: the reactances no longer limit the transfers, as they still do
    under ``copperize`` (1.3 % below the oracle). The solve should converge,
    pass kkt_check and match copper_plate_oracle."""
    lines = tuple(Line(ln.from_bus, ln.to_bus, 0.0, 0.1 * ln.x, 1e6) for ln in rts24.lines)
    case = dataclasses.replace(rts24, name="rts24_copper_plate", lines=lines)
    problem = build_problem(case)
    solution = solve(problem)
    assert solution.status == "converged"
    assert kkt_check(problem, solution).passed
    _, _, oracle_obj = copper_plate_oracle(case)
    assert abs(solution.objective - oracle_obj) / max(1.0, abs(oracle_obj)) < 1e-6


def _pinned_case():
    """Capacity equals total critical demand: both demands sit at p_c."""
    gen = Generator(1, 0.1, 1.0, 0.0, 0.0, 60.0, 0.0, 0.0)
    aggs = (Aggregator(1, 5.0, 40.0, 0.2, 50.0, 30.0, 0.0, 0.0),
            Aggregator(1, 9.0, 40.0, 0.2, 50.0, 30.0, 0.0, 0.0))
    return CaseData("pinned", 100.0, (Bus(1, is_slack=True),), (), (gen,), aggs)


def _linear_marginal_case():
    """A linear-cost unit (a = 0, b = 10) sets the price: demand 50 - P
    meets the unit's step at 10 $/MWh, so P = 40 MW and the weighted
    welfare is 50*40 - 40**2/2 - 10*40 = 800 $/h."""
    gen = Generator(1, 0.0, 10.0, 0.0, 0.0, 100.0, 0.0, 0.0)
    agg = Aggregator(1, 1.0, 50.0, 1.0, 100.0, 0.0, 0.0, 0.0)
    return single_bus_case(gen, agg, "linear_marginal")


def test_oracle_pins_demands_at_critical_when_capacity_is_exhausted():
    p_a, p_g, _ = copper_plate_oracle(_pinned_case())
    assert np.allclose(p_a, [30.0, 30.0], atol=1e-6)
    assert np.sum(p_g) == pytest.approx(60.0, abs=1e-6)


def test_oracle_solves_a_linear_cost_marginal_unit():
    case = _linear_marginal_case()
    p_a, p_g, obj = copper_plate_oracle(case)
    assert p_a[0] == pytest.approx(40.0, abs=1e-9)
    assert p_g[0] == pytest.approx(40.0, abs=1e-9)
    assert obj == pytest.approx(800.0, abs=1e-9)
    solution = solve(build_problem(case))
    assert solution.status == "converged"
    assert abs(solution.objective - obj) / max(1.0, abs(obj)) < 1e-5
    assert solution.p_gen[0] == pytest.approx(40.0, abs=1e-5)


@pytest.mark.parametrize("builder", [
    toy_case, two_bus_copper_case, three_bus_copper_case, _pinned_case, _linear_marginal_case,
    lambda: copperize(builtin_case("five_bus")), lambda: builtin_case("five_bus"),
    lambda: builtin_case("rts24")],
    ids=["toy", "two_bus", "three_bus", "pinned", "linear_marginal", "five_bus_copper",
         "five_bus", "rts24"])
def test_oracle_dispatch_balances_inside_the_boxes(builder):
    """The dispatch interpolates between the two bracketing prices, so it
    balances to rounding and keeps every unit inside its box."""
    case = builder()
    p_a, p_g, _ = copper_plate_oracle(case)
    assert abs(np.sum(p_g) - np.sum(p_a)) <= 1e-9
    assert all(a.p_c <= p <= a.p_n for a, p in zip(case.aggregators, p_a))
    assert all(g.p_min <= p <= g.p_max for g, p in zip(case.generators, p_g))


def test_oracle_rejects_a_case_no_price_can_balance():
    gen = Generator(1, 1.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0)
    agg = Aggregator(1, 1.0, 50.0, 0.1, 30.0, 20.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="no shadow price balances"):
        copper_plate_oracle(single_bus_case(gen, agg))


# ---------------------------------------------------------------------------
# status handling


def test_infeasible_case_detected():
    gen = Generator(1, 1.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0)
    agg = Aggregator(1, 1.0, 50.0, 0.1, 30.0, 20.0, 0.0, 0.0)
    solution = solve(build_problem(single_bus_case(gen, agg)))
    assert solution.status == "infeasible_detected"
    assert solution.reason == "total generation capacity below total critical active demand"
    # the screen reports zero duals of the problem's shapes
    problem = build_problem(single_bus_case(gen, agg))
    for duals, size in [(solution.lam_eq, problem.n_eq), (solution.nu_ineq, problem.n_ineq),
                        (solution.z_lower, problem.n_var), (solution.z_upper, problem.n_var)]:
        assert np.array_equal(duals, np.zeros(size))


def test_reactive_shortfall_is_screened(monkeypatch):
    """Active supply covers the critical demand but reactive capability does
    not; the screen reports it from the one evaluation at the start point."""
    gen = Generator(1, 1.0, 0.0, 0.0, 0.0, 100.0, -5.0, 5.0)
    agg = Aggregator(1, 1.0, 50.0, 0.1, 30.0, 20.0, 20.0, 10.0)
    problem = build_problem(single_bus_case(gen, agg))
    calls = []

    def counted(self, x, state=None, _constraints=Problem.constraints):
        calls.append(x)
        return _constraints(self, x, state)
    monkeypatch.setattr(Problem, "constraints", counted)
    solution = solve(problem)
    assert solution.status == "infeasible_detected"
    assert solution.reason == "total reactive capability below total critical reactive demand"
    assert len(calls) == 1


def test_an_empty_variable_box_is_screened(five_bus):
    """A Problem built without validation from five_bus with one bus's
    v_min above its v_max has an empty box; the screen names it before any
    step."""
    buses = list(five_bus.buses)
    buses[2] = dataclasses.replace(buses[2], v_min=1.1, v_max=1.0)
    solution = solve(Problem(dataclasses.replace(five_bus, buses=tuple(buses))))
    assert solution.status == "infeasible_detected"
    assert solution.reason == "empty variable box"
    assert solution.iterations == 0


def test_iteration_limit_reported():
    solution = solve(build_problem(toy_case()), SolverOptions(max_iter=2))
    assert solution.status == "iteration_limit"
    assert solution.iterations == 2


@pytest.mark.parametrize("max_iter", [2.5, math.nan, True, False, "3", -1])
def test_max_iter_must_be_a_nonnegative_integer(max_iter):
    """A float, a bool or a string is rejected up front, naming the value,
    instead of failing inside solve or running a bool's one iteration."""
    with pytest.raises(ValueError, match=f"max_iter .* got {max_iter!r}"):
        SolverOptions(max_iter=max_iter)


def test_max_iter_accepts_numpy_integers():
    assert SolverOptions(max_iter=np.int64(3)).max_iter == 3
    assert SolverOptions(max_iter=0).max_iter == 0


@pytest.mark.parametrize("tol", [True, "1e-6", None, 0.0, -1e-6, math.nan, math.inf])
def test_tol_must_be_a_positive_finite_number(tol):
    """A bool or a string is rejected up front, naming the value, instead of
    reading as 1 or failing inside a comparison."""
    with pytest.raises(ValueError, match=f"tol .* got {re.escape(repr(tol))}"):
        SolverOptions(tol=tol)


def test_tol_accepts_numpy_floats():
    assert SolverOptions(tol=np.float64(1e-7)).tol == 1e-7
    assert SolverOptions(tol=np.float32(1e-3)).tol == np.float32(1e-3)
    assert SolverOptions(tol=1).tol == 1


# ---------------------------------------------------------------------------
# five-bus convergence


def test_five_bus_converges_with_certificates(five_bus_problem,
                                              five_bus_solution):
    sol = five_bus_solution
    assert sol.status == "converged"
    assert sol.iterations <= 200
    assert sol.max_violation < 1e-6
    report = kkt_check(five_bus_problem, sol)
    assert report.passed, report


def test_five_bus_feasibility_dominance(five_bus_problem, five_bus_solution):
    p, x = five_bus_problem, five_bus_solution.x
    tol = 1e-6
    finite_lb = np.isfinite(p.lb)
    finite_ub = np.isfinite(p.ub)
    assert np.all(x[finite_lb] >= p.lb[finite_lb] - tol)
    assert np.all(x[finite_ub] <= p.ub[finite_ub] + tol)
    eq, ineq = p.constraints(x)
    assert np.max(ineq) <= tol
    assert np.max(np.abs(eq)) <= tol


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


@pytest.mark.parametrize("name", ["five_bus", "rts24"])
def test_max_violation_is_the_kkt_primal_residual(name, request):
    """Solution.max_violation and KKTReport.primal_feasibility are one
    definition, so they agree to the bit."""
    case = request.getfixturevalue(name)
    solution = request.getfixturevalue(f"{name}_solution")
    report = kkt_check(build_problem(case), solution)
    assert solution.max_violation == report.primal_feasibility


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
    def jacobians(self, x):
        je, jh = super().jacobians(x)
        je[3, 30] += 1.0
        return je, jh


class _CorruptedIneqJacobian(Problem):
    def jacobians(self, x):
        je, jh = super().jacobians(x)
        jh[5, 27] += 1.0
        return je, jh


class _NaNGradient(Problem):
    def objective_gradient(self, x):
        grad = super().objective_gradient(x)
        grad[0] = np.nan
        return grad


class _NaNEqJacobian(Problem):
    def jacobians(self, x):
        je, jh = super().jacobians(x)
        je[3, 30] = np.nan
        return je, jh


class _NaNHessian(Problem):
    def lagrangian_hessian(self, x, lam_eq, lam_ineq, state=None):
        n_net = self.n_var - self.layout.v.start
        return np.full(self.n_var, np.nan), np.full((n_net, n_net), np.nan)


def _rebuilt(cls, p):
    return cls(p.case)


def test_nan_hessian_ends_as_numerical_failure(five_bus_problem):
    """No delta_w makes a NaN KKT matrix factorable: the first iteration
    ends the solve as numerical_failure, with the start point's log row."""
    solution = solve(_rebuilt(_NaNHessian, five_bus_problem))
    assert solution.status == "numerical_failure"
    assert solution.iterations == 1
    assert len(solution.log) == 1
    assert all(math.isfinite(value) for value in solution.log[0].values())
    assert math.isfinite(solution.objective) and math.isfinite(solution.max_violation)


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


@pytest.mark.parametrize("cls, entry", [(_NaNGradient, "gradient[0]"),
                                        (_NaNEqJacobian, "eq_jacobian[3, 30]")])
def test_audit_fails_on_a_nan_derivative(cls, entry, five_bus_problem):
    """A NaN error never compares greater than the worst so far; the audit
    counts it as infinite, so it fails and names the entry."""
    report = finite_difference_audit(_rebuilt(cls, five_bus_problem), n_points=3, seed=1)
    assert not report.passed
    assert report.worst_entry == entry
    assert report.max_rel_error == np.inf


class _TiedGradientAndJacobian(Problem):
    """gradient[0] and J_E[3, 30] far from their differences, both at an
    error of exactly 1: |1e300 - f| / 1e300 for a moderate f."""
    def objective_gradient(self, x):
        grad = super().objective_gradient(x)
        grad[0] = 1e300
        return grad

    def jacobians(self, x):
        je, jh = super().jacobians(x)
        je[3, 30] = 1e300
        return je, jh


class _GradientOffThenNaNJacobian(_CorruptedGradient, _NaNEqJacobian):
    pass


@pytest.mark.parametrize("cls, entry, error", [
    (_TiedGradientAndJacobian, "gradient[0]", 1.0),
    (_GradientOffThenNaNJacobian, "eq_jacobian[3, 30]", np.inf)])
def test_audit_names_the_first_worst_entry_in_row_order(cls, entry, error, five_bus_problem):
    """The gradient, J_E and J_h are compared in one stack, gradient row
    first: a tie names the gradient entry, as comparing the gradient before
    the Jacobian with a strict > did, and a NaN Jacobian entry counts as
    inf above a finite gradient error."""
    report = finite_difference_audit(_rebuilt(cls, five_bus_problem), n_points=3, seed=1)
    assert (report.max_rel_error, report.worst_entry) == (error, entry)


class _AllZero(Problem):
    """Every row and every derivative 0, so every error is 0."""
    def objective(self, x):
        return np.zeros(x.shape[:-1])

    def objective_gradient(self, x):
        return np.zeros(self.n_var)

    def _network_rows(self, x):
        return np.zeros(x.shape[:-1] + (self.n_eq,)), np.zeros(x.shape[:-1] + (self.n_ineq - 2,))

    def _adequacy_rows(self, x):
        return np.zeros(x.shape[:-1] + (2,))

    def jacobians(self, x):
        return np.zeros((self.n_eq, self.n_var)), np.zeros((self.n_ineq, self.n_var))


def test_audit_of_an_all_zero_error_names_no_entry(five_bus_problem):
    report = finite_difference_audit(_rebuilt(_AllZero, five_bus_problem), n_points=3, seed=1)
    assert report == solver.AuditReport(0.0, "none", 3)
    assert report.passed


def test_audit_linear_rows_exact(five_bus_problem):
    """Adequacy rows are linear, so central differences agree to roundoff."""
    rng = np.random.default_rng(2)
    from conftest import random_interior_state
    x = random_interior_state(five_bus_problem, rng)
    _, jac = five_bus_problem.jacobians(x)
    h = 1e-6
    for i in range(five_bus_problem.n_var):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        col = (five_bus_problem.constraints(up)[1][-2:]
               - five_bus_problem.constraints(dn)[1][-2:]) / (2 * h)
        assert np.allclose(jac[-2:, i], col, atol=1e-10)


def test_audit_rejects_zero_points(five_bus_problem):
    with pytest.raises(ValueError, match="n_points must be a positive integer, got 0"):
        finite_difference_audit(five_bus_problem, n_points=0)


@pytest.mark.parametrize("n_points", [-1, 2.5, True, "3", None])
def test_audit_n_points_must_be_a_positive_integer(n_points, five_bus_problem):
    """A bool, a float or a string is rejected up front, naming the value,
    instead of reporting a bool's one point or failing inside range."""
    with pytest.raises(ValueError, match=f"n_points .* got {re.escape(repr(n_points))}"):
        finite_difference_audit(five_bus_problem, n_points=n_points)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_audit_seed_must_be_a_nonnegative_integer(seed, five_bus_problem):
    """The seed is checked like ``max_iter``, not left to numpy, whose
    message does not name it."""
    with pytest.raises(ValueError, match=f"seed .* got {re.escape(repr(seed))}"):
        finite_difference_audit(five_bus_problem, n_points=1, seed=seed)


def test_audit_accepts_numpy_integers(five_bus_problem):
    assert (finite_difference_audit(five_bus_problem, n_points=np.int64(2), seed=np.int64(4))
            == finite_difference_audit(five_bus_problem, n_points=2, seed=4))


def _interior_point_by_loop(problem, rng):
    """The audit's interior point with the kink margin applied one
    aggregator at a time: the reference for ``solver._interior_sampler``."""
    lay, lb, ub = problem.layout, problem.lb, problem.ub
    t = rng.uniform(0.15, 0.85, size=problem.n_var)
    x = np.zeros(problem.n_var)
    boxed = np.isfinite(lb) & np.isfinite(ub)
    x[boxed] = lb[boxed] + t[boxed] * (ub[boxed] - lb[boxed])
    x[lay.th] = rng.uniform(-0.3, 0.3, size=lay.n_bus - 1)
    sb = problem.case.s_base
    for k, agg in enumerate(problem.case.aggregators):
        i = lay.pa.start + k
        sat = agg.gamma / agg.mu / sb
        margin = 2.0 * solver._OBJ_FD_STEP * max(1.0, sat)
        if abs(x[i] - sat) < margin:
            below = sat - margin
            x[i] = below if below >= lb[i] else min(sat + margin, ub[i])
    return x


@pytest.mark.parametrize("name", ["five_bus", "rts24"])
@pytest.mark.parametrize("frac", [0.0, 0.01, 0.5, 0.99, 1.0])
def test_interior_point_matches_the_loop(name, frac):
    """Each aggregator's satisfaction kink put at frac of its demand box,
    so that the margin moves demands below it, above it and onto a bound:
    the vectorised margin, with its constants built once for all points,
    gives the loop's points bit for bit from the same rng stream."""
    case = builtin_case(name)
    aggs = tuple(dataclasses.replace(a, gamma=a.mu * (a.p_c + frac * (a.p_n - a.p_c)))
                 for a in case.aggregators)
    problem = Problem(dataclasses.replace(case, aggregators=aggs))
    interior_point = solver._interior_sampler(problem)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(10):
        assert np.array_equal(interior_point(rng), _interior_point_by_loop(problem, ref_rng))
    assert rng.random() == ref_rng.random()


def _stacked_constraints(problem):
    return lambda points: np.concatenate(problem.constraints(points), axis=-1)


def _stacked_network(problem):
    return lambda points: np.concatenate(problem._network_rows(points), axis=-1)


def _stacked_objective(problem):
    return lambda points: problem.objective(points)[:, None]


def _interior_point(problem, rng):
    return solver._interior_sampler(problem)(rng)


def _grouped_diff(fun, x, step, plan):
    """``solver._central_diff`` at the audit's steps, step * max(1, |x_j|),
    into zeros of its block's shape."""
    return solver._central_diff(fun, x, step * np.maximum(1.0, np.abs(x)), plan,
                                np.zeros((plan.unread.shape[1], len(x))))


def _per_column_diff(fun, x, step):
    """Central differences of a stacked fun at x, one column at a time in
    its own call: the reference for ``solver._central_diff``."""
    h = step * np.maximum(1.0, np.abs(x))
    columns = []
    for j in range(len(x)):
        points = np.tile(x, (2, 1))
        points[0, j] += h[j]
        points[1, j] -= h[j]
        values = fun(points)
        columns.append((values[0] - values[1]) / (2 * h[j]))
    return np.stack(columns, axis=-1)


def test_grouped_differences_equal_per_column_ones(network_problem):
    """Differencing by the column groups of a read set gives the per-column
    central differences bit for bit, the signs of zeros included, for all
    constraint rows, for the audit's network and adequacy blocks apart, for
    the objective as a one-row function and under the dense plan of all
    constraint rows, every column a group of its own (rts24: 193 groups in
    one call)."""
    p = network_problem
    reads = p.constraint_read_sets
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = _interior_point(p, rng)
        for fun, plan, step in (
                (_stacked_constraints(p), solver._group_plan(reads), 1e-6),
                (_stacked_network(p), solver._group_plan(reads[:-2]), 1e-6),
                (p._adequacy_rows, solver._group_plan(reads[-2:]), 1e-6),
                (_stacked_objective(p), solver._group_plan(p.objective_read_set[None]),
                 solver._OBJ_FD_STEP),
                (_stacked_constraints(p), solver._group_plan(np.ones_like(reads)), 1e-6)):
            grouped = _grouped_diff(fun, x, step, plan)
            per_column = _per_column_diff(fun, x, step)
            assert grouped is not None
            assert np.array_equal(grouped, per_column)
            assert np.array_equal(np.signbit(grouped), np.signbit(per_column))


class _CountedObjective(Problem):
    def objective(self, x):
        self.calls = getattr(self, "calls", 0) + 1
        return super().objective(x)


def test_audit_differences_the_objective_in_one_call_per_point(network_problem):
    problem = _rebuilt(_CountedObjective, network_problem)
    finite_difference_audit(problem, n_points=3, seed=2)
    assert problem.calls == 3


class _CountedBlocks(Problem):
    """Counts the calls of ``constraints`` and of its two row blocks."""
    def __post_init__(self):
        super().__post_init__()
        self.calls = collections.Counter()

    def constraints(self, x):
        self.calls["constraints"] += 1
        return super().constraints(x)

    def _network_rows(self, x):
        self.calls["_network_rows"] += 1
        return super()._network_rows(x)

    def _adequacy_rows(self, x):
        self.calls["_adequacy_rows"] += 1
        return super()._adequacy_rows(x)


def test_audit_differences_each_constraint_block_in_one_call_per_point(network_problem):
    """The network rows in one call of 2 x 17 points on rts24 and the
    adequacy rows in one of 2 x 74, and never ``constraints`` itself."""
    problem = _rebuilt(_CountedBlocks, network_problem)
    finite_difference_audit(problem, n_points=3, seed=2)
    assert problem.calls == {"_network_rows": 3, "_adequacy_rows": 3}


def _dense_max_rel_error(analytic, fd):
    """The relative error over every entry of the matrix, the first maximum
    in row-major order: the reference for ``solver._max_rel_error``."""
    with np.errstate(invalid="ignore"):
        err = np.abs(analytic - fd) / np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    err[~np.isfinite(err)] = np.inf
    k = int(np.argmax(err))
    return float(err.flat[k]), k


@pytest.fixture(scope="module")
def rts24_audit_matrices(rts24):
    """The analytic [J_E; J_h] and its grouped central differences at each
    of the 20 points of an rts24 audit with seed 0."""
    problem = Problem(rts24)
    plan = solver._group_plan(problem.constraint_read_sets)
    interior_point = solver._interior_sampler(problem)
    rng = np.random.default_rng(0)
    matrices = []
    for _ in range(20):
        x = interior_point(rng)
        matrices.append((np.concatenate(problem.jacobians(x)),
                         _grouped_diff(_stacked_constraints(problem), x,
                                       solver._CON_FD_STEP, plan)))
    return problem, matrices


def test_sparse_error_equals_the_dense_one_at_every_rts24_audit_point(rts24_audit_matrices):
    """The error and the flat index of the worst entry, which names it."""
    _, matrices = rts24_audit_matrices
    for analytic, fd in matrices:
        assert fd is not None
        assert solver._max_rel_error(analytic, fd) == _dense_max_rel_error(analytic, fd)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.5, -0.0, 1e300])
@pytest.mark.parametrize("side", ["analytic", "fd"])
@pytest.mark.parametrize("inside", [True, False])
def test_sparse_error_equals_the_dense_one_on_corrupted_entries(rts24_audit_matrices,
                                                                value, side, inside):
    """A NaN, an infinity, a large value or a signed zero on either side,
    at a read entry or outside the read sets (an analytic bug, or a
    dense-fallback difference), alone and as the second of an exact tie."""
    problem, matrices = rts24_audit_matrices
    reads = problem.constraint_read_sets
    rows, cols = np.nonzero(reads if inside else ~reads)
    first, second = (rows[len(rows) // 3], cols[len(rows) // 3]), (rows[-1], cols[-1])
    for analytic, fd in matrices[:3]:
        for entries in ([second], [first, second]):
            a, f = analytic.copy(), fd.copy()
            for entry in entries:
                (a if side == "analytic" else f)[entry] = value
            assert solver._max_rel_error(a, f) == _dense_max_rel_error(a, f)


@pytest.mark.parametrize("shape", [(7,), (4, 5)])
def test_sparse_error_of_zeros_and_ties(shape):
    """All zeros, signed zeros included, and equal nonzero entries give an
    error of 0 at entry 0; exact ties give the first entry in row-major
    order, as the dense error does."""
    zeros, negative_zeros = np.zeros(shape), np.full(shape, -0.0)
    assert solver._max_rel_error(zeros, negative_zeros) == (0.0, 0)
    assert _dense_max_rel_error(zeros, negative_zeros) == (0.0, 0)
    equal = np.zeros(shape)
    equal.flat[3] = 2.5
    assert solver._max_rel_error(equal, equal.copy()) == (0.0, 0)
    assert _dense_max_rel_error(equal, equal.copy()) == (0.0, 0)
    analytic, fd = np.zeros(shape), np.zeros(shape)
    analytic.flat[[5, 2]] = 3.0
    fd.flat[[4, 5, 6]] = [-1.5, 1.5, 1.5]
    assert solver._max_rel_error(analytic, fd) == _dense_max_rel_error(analytic, fd) == (1.0, 2)


def test_objective_ignores_columns_outside_its_read_set(network_problem):
    """Moving every column that ``objective_read_set`` leaves out keeps the
    objective bit for bit, so those differences are exact zeros."""
    p = network_problem
    unread = ~p.objective_read_set
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = _interior_point(p, rng)
        moved = x.copy()
        moved[unread] += rng.uniform(-0.5, 0.5, size=unread.sum())
        assert p.objective(moved) == p.objective(x)
    assert unread.sum() == p.n_var - p.layout.n_gen - p.layout.n_agg


def test_column_groups_share_no_row(network_problem):
    reads = network_problem.constraint_read_sets
    groups = solver._column_groups(reads)
    for g in range(groups.max() + 1):
        assert reads[:, groups == g].sum(axis=1).max() <= 1


def test_rts24_columns_fall_in_73_groups(rts24):
    """73 = n_gen + n_agg, the columns of the P-adequacy row, so no
    grouping has fewer."""
    problem = build_problem(rts24)
    lay = problem.layout
    assert solver._column_groups(problem.constraint_read_sets).max() + 1 == 73
    assert lay.n_gen + lay.n_agg == 73


def test_rts24_network_rows_fall_in_17_groups_and_adequacy_rows_in_73(rts24):
    """Without the two dense adequacy rows, the balance and line-limit rows
    need 17 groups; the adequacy rows alone need their 73 columns, and the
    47 voltage and angle columns they do not read share a 74th group."""
    reads = build_problem(rts24).constraint_read_sets
    assert solver._column_groups(reads[:-2]).max() + 1 == 17
    groups = solver._column_groups(reads[-2:])
    read = reads[-2:].any(axis=0)
    assert groups[read].max() + 1 == 73
    assert (groups[~read] == 73).all() and (~read).sum() == 47


def test_constraint_blocks_ignore_columns_outside_their_read_sets(network_problem):
    """Moving every column that a row of a block does not read keeps that
    row bit for bit, sign included: point i of the stack moves the columns
    that row i of the block leaves out. So a group's difference in a row
    comes from the one column of the group that the row reads."""
    p = network_problem
    reads = p.constraint_read_sets
    rng = np.random.default_rng(7)
    for fun, block_reads in ((_stacked_network(p), reads[:-2]), (p._adequacy_rows, reads[-2:])):
        rows = np.arange(len(block_reads))
        for _ in range(3):
            x = _interior_point(p, rng)
            moved = np.repeat(x[None], len(rows), axis=0)
            moved[~block_reads] += rng.uniform(-0.5, 0.5, size=(~block_reads).sum())
            kept, at_x = fun(moved)[rows, rows], fun(x[None])[0]
            assert np.array_equal(kept, at_x)
            assert np.array_equal(np.signbit(kept), np.signbit(at_x))


def test_read_sets_are_built_on_first_use_only(five_bus):
    problem = Problem(five_bus)
    assert "constraint_read_sets" not in vars(problem)
    assert "objective_read_set" not in vars(problem)
    assert problem.constraint_read_sets.shape == (problem.n_eq + problem.n_ineq, problem.n_var)
    assert problem.objective_read_set.shape == (problem.n_var,)


_UNREAD_ROW, _UNREAD_COL = 0, 13


class _UnreadColumn(_CountedBlocks):
    """Balance row _UNREAD_ROW also reads variable _UNREAD_COL, which its
    read set and its analytic Jacobian leave out."""
    def _network_rows(self, x):
        eq, limits = super()._network_rows(x)
        eq[..., _UNREAD_ROW] += 1e-3 * x[..., _UNREAD_COL]
        return eq, limits


class _DenseReadSets:
    """Every row reads every column: each column is a group of its own,
    so the audit differences one column at a time."""
    @property
    def constraint_read_sets(self):
        return np.ones((self.n_eq + self.n_ineq, self.n_var), dtype=bool)


class _DenseUnreadColumn(_DenseReadSets, _UnreadColumn):
    pass


def test_audit_falls_back_to_per_column_differences(five_bus_problem):
    """A network row that changes under a group none of whose columns it
    reads sends the point's network block, and only it, to the dense plan:
    the report is the one of per-column differencing and names the entry
    outside the read set."""
    problem = _rebuilt(_UnreadColumn, five_bus_problem)
    reads = problem.constraint_read_sets[:-2]
    groups = solver._column_groups(reads)
    assert not (reads[_UNREAD_ROW] & (groups == groups[_UNREAD_COL])).any()
    x = _interior_point(problem, np.random.default_rng(1))
    assert _grouped_diff(_stacked_network(problem), x, 1e-6, solver._group_plan(reads)) is None

    problem.calls.clear()
    report = finite_difference_audit(problem, n_points=3, seed=1)
    assert problem.calls == {"_network_rows": 3 * 2, "_adequacy_rows": 3}
    assert report == finite_difference_audit(_rebuilt(_DenseUnreadColumn, five_bus_problem),
                                             n_points=3, seed=1)
    assert not report.passed
    assert report.worst_entry == f"eq_jacobian[{_UNREAD_ROW}, {_UNREAD_COL}]"


class _NaNAtPlusPoint(Problem):
    """Balance row 0 is NaN wherever its column ``col`` exceeds its value
    at the audit point ``at``: at that column's + point only. Both are set
    on the instance."""

    def _network_rows(self, x):
        eq, limits = super()._network_rows(x)
        eq[..., 0] += np.where(x[..., self.col] > self.at[self.col], np.nan, 0.0)
        return eq, limits


class _DenseNaNAtPlusPoint(_DenseReadSets, _NaNAtPlusPoint):
    pass


def test_audit_names_a_nan_difference_as_per_column_differencing_does(five_bus_problem,
                                                                      monkeypatch):
    """A NaN at the + point of a column that the row reads is the grouped
    difference of that entry alone; the audit names it as the dense plan,
    one column at a time, names it."""
    x = _interior_point(five_bus_problem, np.random.default_rng(1))
    monkeypatch.setattr(solver, "_interior_sampler", lambda problem: lambda rng: x.copy())
    col = int(np.flatnonzero(five_bus_problem.constraint_read_sets[0])[-1])
    grouped, dense = (_rebuilt(cls, five_bus_problem)
                      for cls in (_NaNAtPlusPoint, _DenseNaNAtPlusPoint))
    for problem in (grouped, dense):
        problem.at, problem.col = x, col

    fd = _grouped_diff(_stacked_network(grouped), x, 1e-6,
                       solver._group_plan(grouped.constraint_read_sets[:-2]))
    assert np.isnan(fd[0, col]) and np.isfinite(np.delete(fd.ravel(), col)).all()
    report = finite_difference_audit(grouped, n_points=1)
    assert report == finite_difference_audit(dense, n_points=1)
    assert report.worst_entry == f"eq_jacobian[0, {col}]"
    assert report.max_rel_error == np.inf


class _AdequacyReadsVoltage(_CountedBlocks):
    """Both adequacy rows also read the first voltage column, which the read
    sets give to the Q row alone. That column then has a group of its own in
    the adequacy plan, one the P row does not read, so the P row's change
    under it is a fault the plan sees. (Under the true read sets every
    adequacy group holds one column of each adequacy row.)"""
    @property
    def constraint_read_sets(self):
        reads = super().constraint_read_sets.copy()
        reads[-1, self.layout.v.start] = True
        return reads

    def _adequacy_rows(self, x):
        return super()._adequacy_rows(x) + 1e-3 * x[..., self.layout.v.start, None]


class _DenseAdequacyReadsVoltage(_DenseReadSets, _AdequacyReadsVoltage):
    pass


def test_a_fault_in_the_adequacy_rows_sends_only_them_to_the_dense_plan(five_bus_problem):
    problem = _rebuilt(_AdequacyReadsVoltage, five_bus_problem)
    report = finite_difference_audit(problem, n_points=3, seed=1)
    assert problem.calls == {"_network_rows": 3, "_adequacy_rows": 3 * 2}
    assert report == finite_difference_audit(
        _rebuilt(_DenseAdequacyReadsVoltage, five_bus_problem), n_points=3, seed=1)
    assert not report.passed
    assert report.worst_entry == f"ineq_jacobian[{problem.n_ineq - 2}, {problem.layout.v.start}]"


class _AdequacyReadsAnUnreadColumn(_CountedBlocks):
    """The P adequacy row also reads the first voltage column, which no
    adequacy row's read set holds: it falls in the adequacy plan's trailing
    group, which no adequacy row reads."""
    def _adequacy_rows(self, x):
        rows = super()._adequacy_rows(x)
        rows[..., 0] += 1e-3 * x[..., self.layout.v.start]
        return rows


class _DenseAdequacyReadsAnUnreadColumn(_DenseReadSets, _AdequacyReadsAnUnreadColumn):
    pass


def test_a_column_no_adequacy_row_reads_is_named_when_one_does(five_bus_problem):
    """The fault sends the adequacy block to the dense plan, which names the
    voltage column; were the unread columns in group 0, the P row's change
    would be charged to the P column of group 0 (ineq_jacobian[12, 0])."""
    problem = _rebuilt(_AdequacyReadsAnUnreadColumn, five_bus_problem)
    v0 = problem.layout.v.start
    groups = solver._column_groups(problem.constraint_read_sets[-2:])
    assert groups[v0] == groups.max() > groups[0] == 0
    report = finite_difference_audit(problem, n_points=3, seed=1)
    assert problem.calls == {"_network_rows": 3, "_adequacy_rows": 3 * 2}
    assert report == finite_difference_audit(
        _rebuilt(_DenseAdequacyReadsAnUnreadColumn, five_bus_problem), n_points=3, seed=1)
    assert not report.passed
    assert report.worst_entry == f"ineq_jacobian[{problem.n_ineq - 2}, {v0}]" \
        == "ineq_jacobian[12, 24]"


class _ObjectiveReadsVoltage(Problem):
    """The objective also reads the first voltage column, outside
    ``objective_read_set`` and outside its analytic gradient."""
    def objective(self, x):
        return super().objective(x) + 1e-3 * x[..., self.layout.v.start]


class _DenseObjectiveReadsVoltage(_ObjectiveReadsVoltage):
    @property
    def objective_read_set(self):
        return np.ones(self.n_var, dtype=bool)


def test_an_objective_fault_in_an_unread_column_is_named(five_bus_problem):
    """The objective's plan puts the 24 columns it does not read in a
    trailing group, so the fault sends the objective to the dense plan,
    which names gradient[24], not gradient[0]."""
    problem = _rebuilt(_ObjectiveReadsVoltage, five_bus_problem)
    report = finite_difference_audit(problem, n_points=3, seed=1)
    assert report == finite_difference_audit(
        _rebuilt(_DenseObjectiveReadsVoltage, five_bus_problem), n_points=3, seed=1)
    assert not report.passed
    assert report.worst_entry == f"gradient[{problem.layout.v.start}]" == "gradient[24]"


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


def _upper_factor(kkt):
    """``dsytrf`` of the upper triangle of kkt's column-major transpose, the
    factor the reduced KKT path reads; info > 0 marks an exactly singular D."""
    ldu, ipiv, info = scipy.linalg.lapack.dsytrf(kkt.T, lower=0,
                                                 lwork=solver._dsytrf_lwork(len(kkt)))
    assert info >= 0
    return ldu, ipiv


@pytest.mark.parametrize("build", [_three_coupled_blocks, _two_blocks_same_pivot])
def test_upper_inertia_reads_consecutive_two_by_two_blocks(build):
    """The same matrices in reverse order: the upper factorization runs from
    the last row up, so it meets the 2x2 pivots first, then the 1x1, and
    stores each block's off-diagonal above its diagonal."""
    kkt, run = build()
    kkt = kkt[::-1, ::-1].copy()
    n = len(kkt)
    ldu, ipiv = _upper_factor(kkt)
    assert (ipiv < 0).tolist() == [False] * (n - run) + [True] * run
    ev = np.linalg.eigvalsh(kkt)
    assert solver._upper_inertia(ldu, ipiv) == (int(np.sum(ev > 0)), int(np.sum(ev < 0)), 0)


def test_upper_inertia_holds_under_a_tiny_diagonal_scaling():
    """S K S with S from 1e-12 to 1e-10 has K's inertia (Sylvester) and a D
    of entries near 1e-20: an absolute 1e-12 threshold reads every one of
    them as zero, the eps * max|eig(D)| one none. The equilibrated factor
    of S K S gets the same counts."""
    rng = np.random.default_rng(1)
    with_blocks = 0
    for _ in range(1200):
        kkt = _random_kkt(rng)
        ev = np.linalg.eigvalsh(kkt)
        expected = (int(np.sum(ev > 0)), int(np.sum(ev < 0)), 0)
        scale = 1e-10 * 10.0 ** rng.uniform(-2.0, 0.0, size=len(kkt))
        scaled = kkt * scale[:, None] * scale
        ldu, ipiv = _upper_factor(scaled)
        with_blocks += bool(np.any(ipiv < 0))
        assert solver._upper_inertia(ldu, ipiv) == expected
        assert _inertia(scaled)[2] > 0
        assert solver._equilibrated_ldl(scaled)[0] == expected
    assert with_blocks > 600
    assert solver._upper_inertia(*_upper_factor(np.diag([2.0, -3.0, 0.0]))) == (1, 1, 1)


def _hand_built_reduced(five_bus_problem):
    """A ``_ReducedKKT`` on five_bus given a system by its blocks: every
    injection pivot 10 (eliminated at any delta_w), the v/theta Hessian
    block zero and the first v column of J_E zero, so that at delta_w = 0
    that column's row of the reduced matrix is all zero."""
    nlp = solver._InternalNLP(five_bus_problem)
    n, me = nlp.n, nlp.m_eq
    kkt = solver._ReducedKKT(nlp)
    diag = np.zeros(n)
    diag[kkt.free] = 10.0
    n_net = n - nlp.network.start
    je = five_bus_problem.jacobians(five_bus_problem.initial_point())[0]
    je[:, nlp.network.start] = 0.0
    return kkt, diag, np.zeros((n_net, n_net)), je, np.ones(2), np.zeros(n + me + 2)


def test_a_zero_row_of_the_reduced_matrix_is_a_wrong_inertia(five_bus_problem, monkeypatch):
    """An all-zero row is a zero eigenvalue: the trial is rejected without
    a factorization and without the divide warning that its scale,
    1 / sqrt(0), would raise (an error under this suite's filterwarnings);
    the next delta_w fills the row's diagonal and factors once."""
    lapack, _ = _lapack_calls(monkeypatch)
    kkt, *blocks = _hand_built_reduced(five_bus_problem)
    kkt.assign(*blocks)
    assert kkt.inertia_ok(0.0) is False
    assert kkt.factor is None
    assert lapack["dsytrf"] == 0
    kkt.inertia_ok(1e-4)
    assert kkt.factor is not None
    assert lapack["dsytrf"] == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_reduced_matrix_raises(value, five_bus_problem):
    """As ``_inertia`` on the condensed path: a non-finite entry raises
    ValueError, which the solver's retry loop catches, before any scaling."""
    kkt, diag, block, *blocks = _hand_built_reduced(five_bus_problem)
    block[0, 0] = value  # the first v column's diagonal entry
    kkt.assign(diag, block, *blocks)
    with pytest.raises(ValueError, match="non-finite"):
        kkt.inertia_ok(1e-4)


@pytest.mark.parametrize("name, path, factor", [
    ("five_bus", "_CondensedKKT", "_inertia"), ("rts24", "_ReducedKKT", "_equilibrated_ldl")])
def test_a_non_finite_step_is_retried_at_the_next_delta_w(name, path, factor, request,
                                                         monkeypatch):
    """The first step of a solve made NaN is rejected as a wrong inertia is:
    the next trial factors the loaded system plus delta_w = 1e-4, bit for
    bit the matrix of a fresh system loaded alike, and the solve converges.
    On the condensed path the step is solved in its own equilibrated buffer,
    so the matrix that the next trial refills is intact."""
    problem = build_problem(request.getfixturevalue(name))
    cls = getattr(solver, path)
    factored, loads, poisoned = [], [], []
    original = getattr(solver, factor)
    monkeypatch.setattr(solver, factor, lambda kkt: factored.append(kkt.copy()) or original(kkt))

    def load(self, *args, _load=cls.load):
        loads.append(args)
        return _load(self, *args)

    def solve_step(self, _solve=cls.solve):
        step = _solve(self)
        if not poisoned:
            poisoned.append((len(factored), loads[-1]))
            step[0] = np.nan
        return step

    monkeypatch.setattr(cls, "load", load)
    monkeypatch.setattr(cls, "solve", solve_step)
    solution = solve(problem)
    assert solution.status == "converged"
    assert solution.log[1]["delta_w"] == 1e-4
    (next_trial, args), = poisoned
    fresh = cls(solver._InternalNLP(problem))
    fresh.load(*args)
    before = len(factored)
    assert fresh.inertia_ok(1e-4)
    _assert_same_bits([factored[next_trial]], [factored[before]])


def test_a_reduced_trial_owes_nothing_to_the_trials_before_it(rts24, monkeypatch):
    """The last system of an rts24 solve at delta_w = 0, 100 and 0 again:
    two different sets of eliminated columns, the first met twice. Only the
    kept columns of a set carry over between trials, so the third trial's
    factor and step are the first's, and the second's are those of a fresh
    system loaded alike, bit for bit."""
    problem = build_problem(rts24)
    args = _kkt_systems(problem, monkeypatch)[-1]
    reduced = solver._ReducedKKT(solver._InternalNLP(problem))
    reduced.load(*args)

    def trial(kkt, delta_w):
        ok = kkt.inertia_ok(delta_w)
        factor = [kkt.factor[0]] + [a.copy() for a in kkt.factor[1:]]
        return len(kkt.kept), factor, kkt.solve() if ok else None

    first, second, third = (trial(reduced, delta_w) for delta_w in (0.0, 100.0, 0.0))
    # at delta_w = 100 every injection column that is not fixed is eliminated
    assert first[0] > second[0] == reduced.n - len(reduced.free)
    assert first[2] is not None
    _assert_same_bits(third[1] + [third[2]], first[1] + [first[2]])
    fresh = solver._ReducedKKT(solver._InternalNLP(problem))
    fresh.load(*args)
    again = trial(fresh, 100.0)
    assert again[0] == second[0] and again[1][0] == second[1][0]
    _assert_same_bits(again[1][1:] + [again[2]], second[1][1:] + [second[2]])


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


def _delta_w_trials(log):
    """Inertia tests the log implies: each step tried delta_w = 0, then
    1e-4, 1e-3, ... up to the delta_w it took."""
    return sum(1 if row["delta_w"] == 0.0 else 2 + round(math.log10(row["delta_w"] / 1e-4))
               for row in log[1:])


def _lapack_calls(monkeypatch):
    """A Counter of the calls of ``scipy.linalg.solve``, ``dsytrf`` and
    ``dsytrs`` from now on, and the list of the order of each ``dsytrf``
    matrix."""
    calls, sizes = collections.Counter(), []

    def counted(owner, name):
        function = getattr(owner, name)

        def call(a, *args, **kwargs):
            calls[name] += 1
            if name == "dsytrf":
                sizes.append(len(a))
            return function(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(scipy.linalg, "solve")
    counted(scipy.linalg.lapack, "dsytrf")
    counted(scipy.linalg.lapack, "dsytrs")
    return calls, sizes


@pytest.mark.parametrize("name, calls, iterations", [("five_bus", 31, 25), ("rts24", 30, 31)])
def test_one_inertia_test_per_delta_w_trial(name, calls, iterations, request, monkeypatch):
    """The Hessian regularization retry rule: delta_w starts at 0, then
    goes to 1e-4 and up by 10x, with one inertia test, one ``dsytrf``, per
    trial."""
    lapack, _ = _lapack_calls(monkeypatch)
    solution = solve(build_problem(request.getfixturevalue(name)))
    assert solution.status == "converged"
    assert solution.iterations == iterations
    assert lapack["dsytrf"] == _delta_w_trials(solution.log) == calls


@pytest.mark.parametrize("name, step_call, unused", [
    ("five_bus", "solve", "dsytrs"), ("rts24", "dsytrs", "solve")])
def test_each_trial_factors_its_matrix_once(name, step_call, unused, request, monkeypatch):
    """The condensed path (five_bus) tests the inertia with one ``dsytrf``
    and solves each step with one ``scipy.linalg.solve``; the reduced path
    (rts24) runs one ``dsytrf`` per delta_w trial, the one factorization
    that gives both the inertia and, by one ``dsytrs``, the step, and
    never calls ``scipy.linalg.solve``."""
    lapack, _ = _lapack_calls(monkeypatch)
    solution = solve(build_problem(request.getfixturevalue(name)))
    assert solution.status == "converged"
    assert lapack["dsytrf"] == _delta_w_trials(solution.log)
    assert lapack[step_call] == solution.iterations - 1
    assert lapack[unused] == 0


def test_iteration_counts_are_pinned(five_bus_solution, rts24_solution):
    """The same iterates as before: a change meant to keep them must keep
    these counts. A deliberate algorithm change updates the pins and records
    the old and new counts in CHANGES.md."""
    assert five_bus_solution.iterations == 25
    assert rts24_solution.iterations == 31


# ---------------------------------------------------------------------------
# the reduced KKT system


@pytest.mark.parametrize("name, sizes", [("five_bus", {43}), ("rts24", set(range(99, 242)))])
def test_the_kkt_path_follows_the_system_size(name, sizes, request, monkeypatch):
    """five_bus (43 KKT rows) runs the condensed system throughout, rts24
    (242) the reduced one: 99 rows when every injection column is
    eliminated, more when a pivot fails the 1x1 test, never all 242."""
    _, seen = _lapack_calls(monkeypatch)
    assert solve(build_problem(request.getfixturevalue(name))).status == "converged"
    assert set(seen) <= sizes
    assert collections.Counter(seen).most_common(1)[0][0] == min(sizes)


def _kkt_systems(problem, monkeypatch):
    """The ``load`` arguments of every KKT system of a solve of ``problem``,
    on whichever path it runs."""
    systems = []
    with monkeypatch.context() as patch:
        for cls in (solver._CondensedKKT, solver._ReducedKKT):
            def load(self, *args, _load=cls.load):
                systems.append(args)
                return _load(self, *args)

            patch.setattr(cls, "load", load)
        assert solve(problem).status == "converged"
    return systems


def _backward_error(kkt, z, rhs):
    """Normwise backward error of z as a solution of kkt z = rhs."""
    return np.abs(kkt @ z - rhs).max() / (
        np.abs(kkt).sum(axis=1).max() * np.abs(z).max() + np.abs(rhs).max())


def _both_paths(problem, systems):
    """Each system on both paths, at the delta_w trials the solve makes:
    the condensed and reduced inertia verdicts agree at every trial, and at
    the accepted one, the columns the reduced system keeps and the backward
    errors of both steps on the condensed system."""
    nlp = solver._InternalNLP(problem)
    full, reduced = solver._CondensedKKT(nlp), solver._ReducedKKT(nlp)
    out = []
    for args in systems:
        full.load(*args)
        reduced.load(*args)
        delta_w = 0.0
        while not full.inertia_ok(delta_w):
            assert not reduced.inertia_ok(delta_w)
            delta_w = 1e-4 if delta_w == 0.0 else 10.0 * delta_w
        assert reduced.inertia_ok(delta_w)
        out.append((reduced.kept, _backward_error(full.kkt, reduced.solve(), full.rhs),
                    _backward_error(full.kkt, full.solve(), full.rhs)))
    return out


def _scattered_hessian(nlp, x, state, lam, nu, jh, d_sigma, rows, cols):
    """The n x n Hessian as the solver built it from an n x n Lagrangian
    Hessian: that Hessian scattered, then jh' diag(d_sigma) jh over the
    problem rows ``rows`` and the columns ``cols`` added, then the bound
    rows' barrier added on the diagonal."""
    p, mi = nlp.problem, len(jh)
    m = assembled_hessian(p, *p.lagrangian_hessian(x, lam[:p.n_eq], nu[:mi], state))
    part, block = jh[rows, cols], m[cols, cols]  # views
    block += (part.T * d_sigma[:mi][rows]) @ part
    m.reshape(-1)[::nlp.n + 1] += np.bincount(nlp.bound_idx, weights=d_sigma[mi:],
                                              minlength=nlp.n)
    return m


def _with_fixed_rows(nlp, je):
    """The problem's J_E with the fixed variables' rows below it, a +1 in
    each one's column: the equality Jacobian that the KKT buffers hold."""
    rows = np.zeros((len(nlp.fixed_idx), nlp.n))
    rows[np.arange(len(nlp.fixed_idx)), nlp.fixed_idx] = 1.0
    return np.vstack([je, rows])


def test_the_fixed_rows_enter_by_index_bit_for_bit(rts24):
    """rts24's synchronous condenser has its P fixed: its row is added to
    J_E' lam at its column, which equals the product over the stacked J_E
    bit for bit, so the residual r_d sums as it did over that product."""
    problem = build_problem(rts24)
    nlp = solver._InternalNLP(problem)
    assert nlp.fixed_idx.tolist() == [14] and nlp.m_eq == problem.n_eq + 1
    rng = np.random.default_rng(3)
    for _ in range(20):
        je = problem.jacobians(random_interior_state(problem, rng))[0]
        lam = rng.normal(size=nlp.m_eq) * 10.0 ** rng.uniform(-8, 4, size=nlp.m_eq)
        _assert_same_bits([nlp.je_t(je, lam)], [_with_fixed_rows(nlp, je).T @ lam])


@pytest.mark.parametrize("name", ["five_bus", "rts24"])
def test_both_kkt_paths_build_the_scattered_matrices_bit_for_bit(name, request, monkeypatch):
    """Every KKT system of a solve, on both paths, from the two Hessian
    blocks equals its build from the scattered n x n Hessian, values and
    sign bits: the condensed matrix after ``load`` (the product of every
    problem row over every column, then the barrier, J_E beside it), and
    the reduced matrix as ``_equilibrated_ldl`` receives it at each delta_w
    trial (the line-limit rows' product over the v and theta columns and
    the barrier, the kept block taken, delta_w added on its diagonal, the
    borders J_E and J_a, and the constraint block less the eliminated
    columns' Schur complement)."""
    problem = build_problem(request.getfixturevalue(name))
    systems = _kkt_systems(problem, monkeypatch)
    nlp = solver._InternalNLP(problem)
    n, me, m = nlp.n, nlp.m_eq, nlp.m_eq + 2
    full, reduced = solver._CondensedKKT(nlp), solver._ReducedKKT(nlp)
    received = []
    ldl = solver._equilibrated_ldl
    monkeypatch.setattr(solver, "_equilibrated_ldl",
                        lambda kkt: received.append(kkt.copy()) or ldl(kkt))
    borders = np.vstack([np.zeros((me, n)), problem._adequacy])
    for args in systems:
        x, state, lam, nu, jh, je, d_sigma = args[:7]
        je = _with_fixed_rows(nlp, je)
        mi = len(jh)
        full.load(*args)
        hess = _scattered_hessian(nlp, x, state, lam, nu, jh, d_sigma, slice(None), slice(None))
        _assert_same_bits([full.kkt], [np.block([[hess, je.T],
                                                  [je, -solver._DELTA_C * np.eye(me)]])])

        reduced.load(*args)
        hess = _scattered_hessian(nlp, x, state, lam, nu, jh, d_sigma, slice(mi - 2), nlp.network)
        borders[:me] = je
        constraint = np.diag(np.concatenate([np.full(me, -solver._DELTA_C),
                                             -1.0 / d_sigma[mi - 2:mi]]))
        delta_w = 0.0
        while True:
            ok = full.inertia_ok(delta_w)
            reduced.inertia_ok(delta_w)
            kept = reduced.kept
            k = len(kept)
            top = hess.take((kept[:, None] * n + kept).ravel()).reshape(k, k)
            top.reshape(-1)[::k + 1] += delta_w
            border = borders.take(kept, axis=1)
            schur = np.bincount(reduced.block_flat,
                                weights=(reduced.block_coef * reduced.inverse).ravel(),
                                minlength=m * m).reshape(m, m)
            _assert_same_bits([received[-1]],
                              [np.block([[top, border.T], [border, constraint - schur]])])
            if ok:
                break
            delta_w = 1e-4 if delta_w == 0.0 else 10.0 * delta_w


# the scale of the condensed steps' backward errors, 1e-35 to 1e-20: the
# reduced step's is held within 10x of the condensed step's or of this
_BACKWARD_FLOOR = 1e-18


@pytest.mark.parametrize("build", [
    lambda: builtin_case("rts24"), lambda: builtin_case("five_bus"), toy_case,
    _linear_marginal_case], ids=["rts24", "five_bus", "toy", "linear_marginal"])
def test_the_reduced_step_solves_the_condensed_system(build, monkeypatch):
    """Every KKT system of a solve, on rts24 as the solve runs it and on the
    smaller cases through ``_ReducedKKT`` directly: the reduced inertia
    verdict is the condensed matrix's, and the reduced step's backward error
    on the condensed system is within 10x of the condensed step's or of
    1e-18. (The reduced errors reach 5.3e-18 on linear_marginal; on rts24's
    first iterations the reduced one is up to 163x the condensed one, as
    the condensed rows weigh the adequacy row's rounding by sigma_a.)"""
    problem = build_problem(build())
    for _, reduced, full in _both_paths(problem, _kkt_systems(problem, monkeypatch)):
        assert reduced <= 10.0 * max(full, _BACKWARD_FLOOR)


def test_the_pivot_test_keeps_a_linear_cost_unit(monkeypatch):
    """The linear-cost unit's pivot is only its barrier term, which vanishes
    near the optimum: the 1x1 test keeps its column there, and the solve
    forced onto the reduced path is the condensed one's. Eliminated
    regardless (alpha = 0), the late steps lose ~7 digits of backward error
    and the solve takes almost three times the iterations to a worse
    dispatch."""
    problem = build_problem(_linear_marginal_case())
    systems = _kkt_systems(problem, monkeypatch)
    pg = problem.layout.pg.start
    kept = [pg in columns for columns, _, _ in _both_paths(problem, systems)]
    assert kept[-1] and not kept[0]
    monkeypatch.setattr(solver, "_REDUCE_FROM", 0)
    reduced = solve(problem)
    assert reduced.iterations == 10
    assert reduced.p_gen[0] == pytest.approx(40.0, abs=1e-8)

    monkeypatch.setattr(solver, "_BK_ALPHA", 0.0)
    errors = _both_paths(problem, systems)
    assert not any(pg in columns for columns, _, _ in errors)
    assert max(reduced / max(full, _BACKWARD_FLOOR) for _, reduced, full in errors) > 10.0
    eliminated = solve(problem)
    assert eliminated.status == "converged"
    assert eliminated.iterations > 20
    assert abs(eliminated.p_gen[0] - 40.0) > 1e-6


# About 72 % of the drawn systems are too ill-conditioned for their
# eigenvalue signs to be counted and are rejected by assume(); at that rate
# the filter_too_much check (50 rejections before 10 kept examples) fails
# about one run in twelve although no example does. The property is unchanged.
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_reduced_inertia_adds_up_to_the_full_one(data, five_bus_problem):
    """Haynsworth: on a random system with five_bus's +-1 injection
    couplings, a positive injection diagonal D from 1e-10 to 1e8 and a
    random symmetric v/theta core, the reduced matrix's inertia plus
    (eliminated columns, 0, 0) is the eigenvalue count of the whole KKT
    matrix [[H + delta_w I, J_E', J_a'], [J_E, -delta_c I, 0], [J_a, 0, -1/sigma_a]]."""
    problem = five_bus_problem
    nlp = solver._InternalNLP(problem)
    n, me = nlp.n, nlp.m_eq
    kkt = solver._ReducedKKT(nlp)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    net = nlp.network
    diag = np.zeros(n)
    diag[kkt.free] = 10.0 ** np.array(
        data.draw(st.lists(st.floats(-10.0, 8.0), min_size=len(kkt.free), max_size=len(kkt.free))))
    core = rng.normal(size=(n - net.start, n - net.start))
    block = core + core.T
    je = problem.jacobians(problem.initial_point())[0]
    je[:, net] = rng.normal(size=(me, n - net.start))
    sigma_a = 10.0 ** np.array(data.draw(st.lists(st.floats(-4.0, 6.0), min_size=2, max_size=2)))
    delta_w = data.draw(st.sampled_from([0.0, 1e-4, 1.0]))

    kkt.assign(diag, block, je, sigma_a, np.zeros(n + me + 2))
    kkt.inertia_ok(delta_w)  # factors the reduced matrix in place
    full = np.block([
        [assembled_hessian(problem, diag, block) + delta_w * np.eye(n), je.T,
         problem._adequacy.T],
        [je, -solver._DELTA_C * np.eye(me), np.zeros((me, 2))],
        [problem._adequacy, np.zeros((2, me)), -np.diag(1.0 / sigma_a)]])
    ev = np.linalg.eigvalsh(full)
    assume(np.abs(ev).min() > 1e-8 * np.abs(ev).max())
    pos, neg, zero = kkt.factor[0]
    assert (pos + n - len(kkt.kept), neg, zero) == (
        int(np.sum(ev > 0)), int(np.sum(ev < 0)), 0)


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


@pytest.mark.parametrize("seed, status", [
    (0, "iteration_limit"), (1, "iteration_limit"), (2, "iteration_limit"),
    (3, "iteration_limit"), (4, "iteration_limit"), (5, "iteration_limit"),
    (6, "iteration_limit"), (7, "converged")])
def test_rts24_seed_corpus_statuses(seed, status):
    """The rts24 builder at seeds 0-7, default options: only seed 7
    converges (56 iterations, kkt_check passed); seeds 0-6 end at the
    200-iteration limit, undiagnosed (ROADMAP item 3), none proven
    infeasible. Only seeds 1 and 6 take steps with delta_w > 0, after
    rejected trials, so they also guard the inertia reader. A seed whose
    status changes stays here, documented."""
    problem = build_problem(casemodel._rts24(seed))
    solution = solve(problem)
    assert solution.status == status
    assert any(row["delta_w"] > 0 for row in solution.log) == (seed in (1, 6))
    if status == "converged":
        assert solution.iterations == 56
        assert kkt_check(problem, solution).passed
    else:
        assert solution.iterations == SolverOptions().max_iter


# converged entries: (iterations); every other seed ends iteration_limit
_RANDOM_START_CONVERGED = {
    "five_bus": {0: 40, 4: 188, 6: 158, 7: 135, 8: 31},
    "rts24": {10: 151, 11: 105},
}


@pytest.mark.parametrize("name, seed", [(name, seed) for name in ("five_bus", "rts24")
                                        for seed in range(12)])
def test_random_start_corpus_statuses(name, seed, request, monkeypatch):
    """Solves started from random_interior_state at seeds 0-11, default
    options: five_bus converges from 5 of the 12 starts and rts24 from 2,
    each to the default start's optimum with kkt_check passed; the others
    end at the 200-iteration limit, undiagnosed (ROADMAP item 3). An entry
    whose status changes stays here, documented."""
    problem = build_problem(request.getfixturevalue(name))
    start = random_interior_state(problem, np.random.default_rng(seed))
    monkeypatch.setattr(problem, "initial_point", lambda: start.copy())
    solution = solve(problem)
    iterations = _RANDOM_START_CONVERGED[name].get(seed)
    if iterations is None:
        assert solution.status == "iteration_limit"
        assert solution.iterations == SolverOptions().max_iter
    else:
        assert solution.status == "converged"
        assert solution.iterations == iterations
        assert kkt_check(problem, solution).passed
        optimum = request.getfixturevalue(f"{name}_solution").objective
        assert solution.objective == pytest.approx(optimum, rel=1e-6)


_TIGHT = SolverOptions(tol=1e-9, max_iter=400)


@pytest.mark.xfail(strict=True, reason=(
    "a known defect (ROADMAP item 3(b)): on the condensed KKT path these "
    "three points of the sweep from 10.7 % end iteration_limit at 400 "
    "iterations under tol=1e-9"))
@pytest.mark.parametrize("pct", [84.7, 86.7, 140.7])
def test_five_bus_converges_at_a_tight_tolerance(pct, five_bus):
    """five_bus at these SES scales should converge at tol=1e-9 and pass
    kkt_check."""
    problem = build_problem(scale_ses(five_bus, pct / 100.0))
    solution = solve(problem, _TIGHT)
    assert solution.status == "converged"
    assert kkt_check(problem, solution).passed


@pytest.mark.parametrize("pct, iterations", [(84.7, 25), (86.7, 34), (140.7, 26)])
def test_the_reduced_path_converges_at_a_tight_tolerance(pct, iterations, five_bus,
                                                         monkeypatch):
    """The points that the condensed path does not bring to tol=1e-9 (the
    xfail above) converge when forced onto the reduced path. At 86.7 % the
    residual test alone passes at iteration 33, but kkt_check's residuals
    are within tol only at 34."""
    monkeypatch.setattr(solver, "_REDUCE_FROM", 0)
    problem = build_problem(scale_ses(five_bus, pct / 100.0))
    solution = solve(problem, _TIGHT)
    assert solution.status == "converged"
    assert solution.iterations == iterations
    assert kkt_check(problem, solution).passed


def test_five_bus_converges_at_a_tight_tolerance_on_the_default_path(five_bus_problem):
    """At its default SES scores five_bus reaches tol=1e-9 on the condensed
    path in 27 iterations. The iteration count depends on the condensed
    path's inertia rule (CHANGES.md), so it is pinned."""
    solution = solve(five_bus_problem, SolverOptions(tol=1e-9))
    assert solution.status == "converged"
    assert solution.iterations == 27
    assert kkt_check(five_bus_problem, solution).passed


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
    monkeypatch.setattr(solver, "_merit", lambda *args: np.nan)
    solution = solve(build_problem(toy_case()), SolverOptions(max_iter=4))
    assert solution.status == "iteration_limit"
    for row in solution.log[1:]:
        assert row["fallback"] is True
        assert row["backtracks"] == 30
        assert 0.0 < row["alpha_p"] <= 1.0


def test_each_iterate_is_evaluated_once(five_bus, monkeypatch):
    """Each trig-bearing flow kernel runs once per point it is needed at:
    the values at the start and at every line-search trial (_finish reuses
    those of the last iterate), the gradients at every iterate, the Hessian
    at every iterate that takes a step. The line state's cos and sin and
    the demand split are formed once per point too, with the values: the
    Jacobians, the objective gradient and the Lagrangian Hessian read the
    accepted trial's and form none. The scaled residuals are computed once
    per iteration."""
    calls = dict.fromkeys(("flow_p", "flow_p_grad", "flow_p_hess"), 0)
    for name in calls:
        def counted(*args, _kernel=getattr(acnetwork, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(acnetwork, name, counted)
    derivatives = []  # set while a derivative at an iterate is taken
    formed = {"flow_state": [], "_demand_and_generation": []}

    def flow_state(*args, _flow_state=acnetwork.flow_state):
        formed["flow_state"].append(bool(derivatives))
        return _flow_state(*args)
    monkeypatch.setattr(acnetwork, "flow_state", flow_state)

    def demand(self, x, _demand=Problem._demand_and_generation):
        formed["_demand_and_generation"].append(bool(derivatives))
        return _demand(self, x)
    monkeypatch.setattr(Problem, "_demand_and_generation", demand)
    for name in ("jacobians", "objective_gradient", "lagrangian_hessian"):
        def derivative(*args, _method=getattr(Problem, name)):
            derivatives.append(True)
            try:
                return _method(*args)
            finally:
                derivatives.pop()
        monkeypatch.setattr(Problem, name, derivative)
    residual_calls = []

    def residuals(*args, _residuals=solver._scaled_residuals):
        residual_calls.append(args)
        return _residuals(*args)
    monkeypatch.setattr(solver, "_scaled_residuals", residuals)
    solution = solve(build_problem(five_bus))
    assert solution.status == "converged"
    assert calls["flow_p_grad"] == solution.iterations
    assert calls["flow_p_hess"] == solution.iterations - 1
    trials = sum(row["backtracks"] + 1 for row in solution.log[1:])
    assert calls["flow_p"] == 1 + trials
    for name, inside in formed.items():
        assert len(inside) == 1 + trials, name
        assert not any(inside), name
    assert len(residual_calls) == solution.iterations


def _assert_same_bits(actual, expected):
    for a, e in zip(actual, expected, strict=True):
        a, e = np.asarray(a), np.asarray(e)
        assert a.shape == e.shape and a.dtype == e.dtype
        assert np.array_equal(a, e)
        assert np.array_equal(np.signbit(a), np.signbit(e))


def test_derivatives_read_the_accepted_trials_state(network_problem, monkeypatch):
    """At every iterate the solver hands the Jacobians, the objective
    gradient and the Lagrangian Hessian the PointState it formed at the
    accepted trial. That state equals one formed afresh at the iterate, and
    the derivatives taken from it equal the x-taking forms, bit for bit with
    sign bits. Twelve iterations on five_bus, rts24 and five_bus_parallel."""
    formed, seen = [], collections.Counter()

    def values(self, x, _values=solver._InternalNLP.values):
        out = _values(self, x)
        formed.append(out[3])
        return out
    monkeypatch.setattr(solver._InternalNLP, "values", values)

    def checked(name, method):
        def derivative(self, x, *args):
            *duals, state = args
            assert state is formed[-1]
            fresh = self.point_state(x)
            _assert_same_bits(state.line, fresh.line)
            _assert_same_bits(state.demand, fresh.demand)
            out = method(self, x, *args)
            afresh = method(self, x, *duals)
            if name in ("jacobians", "lagrangian_hessian"):  # each returns a pair
                _assert_same_bits(out, afresh)
            else:
                _assert_same_bits([out], [afresh])
            seen[name] += 1
            return out
        return derivative
    for name in ("jacobians", "objective_gradient", "lagrangian_hessian"):
        monkeypatch.setattr(Problem, name, checked(name, getattr(Problem, name)))
    solution = solve(network_problem, SolverOptions(max_iter=12))
    converged = solution.status == "converged"
    assert seen["jacobians"] == solution.iterations
    assert seen["objective_gradient"] == 1 + solution.iterations - converged
    assert seen["lagrangian_hessian"] == solution.iterations - converged


def _check_merits(problem, monkeypatch, opts=SolverOptions(), reject_trials=False):
    """Solve ``problem`` and hold every merit, phi0 and each trial's, equal
    bit for bit to the merit computed afresh from (f, c_E, h) at its point
    and its s: f - mu sum(log s) + rho (|c_E|_1 + |h + s|_1). The point is
    the one of the latest merit terms: the accepted trial's, carried into
    the next iteration, or the current iterate's, taken after a step no
    trial reached. phi0 is the first merit after each residual pass; with
    ``reject_trials`` every trial merit reads NaN, so every step is a
    fallback. Returns the solution and the number of merit-term passes."""
    values_f, terms_at, events = {}, [], []

    def values(self, x, _values=solver._InternalNLP.values):
        out = _values(self, x)
        values_f[id(out[1])] = out
        return out

    def merit_terms(ce, h, s, _terms=solver._merit_terms):
        terms_at.append((ce, h, s))
        return _terms(ce, h, s)

    def merit(f, theta, log_s, mu, rho, _merit=solver._merit):
        ce, h, s = terms_at[-1]
        assert values_f[id(ce)][0] == f and values_f[id(ce)][2] is h
        afresh = f - mu * np.log(s).sum() + rho * (np.abs(ce).sum() + np.abs(h + s).sum())
        phi = _merit(f, theta, log_s, mu, rho)
        assert phi == afresh and np.signbit(phi) == np.signbit(afresh)
        is_phi0 = events[-1] == "residuals"
        events.append("merit")
        return phi if is_phi0 or not reject_trials else np.nan

    def residuals(*args, _residuals=solver._scaled_residuals):
        events.append("residuals")
        return _residuals(*args)

    monkeypatch.setattr(solver._InternalNLP, "values", values)
    monkeypatch.setattr(solver, "_merit_terms", merit_terms)
    monkeypatch.setattr(solver, "_merit", merit)
    monkeypatch.setattr(solver, "_scaled_residuals", residuals)
    solution = solve(problem, opts)
    phi0 = sum(1 for a, b in zip(events, events[1:]) if (a, b) == ("residuals", "merit"))
    # every iteration takes a step but a converged solve's last
    assert phi0 == len(solution.log) - (solution.status == "converged")
    return solution, len(terms_at)


def test_every_merit_is_the_one_taken_afresh_at_its_point(five_bus, monkeypatch):
    """On five_bus every iterate after the start point is an accepted trial,
    so the merit terms are taken afresh once, at the start point."""
    solution, passes = _check_merits(build_problem(five_bus), monkeypatch)
    assert solution.status == "converged"
    assert not any(row["fallback"] for row in solution.log)
    assert passes == 1 + sum(row["backtracks"] + 1 for row in solution.log[1:])


def test_the_merit_terms_are_taken_afresh_after_a_fallback(monkeypatch):
    """With every trial rejected, each iterate is a fallback step, and its
    merit terms are taken afresh, not carried from the last rejected trial."""
    solution, passes = _check_merits(build_problem(toy_case()), monkeypatch,
                                     SolverOptions(max_iter=4), reject_trials=True)
    assert solution.status == "iteration_limit"
    assert all(row["fallback"] for row in solution.log[1:])
    # each of the 4 steps: the terms at its iterate, then 30 rejected trials
    assert passes == 4 * (1 + 30)


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


# ---------------------------------------------------------------------------
# step and residual helpers


def test_max_step_is_one_without_a_negative_delta():
    vals = np.array([1.0, 2.0, 3.0])
    assert solver._max_step(vals, np.array([0.0, 1.0, 5.0])) == 1.0
    assert solver._max_step(vals, np.array([np.nan, 0.0, np.nan])) == 1.0
    assert solver._max_step(np.empty(0), np.empty(0)) == 1.0


def test_max_step_keeps_the_fraction_to_boundary():
    vals = np.array([1.0, 2.0, 4.0])
    # the NaN delta is ignored; the binding row is the second one
    step = solver._max_step(vals, np.array([np.nan, -4.0, -1.0]))
    assert step == solver.TAU * 2.0 / 4.0
    assert type(step) is float
    # a small negative delta would allow a step beyond 1
    assert solver._max_step(vals, np.array([-1e-3, 1.0, 1.0])) == 1.0


def test_scaled_residuals_take_empty_inequalities():
    r_d = np.array([3.0, -4.0])
    lam = np.array([1.0, -2.0])
    r_e = np.array([0.5, -0.25])
    empty = np.empty(0)
    inf_pr, inf_du, inf_comp0, inf_comp_mu = solver._scaled_residuals(
        r_d, r_e, empty, empty, lam, empty, 0.1)
    assert (inf_pr, inf_du, inf_comp0, inf_comp_mu) == (0.5, 4.0, 0.0, 0.0)
    inf_pr, *_ = solver._scaled_residuals(r_d, empty, empty, empty, empty, empty, 0.1)
    assert inf_pr == 0.0
