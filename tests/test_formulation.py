"""NLP assembly: layout, bounds, constraint evaluators, and derivatives."""

import dataclasses

import numpy as np
import pytest

from sesopf.acnetwork import bus_injections
from sesopf.casemodel import Aggregator, Bus, CaseData, Generator
from sesopf.formulation import (
    CurtailmentReport, VariableLayout, build_problem, curtailment_report,
)
from sesopf.solver import finite_difference_audit
from sesopf.welfare import marginal_cost, marginal_satisfaction, social_objective

from conftest import random_interior_state, single_bus_case


# ---------------------------------------------------------------------------
# layout and bounds


def test_five_bus_dimensions(five_bus_problem):
    p = five_bus_problem
    assert p.n_var == 33  # 2*5 gens + 2*7 aggs + 5 V + 4 angles
    assert p.n_eq == 10
    assert p.n_ineq == 14  # 6 lines * 2 directions + 2 adequacy rows


def test_slack_angle_is_not_a_variable(five_bus_problem):
    lay = five_bus_problem.layout
    assert lay.th.stop - lay.th.start == lay.n_bus - 1
    with pytest.raises(ValueError):
        lay.theta_index(lay.slack)
    theta = five_bus_problem.full_theta(np.arange(33, dtype=float))
    assert theta[lay.slack] == 0.0


def test_bounds_realize_case_limits(five_bus, five_bus_problem):
    p, lay, sb = five_bus_problem, five_bus_problem.layout, five_bus.s_base
    assert np.allclose(p.ub[lay.pg] * sb, [g.p_max for g in five_bus.generators])
    assert np.allclose(p.lb[lay.pg] * sb, [g.p_min for g in five_bus.generators])
    assert np.allclose(p.lb[lay.pa] * sb, [a.p_c for a in five_bus.aggregators])
    assert np.allclose(p.ub[lay.pa] * sb, [a.p_n for a in five_bus.aggregators])
    assert np.allclose(p.lb[lay.qa] * sb, [a.q_c for a in five_bus.aggregators])
    assert np.allclose(p.ub[lay.qa] * sb, [a.q_n for a in five_bus.aggregators])
    assert np.allclose(p.lb[lay.v], [b.v_min for b in five_bus.buses])
    assert np.allclose(p.ub[lay.v], [b.v_max for b in five_bus.buses])
    assert np.all(np.isinf(p.lb[lay.th])) and np.all(np.isinf(p.ub[lay.th]))


def test_initial_point_respects_bounds(five_bus_problem):
    x = five_bus_problem.initial_point()
    finite = np.isfinite(five_bus_problem.lb)
    assert np.all(x[finite] >= five_bus_problem.lb[finite])
    assert np.all(x[np.isfinite(five_bus_problem.ub)] <=
                  five_bus_problem.ub[np.isfinite(five_bus_problem.ub)])


def test_build_problem_rejects_invalid_case(five_bus):
    bad = dataclasses.replace(five_bus.lines[0], x=0.0)
    case = dataclasses.replace(five_bus, lines=(bad,) + five_bus.lines[1:])
    with pytest.raises(ValueError):
        build_problem(case)


# ---------------------------------------------------------------------------
# constraint structure


def test_single_bus_balance_reduces_to_exchange():
    case = single_bus_case(
        Generator(1, 1.0, 0.0, 0.0, 0.0, 10.0, -5.0, 5.0),
        Aggregator(1, 1.0, 10.0, 1.0, 8.0, 0.0, 2.0, 0.0))
    problem = build_problem(case)
    lay = problem.layout
    x = np.zeros(problem.n_var)
    x[lay.pg] = 0.03
    x[lay.pa] = 0.01
    x[lay.qg] = 0.02
    x[lay.qa] = 0.005
    x[lay.v] = 1.0
    eq = problem.equalities(x)
    assert eq == pytest.approx([0.02, 0.015])  # P_g - P_a, Q_g - Q_a


def test_adequacy_rows_and_line_limits(five_bus_problem):
    x = five_bus_problem.initial_point()
    vals = five_bus_problem.inequalities(x)
    lay = five_bus_problem.layout
    expected_p = np.sum(x[lay.pa]) - np.sum(x[lay.pg])
    expected_q = np.sum(x[lay.qa]) - np.sum(x[lay.qg])
    assert vals[-2] == pytest.approx(expected_p)
    assert vals[-1] == pytest.approx(expected_q)
    # flat start: no flows, so every line-limit row is strictly satisfied
    assert np.all(vals[:-2] < 0)


def test_adequacy_redundant_at_converged_solution(five_bus_problem,
                                                  five_bus_solution):
    vals = five_bus_problem.inequalities(five_bus_solution.x)
    assert vals[-2] <= 1e-6
    assert vals[-1] <= 1e-6


# ---------------------------------------------------------------------------
# derivatives


def test_gradient_structure(five_bus, five_bus_problem):
    rng = np.random.default_rng(7)
    x = random_interior_state(five_bus_problem, rng)
    lay, sb = five_bus_problem.layout, five_bus.s_base
    grad = five_bus_problem.objective_gradient(x)
    weighted, _, _ = social_objective(five_bus, x[lay.pa] * sb, x[lay.pg] * sb)
    assert five_bus_problem.objective(x) == pytest.approx(weighted, rel=1e-12)
    assert np.allclose(grad[lay.qg], 0.0)
    assert np.allclose(grad[lay.qa], 0.0)
    assert np.allclose(grad[lay.v], 0.0)
    assert np.allclose(grad[lay.th], 0.0)
    for k, agg in enumerate(five_bus.aggregators):
        p = x[lay.pa.start + k] * sb
        assert grad[lay.pa.start + k] == pytest.approx(
            agg.sigma * marginal_satisfaction(agg, p) * sb)
    for k, gen in enumerate(five_bus.generators):
        p = x[lay.pg.start + k] * sb
        assert grad[lay.pg.start + k] == pytest.approx(-marginal_cost(gen, p) * sb)


def test_gradient_vanishes_on_saturated_demand(five_bus_problem):
    lay = five_bus_problem.layout
    case = five_bus_problem.case
    x = five_bus_problem.initial_point()
    # aggregator (4,3) saturates at 114.94 MW; normal limit is above that
    k = 6
    agg = case.aggregators[k]
    x[lay.pa.start + k] = 1.2 * agg.gamma / agg.mu / case.s_base
    grad = five_bus_problem.objective_gradient(x)
    assert grad[lay.pa.start + k] == 0.0
    weighted, _, _ = social_objective(case, x[lay.pa] * case.s_base, x[lay.pg] * case.s_base)
    assert five_bus_problem.objective(x) == pytest.approx(weighted, rel=1e-12)
    diag = five_bus_problem.objective_hessian_diag(x)
    assert diag[lay.pa.start + k] == 0.0


def test_objective_concave_in_dispatch(five_bus_problem):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = random_interior_state(five_bus_problem, rng)
        assert np.all(five_bus_problem.objective_hessian_diag(x) <= 0.0)


def test_derivatives_match_finite_differences(five_bus_problem):
    report = finite_difference_audit(five_bus_problem, n_points=5, seed=3)
    assert report.passed, report


def test_constraint_evaluator_shapes(five_bus_problem):
    x = five_bus_problem.initial_point()
    p = five_bus_problem
    eq, ineq = p.equalities(x), p.inequalities(x)
    je, jh = p.equality_jacobian(x), p.inequality_jacobian(x)
    assert eq.shape == (10,)
    assert ineq.shape == (14,)
    assert je.shape == (10, 33)
    assert jh.shape == (14, 33)


def test_stacked_points_give_the_single_point_rows(network_problem):
    """A (k, n) call returns one row per point, bit for bit the (n,) call on
    that point, so the audit's stacked differences are single-point ones."""
    p = network_problem
    rng = np.random.default_rng(17)
    xs = np.stack([random_interior_state(p, rng) for _ in range(7)])
    for fun in (p.objective, p.equalities, p.inequalities):
        stacked = fun(xs)
        assert stacked.shape == (7,) + np.shape(fun(xs[0]))
        for x, row in zip(xs, stacked):
            assert np.array_equal(row, fun(x))
    assert isinstance(p.objective(xs[0]), float)


def _net_injection(problem, x):
    """Generation minus demand at each bus, P rows then Q rows, one
    generator or aggregator at a time."""
    case, lay = problem.case, problem.layout
    net = np.zeros(x.shape[:-1] + (problem.n_eq,))
    for units, p_cols, q_cols, sign in ((case.generators, lay.pg, lay.qg, 1.0),
                                        (case.aggregators, lay.pa, lay.qa, -1.0)):
        for k, unit in enumerate(units):
            i = case.bus_index(unit.bus)
            net[..., i] += sign * x[..., p_cols.start + k]
            net[..., lay.n_bus + i] += sign * x[..., q_cols.start + k]
    return net


def test_balance_from_line_flows_matches_the_y_bus(network_problem):
    """Power balance sums the directed flows leaving each bus; under the
    series-only model that is the Y-bus injection, parallel lines included."""
    p = network_problem
    rng = np.random.default_rng(23)
    xs = np.stack([random_interior_state(p, rng) for _ in range(10)])
    pn, qn = bus_injections(p.adm, xs[:, p.layout.v], p.full_theta(xs))
    single = bus_injections(p.adm, xs[0, p.layout.v], p.full_theta(xs[0]))
    assert np.array_equal(pn[0], single[0]) and np.array_equal(qn[0], single[1])
    ybus = _net_injection(p, xs) - np.concatenate([pn, qn], axis=-1)
    err = np.abs(p.equalities(xs) - ybus) / np.maximum(1.0, np.abs(ybus))
    assert np.max(err) < 1e-12


def test_lagrangian_hessian_matches_gradient_differences(network_problem):
    """Parallel lines and every line leaving a bus add into shared cells of
    the balance Jacobian and the Hessian."""
    _check_second_derivatives(network_problem)


def _check_second_derivatives(problem):
    """Lagrangian Hessian against differences of the Lagrangian gradient,
    and both Jacobians against differences of their constraints, at a
    random interior point with non-zero duals."""
    rng = np.random.default_rng(5)
    x = random_interior_state(problem, rng)
    lam = rng.normal(size=problem.n_eq)
    nu = np.abs(rng.normal(size=problem.n_ineq))

    def lagrangian_grad(y):
        return (-problem.objective_gradient(y)
                + problem.equality_jacobian(y).T @ lam
                + problem.inequality_jacobian(y).T @ nu)

    hess = problem.lagrangian_hessian(x, 1.0, lam, nu)
    assert np.allclose(hess, hess.T, atol=1e-12)
    fd = np.empty_like(hess)
    h = 1e-6
    steps = h * np.eye(problem.n_var)
    for i in range(problem.n_var):
        fd[:, i] = (lagrangian_grad(x + steps[i]) - lagrangian_grad(x - steps[i])) / (2 * h)
    scale = np.maximum(1.0, np.abs(hess))
    assert np.max(np.abs(hess - fd) / scale) < 1e-5
    for values, jacobian in ((problem.equalities, problem.equality_jacobian),
                             (problem.inequalities, problem.inequality_jacobian)):
        jac = jacobian(x)
        fd_jac = (values(x + steps) - values(x - steps)).T / (2 * h)
        assert np.max(np.abs(jac - fd_jac) / np.maximum(1.0, np.abs(jac))) < 1e-6


# ---------------------------------------------------------------------------
# curtailment


def test_curtailment_report_bounds(five_bus, five_bus_solution):
    report = curtailment_report(five_bus, five_bus_solution)
    p_n = np.array([a.p_n for a in five_bus.aggregators])
    p_c = np.array([a.p_c for a in five_bus.aggregators])
    assert np.all(report.per_aggregator >= -1e-4)
    assert np.all(report.per_aggregator <= p_n - p_c + 1e-4)
    assert report.total == pytest.approx(
        float(np.sum(five_bus_solution.p_gen) - np.sum(five_bus_solution.p_agg)))


def test_curtailment_report_rejects_infeasible_points(five_bus,
                                                      five_bus_solution):
    bad = dataclasses.replace(five_bus_solution, max_violation=1.0)
    with pytest.raises(ValueError):
        curtailment_report(five_bus, bad)
