"""NLP assembly: layout, bounds, constraint evaluators, and derivatives."""

import dataclasses
import math
import re

import numpy as np
import pytest

from sesopf.acnetwork import bus_injections, flow_p, flow_state, line_flows
from sesopf.casemodel import Aggregator, Bus, CaseData, Generator, scale_ses
from sesopf.formulation import build_problem
from sesopf.harness import Metrics, compute_metrics
from sesopf.solver import SolverOptions, finite_difference_audit, solve
from sesopf.welfare import social_objective

import welfare_oracle as oracle
from conftest import admittance_by_lines, assembled_hessian, random_interior_state, single_bus_case
from test_acnetwork import _flow_p_hess_by_entries


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
    eq, _ = problem.constraints(x)
    assert eq == pytest.approx([0.02, 0.015])  # P_g - P_a, Q_g - Q_a


def test_adequacy_rows_and_line_limits(five_bus_problem):
    x = five_bus_problem.initial_point()
    _, vals = five_bus_problem.constraints(x)
    lay = five_bus_problem.layout
    expected_p = np.sum(x[lay.pa]) - np.sum(x[lay.pg])
    expected_q = np.sum(x[lay.qa]) - np.sum(x[lay.qg])
    assert vals[-2] == pytest.approx(expected_p)
    assert vals[-1] == pytest.approx(expected_q)
    # flat start: no flows, so every line-limit row is strictly satisfied
    assert np.all(vals[:-2] < 0)


def test_adequacy_redundant_at_converged_solution(five_bus_problem,
                                                  five_bus_solution):
    _, vals = five_bus_problem.constraints(five_bus_solution.x)
    assert vals[-2] <= 1e-6
    assert vals[-1] <= 1e-6


# ---------------------------------------------------------------------------
# derivatives


def test_gradient_structure(five_bus, five_bus_problem):
    rng = np.random.default_rng(7)
    x = random_interior_state(five_bus_problem, rng)
    lay, sb = five_bus_problem.layout, five_bus.s_base
    grad = five_bus_problem.objective_gradient(x)
    weighted, _, _ = oracle.social_objective(five_bus, x[lay.pa] * sb, x[lay.pg] * sb)
    assert five_bus_problem.objective(x) == pytest.approx(weighted, rel=1e-12)
    # the reports' objective sums the same terms in the same order
    assert five_bus_problem.objective(x) == social_objective(
        five_bus_problem.welfare, x[lay.pa] * sb, x[lay.pg] * sb)[0]
    assert np.allclose(grad[lay.qg], 0.0)
    assert np.allclose(grad[lay.qa], 0.0)
    assert np.allclose(grad[lay.v], 0.0)
    assert np.allclose(grad[lay.th], 0.0)
    for k, agg in enumerate(five_bus.aggregators):
        p = x[lay.pa.start + k] * sb
        assert grad[lay.pa.start + k] == pytest.approx(
            agg.sigma * oracle.marginal_satisfaction(agg, p) * sb)
    for k, gen in enumerate(five_bus.generators):
        p = x[lay.pg.start + k] * sb
        assert grad[lay.pg.start + k] == pytest.approx(-oracle.marginal_cost(gen, p) * sb)


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
    weighted, _, _ = oracle.social_objective(case, x[lay.pa] * case.s_base,
                                             x[lay.pg] * case.s_base)
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
    eq, ineq = p.constraints(x)
    je, jh = p.jacobians(x)
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
    stacked = p.objective(xs)
    assert stacked.shape == (7,)
    assert [p.objective(x) for x in xs] == stacked.tolist()
    assert isinstance(p.objective(xs[0]), float)
    eq, ineq = p.constraints(xs)
    assert eq.shape == (7, p.n_eq) and ineq.shape == (7, p.n_ineq)
    for x, eq_row, ineq_row in zip(xs, eq, ineq):
        single_eq, single_ineq = p.constraints(x)
        assert np.array_equal(eq_row, single_eq)
        assert np.array_equal(ineq_row, single_ineq)


def test_constraints_are_the_network_rows_then_the_adequacy_rows(network_problem):
    """constraints is _network_rows with _adequacy_rows after the line
    limits, bit for bit and sign bits included, at one point and in stacks
    of 1, 7 and 38: the audit differences the two blocks apart, and the
    solver reads constraints."""
    p = network_problem
    rng = np.random.default_rng(31)
    xs = np.stack([random_interior_state(p, rng) for _ in range(38)])
    for x in (xs[0], xs[:1], xs[:7], xs):
        balance, limits = p._network_rows(x)
        adequacy = p._adequacy_rows(x)
        assert adequacy.shape == x.shape[:-1] + (2,)
        for whole, part in zip(p.constraints(x),
                               (balance, np.concatenate([limits, adequacy], axis=-1))):
            assert np.array_equal(whole, part)
            assert np.array_equal(np.signbit(whole), np.signbit(part))


# ---------------------------------------------------------------------------
# evaluators against their per-call forms
#
# The forms below rebuild on every call what Problem.__post_init__ builds
# once: the objective's constants from the case, and the boolean-mask
# gathers of the Jacobians and the Lagrangian Hessian. The flow kernels get
# each line state once, shaped (1, rows), and broadcast it against the
# (2, rows) admittance; the flow gradient forms -vi vj d and vi vj d apart.


def _objective_constants(p):
    case = p.case
    sigma, gamma, mu = np.array([(a.sigma, a.gamma, a.mu) for a in case.aggregators],
                                dtype=float).reshape(-1, 3).T
    a, b, c = np.array([(g.a, g.b, g.c) for g in case.generators],
                       dtype=float).reshape(-1, 3).T
    return sigma, gamma, mu, a, b, c


def _per_call_objective(p, x):
    lay, sb = p.layout, p.case.s_base
    sigma, gamma, mu, a, b, c = _objective_constants(p)
    pa, pg = x[..., lay.pa] * sb, x[..., lay.pg] * sb
    sat = np.where(pa < gamma / mu, gamma * pa - 0.5 * mu * pa * pa, 0.5 * gamma ** 2 / mu)
    value = (sigma * sat).sum(axis=-1) - (a * pg * pg + b * pg + c).sum(axis=-1)
    return value if value.ndim else float(value)


def _per_call_gradient(p, x):
    lay, sb = p.layout, p.case.s_base
    sigma, gamma, mu, a, b, _ = _objective_constants(p)
    pa, pg = x[..., lay.pa] * sb, x[..., lay.pg] * sb
    grad = np.zeros(p.n_var)
    grad[lay.pa] = sigma * np.where(pa < gamma / mu, gamma - mu * pa, 0.0) * sb
    grad[lay.pg] = -(2.0 * a * pg + b) * sb
    return grad


def _per_call_hessian_diag(p, x):
    lay, sb = p.layout, p.case.s_base
    sigma, gamma, mu, a, _, _ = _objective_constants(p)
    diag = np.zeros(p.n_var)
    diag[lay.pa] = np.where(x[..., lay.pa] * sb < gamma / mu, -sigma * mu * sb * sb, 0.0)
    diag[lay.pg] = -2.0 * a * sb * sb
    return diag


def _broadcast_state(p, x):
    """(vi, vj, ti, tj), each of shape (1, rows), or (k, 1, rows) for (k, n)."""
    state = p._extended(x).take(p._state_cols, axis=-1).swapaxes(0, -2)
    return state[..., None, :]


def _per_call_constraints(p, x):
    lead = x.shape[:-1]
    pq = flow_p(*flow_state(*_broadcast_state(p, x)), *p._gb)
    terms = p._balance_sign * np.concatenate(
        [x.take(p._inj_col, axis=-1), pq.reshape(lead + (-1,))], axis=-1)
    k = math.prod(lead)
    bins = (p._balance_row + p.n_eq * np.arange(k)[:, None]).ravel()
    balance = np.bincount(bins, weights=terms.ravel(), minlength=k * p.n_eq)
    adequacy = (p._adequacy * x[..., None, :]).sum(axis=-1)
    return (balance.reshape(lead + (p.n_eq,)),
            np.concatenate([pq[..., 0, :] - p._smax2, adequacy], axis=-1))


def _masks(p):
    """The valid (row, column) pairs of the directed rows' local states and
    of their 4x4 Hessian blocks, and the flat positions they scatter to."""
    n, cols = p.n_var, p._state_cols.T
    valid = cols >= 0
    hess_valid = valid[:, :, None] & valid[:, None, :]
    jh_flat = (np.arange(len(cols))[:, None] * n + cols)[valid]
    je_flat = np.concatenate([p._inj_row * n + p._inj_col,
                              (p._flow_row[:, :, None] * n + cols)[:, valid].ravel()])
    hess_flat = np.concatenate([np.arange(n) * (n + 1),
                                (cols[:, :, None] * n + cols[:, None, :])[hess_valid]])
    return valid, hess_valid, jh_flat, je_flat, hess_flat


def _per_call_jacobians(p, x):
    n = p.n_var
    valid, _, jh_flat, je_flat, _ = _masks(p)
    vi, vj, ti, tj = _broadcast_state(p, x)
    g, b = p._gb
    ct, st = np.cos(ti - tj), np.sin(ti - tj)
    a = g * ct + b * st
    d = -g * st + b * ct
    grad = np.array([2 * vi * g - vj * a, -vi * a, -vi * vj * d, vi * vj * d])
    weights = np.concatenate([p._inj_sign, -grad.transpose(1, 2, 0)[:, valid].ravel()])
    je = np.bincount(je_flat, weights=weights, minlength=p.n_eq * n).reshape(p.n_eq, n)
    jh = np.zeros((p.n_ineq, n))
    jh.flat[jh_flat] = grad[:, 0].T[valid]
    jh[-2:] = p._adequacy
    return je, jh


def _per_call_lagrangian_hessian(p, x, lam_eq, lam_ineq):
    n = p.n_var
    _, hess_valid, _, _, hess_flat = _masks(p)
    weight = -lam_eq[p._flow_row]
    weight[0] += lam_ineq[:weight.shape[1]]
    local = weight[..., None, None] * _flow_p_hess_by_entries(*_broadcast_state(p, x), *p._gb)
    local = local[0] + local[1]
    weights = np.concatenate([-_per_call_hessian_diag(p, x), local[hess_valid]])
    return np.bincount(hess_flat, weights=weights, minlength=n * n).reshape(n, n)


def _assert_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def test_evaluators_equal_their_per_call_forms_bit_for_bit(network_problem):
    """Values, sign bits and shapes, at single points and in stacks of 1, 7
    and 64 points. The first two points put every demand exactly at and then
    beyond the satisfaction kink gamma/mu; the next are the flat start, where
    every angle difference is +0.0, and a point where one line's end angles
    are equal, so the stacked line state's sin of -(+0.0) must be +0.0 too."""
    p = network_problem
    lay, sb = p.layout, p.case.s_base
    rng = np.random.default_rng(41)
    xs = np.stack([random_interior_state(p, rng) for _ in range(64)])
    kink = np.array([a.gamma / a.mu for a in p.case.aggregators]) / sb
    xs[0, lay.pa], xs[1, lay.pa] = kink, 1.5 * kink
    xs[2] = p.initial_point()
    theta_from, theta_to = next(ends for ends in p._state_cols[2:].T if (ends >= 0).all())
    xs[3, theta_to] = xs[3, theta_from]
    for stack in (xs[:1], xs[:7], xs):
        states = p._line_state(stack)
        for i, x in enumerate(stack):
            for actual, expected in zip(states, p._line_state(x)):
                _assert_bits(actual[i], expected)
    for x in (xs[0], xs[1], xs[2], xs[3], xs[:1], xs[:7], xs):
        assert type(p.objective(x)) is type(_per_call_objective(p, x))
        _assert_bits(p.objective(x), _per_call_objective(p, x))
        for actual, expected in zip(p.constraints(x), _per_call_constraints(p, x)):
            _assert_bits(actual, expected)
    for x in xs[:7]:
        _assert_bits(p.objective_gradient(x), _per_call_gradient(p, x))
        _assert_bits(p.objective_hessian_diag(x), _per_call_hessian_diag(p, x))
        for actual, expected in zip(p.jacobians(x), _per_call_jacobians(p, x)):
            _assert_bits(actual, expected)
        lam_eq, lam_ineq = rng.normal(size=p.n_eq), rng.uniform(0, 2, size=p.n_ineq)
        diag, block = p.lagrangian_hessian(x, lam_eq, lam_ineq)
        n_net = p.n_var - lay.v.start
        assert diag.shape == (p.n_var,) and block.shape == (n_net, n_net)
        _assert_bits(assembled_hessian(p, diag, block),
                     _per_call_lagrangian_hessian(p, x, lam_eq, lam_ineq))


@pytest.mark.parametrize("factor", [0.1, 0.7, 1.0, 1.5, np.float32(0.7)])
@pytest.mark.parametrize("name", ["five_bus", "rts24"])
def test_a_scaled_problem_is_the_problem_of_the_scaled_case(request, name, factor):
    """The premise of ``Problem.scaled``: the re-scored Problem of a case is
    the Problem of the scaled case bit for bit, in its bounds, its welfare
    coefficients, every evaluator at interior points and the run metrics of a
    solution, and it shares its case and every member but its scores with
    the Problem it was scaled from."""
    case = request.getfixturevalue(name)
    base = build_problem(case)
    scaled, rebuilt = base.scaled(factor), build_problem(scale_ses(case, factor))
    assert scaled.case is base.case
    for actual, expected in zip([scaled.lb, scaled.ub, *scaled.welfare],
                                [rebuilt.lb, rebuilt.ub, *rebuilt.welfare]):
        _assert_bits(actual, expected)
    rng = np.random.default_rng(53)
    for _ in range(8):
        x = random_interior_state(rebuilt, rng)
        lam_eq, lam_ineq = rng.normal(size=rebuilt.n_eq), rng.uniform(0, 2, size=rebuilt.n_ineq)
        evaluations = [
            [p.objective(x), p.objective_gradient(x), *p.constraints(x), *p.jacobians(x),
             *p.lagrangian_hessian(x, lam_eq, lam_ineq)] for p in (scaled, rebuilt)]
        for actual, expected in zip(*evaluations):
            _assert_bits(actual, expected)
    assert {name for name, value in vars(base).items() if vars(scaled)[name] is not value} \
        == {"welfare", "_pa_curv"}
    solution = solve(rebuilt, SolverOptions(max_iter=3))
    for field in dataclasses.fields(Metrics):
        _assert_bits(getattr(compute_metrics(scaled, solution), field.name),
                     getattr(compute_metrics(rebuilt, solution), field.name))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf, 1.5])
def test_a_refused_factor_or_score_raises_as_the_scaled_case_does(five_bus, factor):
    """A factor that is no positive number raises ``scale_ses``'s message, and
    a score that overflows (1.5e308, finite, at 150 %) ``build_problem``'s."""
    aggs = (dataclasses.replace(five_bus.aggregators[0], sigma=1.5e308),) + five_bus.aggregators[1:]
    case = dataclasses.replace(five_bus, aggregators=aggs)
    with pytest.raises(ValueError) as expected:
        build_problem(scale_ses(case, factor))
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        build_problem(case).scaled(factor)


def test_the_lagrangian_hessian_has_only_its_two_blocks(network_problem):
    """The premise of the block form: at random interior points and
    multipliers, the per-call n x n Hessian is exactly zero outside the
    diagonal and the v/theta block, so an injection column meets nothing but
    its own diagonal entry."""
    p = network_problem
    n, net = p.n_var, slice(p.layout.v.start, p.n_var)
    outside = ~np.eye(n, dtype=bool)
    outside[net, net] = False
    rng = np.random.default_rng(43)
    for _ in range(8):
        x = random_interior_state(p, rng)
        lam_eq, lam_ineq = rng.normal(size=p.n_eq), rng.uniform(0, 2, size=p.n_ineq)
        hess = _per_call_lagrangian_hessian(p, x, lam_eq, lam_ineq)
        assert not hess[outside].any()
        assert hess[net, net].any()


def test_fused_evaluators_equal_the_separate_ones(network_problem):
    """The inequality rows of constraints, which the solver, kkt_check and
    the audit read, equal rows computed apart from it: the line limits from
    acnetwork.line_flows, and the adequacy rows and their Jacobian summed
    unit by unit. The balance rows meet the Y-bus in
    test_balance_from_line_flows_matches_the_y_bus."""
    p = network_problem
    case, lay, sb = p.case, p.layout, p.case.s_base
    s_max = np.array([ln.s_max for ln in case.lines])
    adequacy_jac = np.zeros((2, p.n_var))
    adequacy_jac[0, lay.pa], adequacy_jac[0, lay.pg] = 1.0, -1.0
    adequacy_jac[1, lay.qa], adequacy_jac[1, lay.qg] = 1.0, -1.0
    rng = np.random.default_rng(29)
    for _ in range(5):
        x = random_interior_state(p, rng)
        _, ineq = p.constraints(x)
        p_ft, p_tf = line_flows(case, x[lay.v], p.full_theta(x))
        limits = np.concatenate([p_ft - s_max, p_tf - s_max]) / sb
        assert np.allclose(ineq[:-2], limits, rtol=1e-12, atol=1e-14)
        adequacy = [sum(x[lay.pa].tolist()) - sum(x[lay.pg].tolist()),
                    sum(x[lay.qa].tolist()) - sum(x[lay.qg].tolist())]
        assert np.allclose(ineq[-2:], adequacy, rtol=1e-12, atol=1e-14)
        _, jh = p.jacobians(x)
        assert np.array_equal(jh[-2:], adequacy_jac)


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
    ybus = admittance_by_lines(p.case)
    pn, qn = bus_injections(*ybus, xs[:, p.layout.v], p.full_theta(xs))
    single = bus_injections(*ybus, xs[0, p.layout.v], p.full_theta(xs[0]))
    assert np.array_equal(pn[0], single[0]) and np.array_equal(qn[0], single[1])
    balance = _net_injection(p, xs) - np.concatenate([pn, qn], axis=-1)
    err = np.abs(p.constraints(xs)[0] - balance) / np.maximum(1.0, np.abs(balance))
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
        je, jh = problem.jacobians(y)
        return -problem.objective_gradient(y) + je.T @ lam + jh.T @ nu

    hess = assembled_hessian(problem, *problem.lagrangian_hessian(x, lam, nu))
    assert np.allclose(hess, hess.T, atol=1e-12)
    fd = np.empty_like(hess)
    h = 1e-6
    steps = h * np.eye(problem.n_var)
    for i in range(problem.n_var):
        fd[:, i] = (lagrangian_grad(x + steps[i]) - lagrangian_grad(x - steps[i])) / (2 * h)
    scale = np.maximum(1.0, np.abs(hess))
    assert np.max(np.abs(hess - fd) / scale) < 1e-5
    for jac, up, down in zip(problem.jacobians(x), problem.constraints(x + steps),
                             problem.constraints(x - steps)):
        fd_jac = (up - down).T / (2 * h)
        assert np.max(np.abs(jac - fd_jac) / np.maximum(1.0, np.abs(jac))) < 1e-6


# ---------------------------------------------------------------------------
# curtailment


def test_curtailment_report_bounds(five_bus, five_bus_solution):
    """Each aggregator is curtailed by at least zero and at most p_n - p_c,
    and the total is their sum."""
    metrics = compute_metrics(build_problem(five_bus), five_bus_solution)
    per = metrics.curtailment
    p_n = np.array([a.p_n for a in five_bus.aggregators])
    p_c = np.array([a.p_c for a in five_bus.aggregators])
    assert np.all(per >= -1e-4)
    assert np.all(per <= p_n - p_c + 1e-4)
    assert metrics.total_curtailment_mw == pytest.approx(float(np.sum(per)), rel=1e-12)
