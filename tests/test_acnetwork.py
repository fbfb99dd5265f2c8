"""Admittance construction and AC power-flow quantities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sesopf.casemodel import Bus, CaseData, Line
from sesopf.acnetwork import (
    Admittance, build_admittance, bus_injections, flow_p, flow_p_grad,
    flow_p_hess, injection_residuals, line_flows, network_losses,
    series_admittance,
)


def _two_bus(r, x, s_max=1e6):
    return CaseData("two_bus", 100.0,
                    (Bus(1, is_slack=True), Bus(2)),
                    (Line(1, 2, r, x, s_max),), (), ())


def _three_bus_chain():
    return CaseData("chain", 100.0,
                    (Bus(1, is_slack=True), Bus(2), Bus(3)),
                    (Line(1, 2, 0.01, 0.1, 1e6), Line(2, 3, 0.02, 0.2, 1e6)),
                    (), ())


# ---------------------------------------------------------------------------
# admittance


def test_series_admittance_reference_values():
    g, b = series_admittance(Line(1, 2, 0.01, 0.1, 1.0))
    assert g == pytest.approx(0.9901, abs=5e-5)
    assert b == pytest.approx(-9.9010, abs=5e-5)
    with pytest.raises(ValueError):
        series_admittance(Line(1, 2, 0.0, 0.0, 1.0))


def test_build_admittance_pure_reactance():
    adm = build_admittance(_two_bus(0.0, 0.1))
    assert np.allclose(adm.b, [[-10.0, 10.0], [10.0, -10.0]])
    assert np.allclose(adm.g, 0.0)


def test_build_admittance_reference_entries():
    adm = build_admittance(_two_bus(0.01, 0.1))
    assert adm.g[0, 0] == pytest.approx(0.9901, abs=5e-5)
    assert adm.g[0, 1] == pytest.approx(-0.9901, abs=5e-5)


def test_admittance_symmetric_with_zero_row_sums(five_bus, rts24):
    for case in (five_bus, rts24):
        adm = build_admittance(case)
        assert np.allclose(adm.g, adm.g.T)
        assert np.allclose(adm.b, adm.b.T)
        # series-only model: no shunts, so every row sums to zero
        assert np.allclose(adm.g.sum(axis=1), 0.0, atol=1e-10)
        assert np.allclose(adm.b.sum(axis=1), 0.0, atol=1e-10)


def test_admittance_is_sum_of_line_contributions(five_bus):
    total_g = np.zeros((5, 5))
    total_b = np.zeros((5, 5))
    for k in range(len(five_bus.lines)):
        single = dataclasses.replace(five_bus, lines=(five_bus.lines[k],))
        adm = build_admittance(single)
        total_g += adm.g
        total_b += adm.b
    adm = build_admittance(five_bus)
    assert np.allclose(adm.g, total_g)
    assert np.allclose(adm.b, total_b)


# ---------------------------------------------------------------------------
# injection residuals


def test_residuals_vanish_at_flat_start(five_bus):
    adm = build_admittance(five_bus)
    rp, rq = injection_residuals(adm, np.ones(5), np.zeros(5),
                                 np.zeros(5), np.zeros(5))
    assert np.allclose(rp, 0.0, atol=1e-12)
    assert np.allclose(rq, 0.0, atol=1e-12)


def test_residuals_two_bus_reference_transfer():
    adm = build_admittance(_two_bus(0.0, 0.1))
    p = 10.0 * math.sin(0.1)  # 0.99833 p.u.
    rp, _ = injection_residuals(adm, [1.0, 1.0], [0.0, -0.1], [p, -p],
                                [10 * (1 - math.cos(0.1))] * 2)
    assert np.max(np.abs(rp)) < 1e-9


def test_residual_locality_of_angle_perturbation():
    case = _three_bus_chain()
    adm = build_admittance(case)
    v = np.array([1.0, 1.01, 0.99])
    theta = np.array([0.0, 0.05, -0.02])
    base_p, base_q = injection_residuals(adm, v, theta, np.zeros(3), np.zeros(3))
    bumped = theta.copy()
    bumped[2] += 0.01
    new_p, new_q = injection_residuals(adm, v, bumped, np.zeros(3), np.zeros(3))
    # bus 3 only touches bus 2, so bus 1 residuals are unchanged
    assert new_p[0] == base_p[0]
    assert new_q[0] == base_q[0]
    assert new_p[1] != base_p[1]
    assert new_p[2] != base_p[2]


def test_residual_dimension_checks():
    adm = build_admittance(_two_bus(0.0, 0.1))
    with pytest.raises(ValueError):
        injection_residuals(adm, [1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])


def test_residuals_small_at_converged_state(five_bus, five_bus_solution):
    adm = build_admittance(five_bus)
    sol = five_bus_solution
    sb = five_bus.s_base
    p_net = np.zeros(5)
    q_net = np.zeros(5)
    for g, p, q in zip(five_bus.generators, sol.p_gen, sol.q_gen):
        i = five_bus.bus_index(g.bus)
        p_net[i] += p / sb
        q_net[i] += q / sb
    for a, p, q in zip(five_bus.aggregators, sol.p_agg, sol.q_agg):
        i = five_bus.bus_index(a.bus)
        p_net[i] -= p / sb
        q_net[i] -= q / sb
    rp, rq = injection_residuals(adm, sol.v, sol.theta, p_net, q_net)
    assert max(np.max(np.abs(rp)), np.max(np.abs(rq))) < 1e-6


# ---------------------------------------------------------------------------
# line flows and losses


def _line_flow(case, v, theta, k):
    """Directed sendings (from->to, to->from) of line k in MW, one line and
    two bus-id scans at a time: the reference for ``line_flows``."""
    line = case.lines[k]
    g, b = series_admittance(line)
    i, j = case.bus_index(line.from_bus), case.bus_index(line.to_bus)
    p_ft = flow_p(v[i], v[j], theta[i], theta[j], g, b)
    p_tf = flow_p(v[j], v[i], theta[j], theta[i], g, b)
    return float(p_ft * case.s_base), float(p_tf * case.s_base)


def test_line_flow_zero_at_flat_state():
    case = _two_bus(0.01, 0.1)
    p_ft, p_tf = line_flows(case, [1.0, 1.0], [0.0, 0.0])
    assert p_ft[0] == 0.0
    assert p_tf[0] == 0.0


def test_line_flow_reference_transfer():
    case = _two_bus(0.0, 0.1)
    p_ft, p_tf = line_flows(case, [1.0, 1.0], [0.1, 0.0])
    assert p_ft[0] == pytest.approx(99.833, abs=1e-3)
    # lossless line: antisymmetric directed sendings
    assert p_ft[0] == pytest.approx(-p_tf[0], rel=1e-12)


def test_network_losses_reference_value():
    case = _two_bus(0.01, 0.1)
    loss = network_losses(case, [1.0, 1.0], [0.1, 0.0])
    assert loss / case.s_base == pytest.approx(0.00989, abs=5e-6)


def test_network_losses_zero_cases(five_bus):
    assert network_losses(_two_bus(0.0, 0.1), [1.0, 1.0], [0.3, 0.0]) == \
        pytest.approx(0.0, abs=1e-12)
    assert network_losses(five_bus, np.ones(5), np.zeros(5)) == \
        pytest.approx(0.0, abs=1e-9)


@settings(deadline=None)
@given(data=st.data())
def test_losses_nonnegative_for_resistive_lines(data, five_bus):
    v = np.array([data.draw(st.floats(0.9, 1.1)) for _ in range(5)])
    theta = np.array([0.0] + [data.draw(st.floats(-0.5, 0.5)) for _ in range(4)])
    assert network_losses(five_bus, v, theta) >= -1e-9


@pytest.mark.parametrize("name", ["five_bus", "rts24"])
def test_line_flows_match_line_flow(name, request):
    case = request.getfixturevalue(name)
    sol = request.getfixturevalue(f"{name}_solution")
    p_ft, p_tf = line_flows(case, sol.v, sol.theta)
    ref = np.array([_line_flow(case, sol.v, sol.theta, k) for k in range(len(case.lines))])
    assert np.allclose(p_ft, ref[:, 0], rtol=1e-12, atol=0.0)
    assert np.allclose(p_tf, ref[:, 1], rtol=1e-12, atol=0.0)
    assert network_losses(case, sol.v, sol.theta) == pytest.approx(
        float(np.sum(ref)), rel=1e-12)


def test_generation_demand_loss_identity(five_bus, five_bus_solution):
    """Summed net injections equal the resistive losses exactly."""
    adm = build_admittance(five_bus)
    sol = five_bus_solution
    p_inj, _ = bus_injections(adm, sol.v, sol.theta)
    total = float(np.sum(p_inj)) * five_bus.s_base
    assert total == pytest.approx(network_losses(five_bus, sol.v, sol.theta),
                                  abs=1e-8 * five_bus.s_base)


# ---------------------------------------------------------------------------
# per-line derivative primitives


def _flow_q(vi, vj, ti, tj, g, b):
    """The reactive sending flow in closed form."""
    dth = ti - tj
    return -vi * vi * b - vi * vj * (g * np.sin(dth) - b * np.cos(dth))


def _rotated(kernel):
    """A flow_p kernel evaluated at the rotated admittance (-b, g)."""
    return lambda vi, vj, ti, tj, g, b: kernel(vi, vj, ti, tj, -b, g)


@settings(deadline=None)
@given(data=st.data())
def test_flow_primitives_match_finite_differences(data):
    """flow_p at the rotated admittance is the reactive flow bit for bit,
    and the rotated gradient and Hessian are its derivatives."""
    g = data.draw(st.floats(0.0, 5.0))
    b = data.draw(st.floats(-20.0, -0.5))
    state = np.array([data.draw(st.floats(0.9, 1.1)),
                      data.draw(st.floats(0.9, 1.1)),
                      data.draw(st.floats(-0.4, 0.4)),
                      data.draw(st.floats(-0.4, 0.4))])
    assert flow_p(*state, -b, g) == _flow_q(*state, g, b)

    for fun, grad_fun, hess_fun in ((flow_p, flow_p_grad, flow_p_hess),
                                    (_flow_q, _rotated(flow_p_grad), _rotated(flow_p_hess))):
        grad = grad_fun(*state, g, b)
        hess = hess_fun(*state, g, b)
        h = 1e-6
        for i in range(4):
            up, dn = state.copy(), state.copy()
            up[i] += h
            dn[i] -= h
            fd = (fun(*up, g, b) - fun(*dn, g, b)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=5e-7, rel=1e-6)
            fd_row = (grad_fun(*up, g, b) - grad_fun(*dn, g, b)) / (2 * h)
            assert np.allclose(hess[i], fd_row, atol=5e-6)
