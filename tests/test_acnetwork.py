"""AC power-flow quantities, and the tests' line-by-line Y-bus that the
flow sums are held to."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sesopf.casemodel import Bus, CaseData, Line
from sesopf.acnetwork import (
    HESS_ENTRIES, bus_injections, flow_p, flow_p_grad, flow_p_hess, flow_state,
    line_arrays, line_flows, network_losses,
)

from conftest import admittance_by_lines
from record_oracle import series_admittance


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


def test_line_arrays_name_the_first_line_with_no_impedance():
    """r = x = 0 raises for the first such line, as the line-by-line form
    raises at it."""
    case = _three_bus_chain()
    lines = (case.lines[0], Line(2, 3, 0.0, 0.0, 1.0), Line(3, 1, -0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="^line 2-3 has r = x = 0$"):
        line_arrays(dataclasses.replace(case, lines=lines))


def test_build_admittance_pure_reactance():
    g, b = admittance_by_lines(_two_bus(0.0, 0.1))
    assert np.allclose(b, [[-10.0, 10.0], [10.0, -10.0]])
    assert np.allclose(g, 0.0)


def test_build_admittance_reference_entries():
    g, _ = admittance_by_lines(_two_bus(0.01, 0.1))
    assert g[0, 0] == pytest.approx(0.9901, abs=5e-5)
    assert g[0, 1] == pytest.approx(-0.9901, abs=5e-5)


def test_admittance_symmetric_with_zero_row_sums(five_bus, rts24):
    for case in (five_bus, rts24):
        g, b = admittance_by_lines(case)
        assert np.allclose(g, g.T)
        assert np.allclose(b, b.T)
        # series-only model: no shunts, so every row sums to zero
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-10)
        assert np.allclose(b.sum(axis=1), 0.0, atol=1e-10)


def test_admittance_is_sum_of_line_contributions(five_bus):
    total_g = np.zeros((5, 5))
    total_b = np.zeros((5, 5))
    for k in range(len(five_bus.lines)):
        single = dataclasses.replace(five_bus, lines=(five_bus.lines[k],))
        g, b = admittance_by_lines(single)
        total_g += g
        total_b += b
    g, b = admittance_by_lines(five_bus)
    assert np.allclose(g, total_g)
    assert np.allclose(b, total_b)


# ---------------------------------------------------------------------------
# balance residuals: net injection minus the Y-bus injection


def test_residuals_vanish_at_flat_start(five_bus):
    p, q = bus_injections(*admittance_by_lines(five_bus), np.ones(5), np.zeros(5))
    assert np.allclose(np.zeros(5) - p, 0.0, atol=1e-12)
    assert np.allclose(np.zeros(5) - q, 0.0, atol=1e-12)


def test_residuals_two_bus_reference_transfer():
    p_net = 10.0 * math.sin(0.1)  # 0.99833 p.u.
    p, _ = bus_injections(*admittance_by_lines(_two_bus(0.0, 0.1)), [1.0, 1.0], [0.0, -0.1])
    assert np.max(np.abs(np.array([p_net, -p_net]) - p)) < 1e-9


def test_residual_locality_of_angle_perturbation():
    ybus = admittance_by_lines(_three_bus_chain())
    v = np.array([1.0, 1.01, 0.99])
    theta = np.array([0.0, 0.05, -0.02])
    base_p, base_q = bus_injections(*ybus, v, theta)
    bumped = theta.copy()
    bumped[2] += 0.01
    new_p, new_q = bus_injections(*ybus, v, bumped)
    # bus 3 only touches bus 2, so bus 1 residuals are unchanged
    assert new_p[0] == base_p[0]
    assert new_q[0] == base_q[0]
    assert new_p[1] != base_p[1]
    assert new_p[2] != base_p[2]


def test_residuals_small_at_converged_state(five_bus, five_bus_solution):
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
    p, q = bus_injections(*admittance_by_lines(five_bus), sol.v, sol.theta)
    assert max(np.max(np.abs(p_net - p)), np.max(np.abs(q_net - q))) < 1e-6


# ---------------------------------------------------------------------------
# line flows and losses


def _line_flow(case, v, theta, k):
    """Directed sendings (from->to, to->from) of line k in MW, one line and
    two bus-id scans at a time: the reference for ``line_flows``."""
    line = case.lines[k]
    g, b = series_admittance(line)
    i, j = case.bus_index(line.from_bus), case.bus_index(line.to_bus)
    p_ft = flow_p(*flow_state(v[i], v[j], theta[i], theta[j]), g, b)
    p_tf = flow_p(*flow_state(v[j], v[i], theta[j], theta[i]), g, b)
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
    sol = five_bus_solution
    p_inj, _ = bus_injections(*admittance_by_lines(five_bus), sol.v, sol.theta)
    total = float(np.sum(p_inj)) * five_bus.s_base
    assert total == pytest.approx(network_losses(five_bus, sol.v, sol.theta),
                                  abs=1e-8 * five_bus.s_base)


# ---------------------------------------------------------------------------
# per-line derivative primitives


def _flow_q(vi, vj, ti, tj, g, b):
    """The reactive sending flow in closed form."""
    dth = ti - tj
    return -vi * vi * b - vi * vj * (g * np.sin(dth) - b * np.cos(dth))


def _at_angles(kernel):
    """A flow kernel taking (vi, vj, ti, tj, g, b): the state of flow_state."""
    return lambda vi, vj, ti, tj, g, b: kernel(*flow_state(vi, vj, ti, tj), g, b)


def _rotated(kernel):
    """A flow_p kernel evaluated at the rotated admittance (-b, g)."""
    return lambda vi, vj, ti, tj, g, b: kernel(vi, vj, ti, tj, -b, g)


def _matrix(entries):
    """The distinct entries of flow_p_hess, placed by HESS_ENTRIES, as
    the (..., 4, 4) Hessian."""
    return np.moveaxis(entries[HESS_ENTRIES], (0, 1), (-2, -1))


@settings(deadline=None)
@given(data=st.data())
def test_flow_primitives_match_finite_differences(data):
    """flow_p at the rotated admittance is the reactive flow bit for bit,
    and the rotated gradient and Hessian are its derivatives in (vi, vj,
    ti, tj)."""
    g = data.draw(st.floats(0.0, 5.0))
    b = data.draw(st.floats(-20.0, -0.5))
    state = np.array([data.draw(st.floats(0.9, 1.1)),
                      data.draw(st.floats(0.9, 1.1)),
                      data.draw(st.floats(-0.4, 0.4)),
                      data.draw(st.floats(-0.4, 0.4))])
    value, grad_p, hess_p = map(_at_angles, (flow_p, flow_p_grad, flow_p_hess))
    assert value(*state, -b, g) == _flow_q(*state, g, b)

    for fun, grad_fun, hess_fun in ((value, grad_p, hess_p),
                                    (_flow_q, _rotated(grad_p), _rotated(hess_p))):
        grad = grad_fun(*state, g, b)
        hess = _matrix(hess_fun(*state, g, b))
        h = 1e-6
        for i in range(4):
            up, dn = state.copy(), state.copy()
            up[i] += h
            dn[i] -= h
            fd = (fun(*up, g, b) - fun(*dn, g, b)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=5e-7, rel=1e-6)
            fd_row = (grad_fun(*up, g, b) - grad_fun(*dn, g, b)) / (2 * h)
            assert np.allclose(hess[i], fd_row, atol=5e-6)


def _flow_p_hess_by_entries(vi, vj, ti, tj, g, b):
    """The Hessian of flow_p assigned entry by entry into a zeroed
    (..., 4, 4) array: the reference for ``flow_p_hess``."""
    dth = ti - tj
    ct, st = np.cos(dth), np.sin(dth)
    a = g * ct + b * st
    d = -g * st + b * ct
    h = np.zeros(np.broadcast(vi, vj, a).shape + (4, 4))
    h[..., 0, 0] = 2 * g
    h[..., 0, 1] = h[..., 1, 0] = -a
    h[..., 0, 2] = h[..., 2, 0] = -vj * d
    h[..., 0, 3] = h[..., 3, 0] = vj * d
    h[..., 1, 2] = h[..., 2, 1] = -vi * d
    h[..., 1, 3] = h[..., 3, 1] = vi * d
    h[..., 2, 2] = h[..., 3, 3] = vi * vj * a
    h[..., 2, 3] = h[..., 3, 2] = -vi * vj * a
    return h


@pytest.mark.parametrize("shape, expected", [
    ((), (9,)), ((7,), (9, 7)), ((2, 7), (9, 2, 7))])
def test_flow_p_hess_keeps_its_shapes_and_entries(shape, expected):
    """Scalar, (rows,) and (2, rows) arguments, and a mix of (1, rows)
    states with a (2, rows) admittance: 9 distinct entries on the first
    axis, which HESS_ENTRIES places into a symmetric matrix with the shape,
    bits and zero signs of the entry-by-entry form."""
    rng = np.random.default_rng(3)
    state = [rng.uniform(0.9, 1.1, shape), rng.uniform(0.9, 1.1, shape),
             rng.uniform(-0.4, 0.4, shape), rng.uniform(-0.4, 0.4, shape)]
    admittance = [rng.uniform(0.0, 5.0, shape), rng.uniform(-20.0, -0.5, shape)]
    if shape == ():
        state = [float(v) for v in state]
        admittance = [float(v) for v in admittance]
    assert flow_p_hess(*flow_state(*state), *admittance).shape == expected
    mixed = [np.atleast_1d(v)[None] for v in state], [np.stack([u, u]) for u in admittance]
    for angles, adm in ((state, admittance), mixed):
        hess = _matrix(flow_p_hess(*flow_state(*angles), *adm))
        reference = _flow_p_hess_by_entries(*angles, *adm)
        assert hess.shape == reference.shape
        assert np.array_equal(hess, reference)
        assert np.array_equal(np.signbit(hess), np.signbit(reference))
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
