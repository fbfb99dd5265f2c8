"""Satisfaction, inverse demand, generation cost, and the welfare objective."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sesopf.casemodel import Aggregator, Generator
from sesopf.welfare import (
    SatisfactionParams, gen_cost, inverse_demand, marginal_cost,
    marginal_satisfaction, normalized_satisfaction, satisfaction,
    social_objective,
)

from conftest import single_bus_case

params_st = st.builds(
    SatisfactionParams,
    gamma=st.floats(0.5, 100.0),
    mu=st.floats(1e-3, 10.0),
)


# ---------------------------------------------------------------------------
# satisfaction


def test_satisfaction_reference_values():
    assert satisfaction(SatisfactionParams(38.68, 0.045), 338.49) == \
        pytest.approx(10514.84, abs=5e-3)
    # saturated branch: p above gamma/mu = 114.94
    assert satisfaction(SatisfactionParams(10.0, 0.087), 133.99) == \
        pytest.approx(574.71, abs=5e-3)


def test_satisfaction_at_zero_and_negative():
    params = SatisfactionParams(5.0, 0.1)
    assert satisfaction(params, 0.0) == 0.0
    with pytest.raises(ValueError):
        satisfaction(params, -1.0)


def test_satisfaction_params_validation():
    with pytest.raises(ValueError):
        SatisfactionParams(0.0, 1.0)
    with pytest.raises(ValueError):
        SatisfactionParams(1.0, -1.0)
    assert SatisfactionParams(6.0, 2.0).saturation_point == 3.0


@given(params=params_st, data=st.data())
def test_satisfaction_concave_and_nondecreasing(params, data):
    hi = 2.0 * params.saturation_point
    p1 = data.draw(st.floats(0.0, hi))
    p2 = data.draw(st.floats(0.0, hi))
    lo, hi_p = min(p1, p2), max(p1, p2)
    u_lo, u_hi = satisfaction(params, lo), satisfaction(params, hi_p)
    assert u_hi >= u_lo - 1e-9 * max(1.0, abs(u_hi))
    mid = satisfaction(params, 0.5 * (lo + hi_p))
    assert mid >= 0.5 * (u_lo + u_hi) - 1e-9 * max(1.0, abs(mid))


@given(params=params_st, p=st.floats(0.0, 1e4))
def test_satisfaction_bounded_by_saturation_value(params, p):
    cap = 0.5 * params.gamma ** 2 / params.mu
    val = satisfaction(params, p)
    assert val <= cap + 1e-9 * cap
    if p >= params.saturation_point:
        assert val == pytest.approx(cap, rel=1e-12)
    else:
        assert val < cap


@given(params=params_st)
def test_satisfaction_is_smooth_at_the_saturation_point(params):
    sat = params.saturation_point
    eps = 1e-7 * max(1.0, sat)
    # one-sided slopes agree (both vanish) and values are continuous
    assert marginal_satisfaction(params, sat) == 0.0
    assert marginal_satisfaction(params, sat - eps) == pytest.approx(0.0, abs=1e-5 * params.gamma)
    assert satisfaction(params, sat - eps) == \
        pytest.approx(satisfaction(params, sat + eps), rel=1e-9)


# ---------------------------------------------------------------------------
# inverse demand


def test_inverse_demand_reference_values():
    params = SatisfactionParams(11.05, 0.016)
    assert inverse_demand(params, 0.0) == params.gamma
    assert inverse_demand(params, params.saturation_point) == pytest.approx(0.0)
    assert inverse_demand(params, 84.62) == pytest.approx(9.6961, abs=5e-5)


def test_inverse_demand_domain():
    params = SatisfactionParams(10.0, 1.0)
    with pytest.raises(ValueError):
        inverse_demand(params, -0.1)
    with pytest.raises(ValueError):
        inverse_demand(params, 10.1)


@given(params=params_st, data=st.data())
def test_inverse_demand_matches_satisfaction_slope(params, data):
    sat = params.saturation_point
    p = data.draw(st.floats(0.05 * sat, 0.95 * sat))
    h = 1e-7 * max(1.0, sat)
    fd = (satisfaction(params, p + h) - satisfaction(params, p - h)) / (2 * h)
    analytic = inverse_demand(params, p)
    assert abs(analytic - fd) <= 1e-8 * max(1.0, abs(analytic), abs(fd)) + 1e-7


@given(params=params_st, data=st.data())
def test_inverse_demand_decreasing(params, data):
    sat = params.saturation_point
    p1 = data.draw(st.floats(0.0, sat))
    p2 = data.draw(st.floats(0.0, sat))
    if p1 < p2:
        assert inverse_demand(params, p1) >= inverse_demand(params, p2)


# ---------------------------------------------------------------------------
# normalized satisfaction


def _agg21():
    return Aggregator(2, 15.0, 11.05, 0.016, 84.62, 42.0, 25.69, 13.81)


def test_normalized_satisfaction_reference_values():
    agg = _agg21()
    assert normalized_satisfaction(agg, agg.p_n) == 1.0
    assert normalized_satisfaction(agg, 42.0) == pytest.approx(0.5127, abs=5e-5)
    saturated = Aggregator(4, 105.0, 10.0, 0.087, 133.99, 66.5, 40.68, 21.86)
    assert normalized_satisfaction(saturated, 114.94) == pytest.approx(1.0, abs=1e-6)


@given(data=st.data())
def test_normalized_satisfaction_nondecreasing(data):
    agg = _agg21()
    p1 = data.draw(st.floats(0.0, 1.5 * agg.p_n))
    p2 = data.draw(st.floats(0.0, 1.5 * agg.p_n))
    if p1 <= p2:
        assert normalized_satisfaction(agg, p1) <= \
            normalized_satisfaction(agg, p2) + 1e-12


# ---------------------------------------------------------------------------
# generation cost


def test_gen_cost_reference_values():
    assert gen_cost(Generator(1, 2.0, 14.0, 60.0, 0, 40, -30, 30), 0.0) == 60.0
    assert gen_cost(Generator(5, 2.0, 10.0, 50.0, 0, 600, -450, 450), 100.0) == 21050.0
    assert gen_cost(Generator(3, 2.0, 30.0, 25.0, 0, 520, -390, 390), 1.0) == 57.0


@given(p=st.floats(0.0, 1e3), h=st.floats(1e-4, 1.0))
@example(p=812.1650423243923, h=1e-4)
def test_marginal_cost_is_cost_slope(p, h):
    gen = Generator(1, 2.0, 14.0, 60.0, 0.0, 1e3, 0.0, 0.0)
    c0, c1 = gen_cost(gen, p), gen_cost(gen, p + h)
    secant = (c1 - c0) / h
    # quadratic: secant equals the marginal at the interval midpoint, up to
    # the rounding of two costs near 1e6 $/h divided by a step as small as h
    rounding = 4 * np.finfo(float).eps * max(abs(c0), abs(c1)) / h
    assert secant == pytest.approx(marginal_cost(gen, p + 0.5 * h), rel=1e-9, abs=rounding)


# ---------------------------------------------------------------------------
# objective


def test_social_objective_at_zero(five_bus):
    w, sat, cost = social_objective(five_bus, np.zeros(7), np.zeros(5))
    assert sat == 0.0
    assert cost == pytest.approx(190.0)
    assert w == pytest.approx(-190.0)


def test_social_objective_at_normal_limits(five_bus):
    p_n = [a.p_n for a in five_bus.aggregators]
    _, sat, _ = social_objective(five_bus, p_n, np.zeros(5))
    assert sat == pytest.approx(39921.3, abs=0.05)


def test_social_objective_weighting():
    # sigma=2 aggregator saturated at U=5 against a constant-cost unit C=3
    gen = Generator(1, 0.0, 0.0, 3.0, 0.0, 50.0, 0.0, 0.0)
    agg = Aggregator(1, 2.0, 1.0, 0.1, 20.0, 0.0, 0.0, 0.0)
    case = single_bus_case(gen, agg)
    w, sat, cost = social_objective(case, [15.0], [0.0])
    assert sat == pytest.approx(5.0)
    assert cost == pytest.approx(3.0)
    assert w == pytest.approx(7.0)


def test_social_objective_dimension_checks(five_bus):
    with pytest.raises(ValueError):
        social_objective(five_bus, np.zeros(6), np.zeros(5))
    with pytest.raises(ValueError):
        social_objective(five_bus, np.zeros(7), np.zeros(4))
