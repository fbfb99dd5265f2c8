"""Satisfaction, inverse demand, generation cost, and the welfare objective:
the vectorized terms of ``sesopf.welfare``, held to the scalar oracle of
``welfare_oracle`` and to reference values."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sesopf.casemodel import Aggregator, CaseData, Generator
from sesopf.welfare import (
    gen_cost, marginal_cost, marginal_satisfaction, normalized_satisfaction,
    satisfaction, social_objective, welfare_coefficients,
)

import welfare_oracle as oracle
from conftest import single_bus_case, welfare_of


def _agg(gamma, mu, sigma=1.0, p_n=1.0):
    return Aggregator(1, sigma, gamma, mu, p_n, 0.0, 0.0, 0.0)


def _gen(a, b, c):
    return Generator(1, a, b, c, 0.0, 1e3, 0.0, 0.0)


params_st = st.builds(_agg, gamma=st.floats(0.5, 100.0), mu=st.floats(1e-3, 10.0))


def _u(agg, p):
    """Vectorized U of one aggregator at one demand, as a float."""
    return float(satisfaction(welfare_of([agg]), np.array([p]))[0])


def _du(agg, p):
    return float(marginal_satisfaction(welfare_of([agg]), np.array([p]))[0])


def _bits(values):
    """The float64 bit patterns of values, sign bits included."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# the vectorized terms against the scalar oracle


@st.composite
def _demand(draw, agg):
    """A demand on either side of the aggregator's kink gamma/mu, at it, or
    one float step away from it."""
    kink = agg.gamma / agg.mu
    return draw(st.one_of(st.just(kink), st.just(np.nextafter(kink, 0.0)),
                          st.just(np.nextafter(kink, np.inf)),
                          st.floats(0.0, kink), st.floats(kink, 3.0 * kink)))


@st.composite
def _records(draw):
    aggs = draw(st.lists(st.builds(_agg, gamma=st.floats(0.5, 100.0), mu=st.floats(1e-3, 10.0),
                                   sigma=st.floats(0.0, 3.0), p_n=st.floats(1.0, 500.0)),
                         min_size=1, max_size=12))
    gens = draw(st.lists(st.builds(_gen, a=st.floats(0.0, 1.0), b=st.floats(0.0, 50.0),
                                   c=st.floats(0.0, 100.0)), min_size=1, max_size=12))
    p_agg = [draw(_demand(a)) for a in aggs]
    p_gen = draw(st.lists(st.floats(0.0, 1e3), min_size=len(gens), max_size=len(gens)))
    return aggs, gens, np.array(p_agg), np.array(p_gen)


@given(_records())
def test_vectorized_terms_match_the_scalar_oracle(records):
    aggs, gens, p_agg, p_gen = records
    coef = welfare_of(aggs, gens)
    unsaturated = p_agg < coef.kink
    for vectorized, scalar, records_, p, extra in (
            (satisfaction, oracle.satisfaction, aggs, p_agg, ()),
            (satisfaction, oracle.satisfaction, aggs, p_agg, (unsaturated,)),
            (marginal_satisfaction, oracle.marginal_satisfaction, aggs, p_agg, ()),
            (marginal_satisfaction, oracle.marginal_satisfaction, aggs, p_agg, (unsaturated,)),
            (normalized_satisfaction, oracle.normalized_satisfaction, aggs, p_agg, ()),
            (gen_cost, oracle.gen_cost, gens, p_gen, ()),
            (marginal_cost, oracle.marginal_cost, gens, p_gen, ())):
        expected = [scalar(r, float(q)) for r, q in zip(records_, p)]
        assert _bits(vectorized(coef, p, *extra)) == _bits(expected), vectorized.__name__


@given(_records())
def test_social_objective_matches_the_scalar_oracle(records):
    aggs, gens, p_agg, p_gen = records
    case = CaseData("records", 100.0, (), (), tuple(gens), tuple(aggs))
    got = social_objective(welfare_coefficients(case), p_agg, p_gen)
    want = oracle.social_objective(case, p_agg, p_gen)
    # every term is nonnegative, and only the order of the sums may differ,
    # so each total is within rounding of the sum of all of them
    weighted_sat, sat, cost = want[0] + want[2], want[1], want[2]
    tol = 1e-12 * (weighted_sat + sat + cost + 1.0)
    assert all(abs(g - w) <= tol for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# satisfaction


def test_satisfaction_reference_values():
    assert _u(_agg(38.68, 0.045), 338.49) == pytest.approx(10514.84, abs=5e-3)
    # saturated branch: p above gamma/mu = 114.94
    assert _u(_agg(10.0, 0.087), 133.99) == pytest.approx(574.71, abs=5e-3)


def test_satisfaction_at_zero():
    assert _u(_agg(5.0, 0.1), 0.0) == 0.0


@given(params=params_st, data=st.data())
def test_satisfaction_concave_and_nondecreasing(params, data):
    hi = 2.0 * params.gamma / params.mu
    p1 = data.draw(st.floats(0.0, hi))
    p2 = data.draw(st.floats(0.0, hi))
    lo, hi_p = min(p1, p2), max(p1, p2)
    u_lo, u_hi = _u(params, lo), _u(params, hi_p)
    assert u_hi >= u_lo - 1e-9 * max(1.0, abs(u_hi))
    mid = _u(params, 0.5 * (lo + hi_p))
    assert mid >= 0.5 * (u_lo + u_hi) - 1e-9 * max(1.0, abs(mid))


@given(params=params_st, p=st.floats(0.0, 1e4))
def test_satisfaction_bounded_by_saturation_value(params, p):
    cap = 0.5 * params.gamma ** 2 / params.mu
    val = _u(params, p)
    assert val <= cap + 1e-9 * cap
    if p >= params.gamma / params.mu:
        assert val == pytest.approx(cap, rel=1e-12)
    else:
        assert val < cap


@given(params=params_st)
def test_satisfaction_is_smooth_at_the_saturation_point(params):
    sat = params.gamma / params.mu
    eps = 1e-7 * max(1.0, sat)
    # one-sided slopes agree (both vanish) and values are continuous
    assert _du(params, sat) == 0.0
    assert _du(params, sat - eps) == pytest.approx(0.0, abs=1e-5 * params.gamma)
    assert _u(params, sat - eps) == pytest.approx(_u(params, sat + eps), rel=1e-9)


# ---------------------------------------------------------------------------
# inverse demand: the marginal satisfaction below the saturation point


def test_inverse_demand_reference_values():
    params = _agg(11.05, 0.016)
    assert _du(params, 0.0) == params.gamma
    assert _du(params, params.gamma / params.mu) == 0.0
    assert _du(params, 84.62) == pytest.approx(9.6961, abs=5e-5)


@given(params=params_st, data=st.data())
def test_inverse_demand_matches_satisfaction_slope(params, data):
    sat = params.gamma / params.mu
    p = data.draw(st.floats(0.05 * sat, 0.95 * sat))
    h = 1e-7 * max(1.0, sat)
    fd = (_u(params, p + h) - _u(params, p - h)) / (2 * h)
    analytic = _du(params, p)
    assert abs(analytic - fd) <= 1e-8 * max(1.0, abs(analytic), abs(fd)) + 1e-7


@given(params=params_st, data=st.data())
def test_inverse_demand_decreasing(params, data):
    sat = params.gamma / params.mu
    p1 = data.draw(st.floats(0.0, sat))
    p2 = data.draw(st.floats(0.0, sat))
    if p1 < p2:
        assert _du(params, p1) >= _du(params, p2)


# ---------------------------------------------------------------------------
# normalized satisfaction


def _agg21():
    return Aggregator(2, 15.0, 11.05, 0.016, 84.62, 42.0, 25.69, 13.81)


def _norm(agg, p):
    return float(normalized_satisfaction(welfare_of([agg]), np.array([p]))[0])


def test_normalized_satisfaction_reference_values():
    agg = _agg21()
    assert _norm(agg, agg.p_n) == 1.0
    assert _norm(agg, 42.0) == pytest.approx(0.5127, abs=5e-5)
    saturated = Aggregator(4, 105.0, 10.0, 0.087, 133.99, 66.5, 40.68, 21.86)
    assert _norm(saturated, 114.94) == pytest.approx(1.0, abs=1e-6)


@given(data=st.data())
def test_normalized_satisfaction_nondecreasing(data):
    agg = _agg21()
    p1 = data.draw(st.floats(0.0, 1.5 * agg.p_n))
    p2 = data.draw(st.floats(0.0, 1.5 * agg.p_n))
    if p1 <= p2:
        assert _norm(agg, p1) <= _norm(agg, p2) + 1e-12


# ---------------------------------------------------------------------------
# generation cost


def test_gen_cost_reference_values():
    gens = [Generator(1, 2.0, 14.0, 60.0, 0, 40, -30, 30),
            Generator(5, 2.0, 10.0, 50.0, 0, 600, -450, 450),
            Generator(3, 2.0, 30.0, 25.0, 0, 520, -390, 390)]
    assert gen_cost(welfare_of(generators=gens), np.array([0.0, 100.0, 1.0])).tolist() == \
        [60.0, 21050.0, 57.0]


@given(p=st.floats(0.0, 1e3), h=st.floats(1e-4, 1.0))
@example(p=812.1650423243923, h=1e-4)
def test_marginal_cost_is_cost_slope(p, h):
    coef = welfare_of(generators=[Generator(1, 2.0, 14.0, 60.0, 0.0, 1e3, 0.0, 0.0)])
    c0, c1 = (float(gen_cost(coef, np.array([q]))[0]) for q in (p, p + h))
    secant = (c1 - c0) / h
    # quadratic: secant equals the marginal at the interval midpoint, up to
    # the rounding of two costs near 1e6 $/h divided by a step as small as h
    rounding = 4 * np.finfo(float).eps * max(abs(c0), abs(c1)) / h
    assert secant == pytest.approx(float(marginal_cost(coef, np.array([p + 0.5 * h]))[0]),
                                   rel=1e-9, abs=rounding)


# ---------------------------------------------------------------------------
# objective


def test_social_objective_at_zero(five_bus):
    w, sat, cost = social_objective(welfare_coefficients(five_bus), np.zeros(7), np.zeros(5))
    assert sat == 0.0
    assert cost == pytest.approx(190.0)
    assert w == pytest.approx(-190.0)


def test_social_objective_at_normal_limits(five_bus):
    p_n = [a.p_n for a in five_bus.aggregators]
    _, sat, _ = social_objective(welfare_coefficients(five_bus), p_n, np.zeros(5))
    assert sat == pytest.approx(39921.3, abs=0.05)


def test_social_objective_weighting():
    # sigma=2 aggregator saturated at U=5 against a constant-cost unit C=3
    gen = Generator(1, 0.0, 0.0, 3.0, 0.0, 50.0, 0.0, 0.0)
    agg = Aggregator(1, 2.0, 1.0, 0.1, 20.0, 0.0, 0.0, 0.0)
    case = single_bus_case(gen, agg)
    w, sat, cost = social_objective(welfare_coefficients(case), [15.0], [0.0])
    assert sat == pytest.approx(5.0)
    assert cost == pytest.approx(3.0)
    assert w == pytest.approx(7.0)


def test_social_objective_dimension_checks(five_bus):
    coef = welfare_coefficients(five_bus)
    with pytest.raises(ValueError):
        social_objective(coef, np.zeros(6), np.zeros(5))
    with pytest.raises(ValueError):
        social_objective(coef, np.zeros(7), np.zeros(4))
