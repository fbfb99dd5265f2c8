"""The welfare terms, elementwise over arrays of a case's aggregators or
generators: satisfaction U(p) = gamma*p - 0.5*mu*p^2 up to the saturation
point gamma/mu and gamma^2/(2 mu) from it on, its marginal U'(p) (the
inverse demand, 0 from the saturation point on), generation cost
C(p) = a*p^2 + b*p + c and its marginal C'(p) = 2a*p + b.

Each function reads the ``WelfareCoefficients`` of a case, built once by
``welfare_coefficients``; the last axis of p runs over the aggregators or
the generators. ``Problem.objective`` and ``objective_gradient``, the run
metrics and the copper-plate oracle all evaluate these terms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .casemodel import CaseData


class WelfareCoefficients(NamedTuple):
    """The welfare coefficients of a case, one entry per aggregator or
    generator in case order, with the derived constants that every
    evaluation reads computed once."""
    sigma: np.ndarray    # SES score, the aggregator's weight
    gamma: np.ndarray    # $/MWh
    mu: np.ndarray       # $/MW^2 h
    p_n: np.ndarray      # normal active demand, MW
    kink: np.ndarray     # gamma/mu, the demand (MW) where satisfaction saturates
    half_mu: np.ndarray  # mu/2
    cap: np.ndarray      # gamma^2/(2 mu), the saturated satisfaction, $/h
    a: np.ndarray        # $/MW^2 h
    b: np.ndarray        # $/MWh
    c: np.ndarray        # $/h
    two_a: np.ndarray    # 2a, the slope of the marginal cost


def welfare_coefficients(case: CaseData) -> WelfareCoefficients:
    sigma, gamma, mu, p_n = np.array(
        [(r.sigma, r.gamma, r.mu, r.p_n) for r in case.aggregators], dtype=float).reshape(-1, 4).T
    a, b, c = np.array([(r.a, r.b, r.c) for r in case.generators], dtype=float).reshape(-1, 3).T
    return WelfareCoefficients(sigma, gamma, mu, p_n, gamma / mu, 0.5 * mu,
                               0.5 * gamma ** 2 / mu, a, b, c, 2.0 * a)


def satisfaction(coef: WelfareCoefficients, p, unsaturated=None):
    """U(p) in $/h at demands p (MW). ``unsaturated`` is p < coef.kink,
    formed here if not given."""
    if unsaturated is None:
        unsaturated = p < coef.kink
    return np.where(unsaturated, coef.gamma * p - coef.half_mu * p * p, coef.cap)


def marginal_satisfaction(coef: WelfareCoefficients, p, unsaturated=None):
    """U'(p) in $/MWh at demands p (MW), 0 from the saturation point on."""
    if unsaturated is None:
        unsaturated = p < coef.kink
    return np.where(unsaturated, coef.gamma - coef.mu * p, 0.0)


def gen_cost(coef: WelfareCoefficients, p):
    """C(p) in $/h at outputs p (MW)."""
    return coef.a * p * p + coef.b * p + coef.c


def marginal_cost(coef: WelfareCoefficients, p):
    """C'(p) in $/MWh at outputs p (MW)."""
    return coef.two_a * p + coef.b


def normalized_satisfaction(coef: WelfareCoefficients, p):
    """U(p) relative to U(p_n), the satisfaction at the normal limit."""
    return satisfaction(coef, p) / satisfaction(coef, coef.p_n)


def social_objective(coef: WelfareCoefficients, p_agg, p_gen) -> tuple[float, float, float]:
    """(weighted_objective, total_satisfaction, total_cost) at the MW
    demands p_agg and outputs p_gen, one each per aggregator and generator.

    weighted_objective = sum(sigma * U) - sum(C), summed as
    ``Problem.objective`` sums it, so the two agree bit for bit at the same
    point; total_satisfaction is the unweighted sum of satisfactions.
    Social welfare as reported elsewhere is total_satisfaction - total_cost.
    """
    p_agg = np.asarray(p_agg, dtype=float)
    p_gen = np.asarray(p_gen, dtype=float)
    if p_agg.shape != coef.sigma.shape:
        raise ValueError("p_agg length must match the aggregator count")
    if p_gen.shape != coef.a.shape:
        raise ValueError("p_gen length must match the generator count")
    sat = satisfaction(coef, p_agg)
    cost = gen_cost(coef, p_gen).sum()
    return float((coef.sigma * sat).sum() - cost), float(sat.sum()), float(cost)
