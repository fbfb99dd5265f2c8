"""The welfare terms one record at a time, in scalar arithmetic: the oracle
that the tests hold the vectorized functions of ``sesopf.welfare`` to.

Each function takes an ``Aggregator`` or ``Generator`` (or anything with
its gamma and mu, or a, b and c) and a demand or output in MW, and
evaluates the term with the operations, in the order, that the vectorized
form applies elementwise, so the two agree bit for bit.
"""

from sesopf.casemodel import CaseData


def satisfaction(agg, p: float) -> float:
    """U(p) in $/h: gamma*p - 0.5*mu*p^2 below gamma/mu, gamma^2/(2 mu) from it on."""
    if p >= agg.gamma / agg.mu:
        return 0.5 * (agg.gamma * agg.gamma) / agg.mu
    return agg.gamma * p - 0.5 * agg.mu * p * p


def marginal_satisfaction(agg, p: float) -> float:
    """U'(p), the inverse demand gamma - mu*p below gamma/mu and 0 from it on."""
    if p >= agg.gamma / agg.mu:
        return 0.0
    return agg.gamma - agg.mu * p


def normalized_satisfaction(agg, p: float) -> float:
    return satisfaction(agg, p) / satisfaction(agg, agg.p_n)


def gen_cost(gen, p: float) -> float:
    return gen.a * p * p + gen.b * p + gen.c


def marginal_cost(gen, p: float) -> float:
    return 2.0 * gen.a * p + gen.b


def social_objective(case: CaseData, p_agg, p_gen) -> tuple[float, float, float]:
    """(sum(sigma * U) - sum(C), sum(U), sum(C)), summed record by record."""
    sats = [satisfaction(a, float(p)) for a, p in zip(case.aggregators, p_agg, strict=True)]
    cost = sum(gen_cost(g, float(p)) for g, p in zip(case.generators, p_gen, strict=True))
    weighted = sum(a.sigma * s for a, s in zip(case.aggregators, sats))
    return weighted - cost, sum(sats), cost
