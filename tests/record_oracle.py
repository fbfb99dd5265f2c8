"""A case's records one at a time, in scalar arithmetic: the oracle that the
tests hold ``CaseData.view`` and its readers to.

``validate_case`` checks record by record with one ``if`` per rule, in the
order that ``sesopf.casemodel.validate_case`` reports, and walks the lines
for connectivity itself: it calls nothing of the package's; the other functions
build, one record at a time, the arrays that ``Problem``, the welfare
coefficients and ``acnetwork.line_arrays`` read from the view, with the
operations that the array forms apply elementwise, so the two agree bit for
bit.
"""

import math
import numbers
from collections import Counter
from dataclasses import fields

import numpy as np

from sesopf.casemodel import CaseData, Line


def series_admittance(line: Line) -> tuple[float, float]:
    """Series conductance and susceptance g + jb = 1/(r + jx)."""
    d = line.r * line.r + line.x * line.x
    if d == 0:
        raise ValueError(f"line {line.from_bus}-{line.to_bus} has r = x = 0")
    return line.r / d, -line.x / d


def line_arrays(case: CaseData):
    """(from bus index, to bus index, g, b) of every line, line by line."""
    i = np.array([case.bus_index(ln.from_bus) for ln in case.lines], dtype=int)
    j = np.array([case.bus_index(ln.to_bus) for ln in case.lines], dtype=int)
    series = [series_admittance(ln) for ln in case.lines]
    g = np.array([gb[0] for gb in series], dtype=float)
    b = np.array([gb[1] for gb in series], dtype=float)
    return i, j, g, b


def bounds(case: CaseData):
    """(lb, ub) in the layout order of ``Problem``: P_g, Q_g, P_a, Q_a, v,
    then the free angles."""
    sb, gens, aggs, nb = case.s_base, case.generators, case.aggregators, len(case.buses)
    lb = np.array([*(g.p_min / sb for g in gens), *(g.q_min / sb for g in gens),
                   *(a.p_c / sb for a in aggs), *(a.q_c / sb for a in aggs),
                   *(b.v_min for b in case.buses), *[-np.inf] * (nb - 1)], dtype=float)
    ub = np.array([*(g.p_max / sb for g in gens), *(g.q_max / sb for g in gens),
                   *(a.p_n / sb for a in aggs), *(a.q_n / sb for a in aggs),
                   *(b.v_max for b in case.buses), *[np.inf] * (nb - 1)], dtype=float)
    return lb, ub


def smax2(case: CaseData):
    """Every line's limit in p.u., once per direction."""
    return np.array([ln.s_max / case.s_base for ln in case.lines] * 2, dtype=float)


def welfare_coefficients(case: CaseData) -> tuple:
    """The fields of ``sesopf.welfare.WelfareCoefficients``, in order."""
    sigma, gamma, mu, p_n = np.array(
        [(r.sigma, r.gamma, r.mu, r.p_n) for r in case.aggregators], dtype=float).reshape(-1, 4).T
    a, b, c = np.array([(r.a, r.b, r.c) for r in case.generators], dtype=float).reshape(-1, 3).T
    return (sigma, gamma, mu, p_n, gamma / mu, 0.5 * mu, 0.5 * gamma ** 2 / mu, a, b, c, 2.0 * a)


def _field_messages(tag: str, record) -> list[str]:
    """One message per field of ``record``, in field order, that is an int field
    holding no integral number (bus=1.0 is bus 1, bus=1.5 no bus) or a float
    field holding NaN or an infinity."""
    out = []
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type == "int" and not (isinstance(value, numbers.Integral)
                                    or math.isfinite(value) and value == math.floor(value)):
            out.append(f"{tag}: {f.name} must be int, got {value!r}")
        elif f.type == "float" and not math.isfinite(value):
            out.append(f"{tag}: {f.name} must be finite, got {value!r}")
    return out


def validate_case(case: CaseData) -> list[str]:
    """Every violation of ``sesopf.casemodel.validate_case``'s invariants,
    record by record."""
    out: list[str] = []
    bus_ids = [b.id for b in case.buses]
    if len(set(bus_ids)) != len(bus_ids):
        out.append("duplicate bus ids")
    if not isinstance(case.s_base, (int, float, np.integer, np.floating)) \
            or isinstance(case.s_base, bool):
        out.append(f"s_base must be float, got {case.s_base!r}")
    elif not math.isfinite(case.s_base):
        out.append(f"s_base must be finite, got {case.s_base!r}")
    elif case.s_base <= 0:
        out.append("s_base must be positive")

    n_slack = sum(1 for b in case.buses if b.is_slack)
    if n_slack == 0:
        out.append("no slack bus")
    elif n_slack > 1:
        out.append("multiple slack buses")

    for b in case.buses:
        out += _field_messages(f"bus {b.id}", b)
        if not (0 < b.v_min <= b.v_max):
            out.append(f"bus {b.id}: voltage limits must satisfy 0 < v_min <= v_max")

    known = set(bus_ids)
    for ln in case.lines:
        tag = f"line {ln.from_bus}-{ln.to_bus}"
        out += _field_messages(tag, ln)
        if ln.from_bus == ln.to_bus:
            out.append(f"{tag}: self loop")
        if ln.from_bus not in known or ln.to_bus not in known:
            out.append(f"{tag}: references unknown bus")
        if ln.x == 0:
            out.append(f"{tag}: zero reactance")
        if ln.s_max <= 0:
            out.append(f"{tag}: nonpositive flow limit")

    for k, g in enumerate(case.generators):
        tag = f"generator {k} at bus {g.bus}"
        out += _field_messages(tag, g)
        if g.bus not in known:
            out.append(f"{tag}: references unknown bus")
        if g.p_min > g.p_max:
            out.append(f"{tag}: p_min > p_max")
        if g.q_min > g.q_max:
            out.append(f"{tag}: q_min > q_max")
        if g.a < 0:
            out.append(f"{tag}: negative quadratic cost coefficient")

    for k, a in enumerate(case.aggregators):
        tag = f"aggregator {k} at bus {a.bus}"
        out += _field_messages(tag, a)
        if a.bus not in known:
            out.append(f"{tag}: references unknown bus")
        if a.sigma < 0:
            out.append(f"{tag}: negative sigma")
        if a.gamma <= 0 or a.mu <= 0:
            out.append(f"{tag}: gamma and mu must be positive")
        if a.p_n <= 0:
            out.append(f"{tag}: normal demand must be positive")
        if not 0 <= a.p_c <= a.p_n:
            out.append(f"{tag}: active limits must satisfy 0 <= p_c <= p_n")
        if not 0 <= a.q_c <= a.q_n:
            out.append(f"{tag}: reactive limits must satisfy 0 <= q_c <= q_n")

    for d, n in sorted(Counter(a.bus for a in case.aggregators).items()):
        if not 1 <= n <= 3:
            out.append(f"bus {d}: hosts {n} aggregators, expected 1-3")

    if case.buses and not _connected(case):
        out.append("network graph is not connected")
    return out


def _connected(case: CaseData) -> bool:
    """Whether the lines join every bus: from the first bus, sweep the lines
    until no sweep reaches a new bus. A line with an end at no bus joins
    nothing, and a duplicate bus id is one bus, so the count falls short."""
    known = {b.id for b in case.buses}
    reached, grew = {case.buses[0].id}, True
    while grew:
        grew = False
        for ln in case.lines:
            if ln.from_bus in known and ln.to_bus in known \
                    and (ln.from_bus in reached) != (ln.to_bus in reached):
                reached |= {ln.from_bus, ln.to_bus}
                grew = True
    return len(reached) == len(case.buses)
