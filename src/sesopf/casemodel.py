"""Domain types, case validation, built-in test systems, and SES scaling.

All case files and embedded data carry MW/MVAr; conversion to per-unit on
``s_base`` happens inside the numerical layers.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, fields, asdict, replace
from functools import cached_property
from itertools import chain
from operator import attrgetter
from types import SimpleNamespace

import numpy as np


@dataclass(frozen=True)
class Bus:
    id: int
    is_slack: bool = False
    v_min: float = 0.95
    v_max: float = 1.05


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r: float
    x: float
    s_max: float  # MW


@dataclass(frozen=True)
class Generator:
    bus: int
    a: float  # $/MW^2 h
    b: float  # $/MWh
    c: float  # $/h
    p_min: float
    p_max: float
    q_min: float
    q_max: float


@dataclass(frozen=True)
class Aggregator:
    bus: int
    sigma: float   # socioeconomic score, dimensionless weight
    gamma: float   # $/MWh
    mu: float      # $/MW^2 h
    p_n: float     # normal active demand, MW
    p_c: float     # critical active demand, MW
    q_n: float     # normal reactive demand, MVAr
    q_c: float     # critical reactive demand, MVAr


@dataclass(frozen=True)
class CaseData:
    name: str
    s_base: float
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    aggregators: tuple[Aggregator, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    @cached_property
    def _bus_positions(self) -> dict[int, int]:
        # reversed, so that a duplicate id keeps its first position
        return {bus.id: k for k, bus in reversed(tuple(enumerate(self.buses)))}

    def bus_index(self, bus_id: int) -> int:
        """Position of a bus id in ``buses``: the one bus id resolver that
        every layer calls."""
        try:
            return self._bus_positions[bus_id]
        except KeyError:
            raise KeyError(f"unknown bus id {bus_id}") from None

    @cached_property
    def view(self) -> SimpleNamespace:
        """The records as arrays, built on first use and read by every layer: per
        table a namespace of read-only float columns in case order (``view.lines.r``),
        and privately the values they were read from (``view._values["lines"]``)."""
        tables = {kind: _columns(getattr(self, kind), cls.__match_args__)
                  for kind, cls in _TABLES.items()}
        return SimpleNamespace(**{kind: table for kind, (_, table) in tables.items()},
                               _values={kind: values for kind, (values, _) in tables.items()})

    @cached_property
    def positions(self) -> SimpleNamespace:
        """The read-only bus positions of the generators, aggregators and line
        ends, from ``bus_index``: an unknown bus raises, so read after validation."""
        ids = [r.bus for r in self.generators + self.aggregators]
        ids += [ln.from_bus for ln in self.lines] + [ln.to_bus for ln in self.lines]
        at = np.fromiter(map(self.bus_index, ids), int, len(ids))
        at.flags.writeable = False
        ng, na, nl = len(self.generators), len(self.aggregators), len(self.lines)
        return SimpleNamespace(generators=at[:ng], aggregators=at[ng:ng + na],
                               line_from=at[ng + na:ng + na + nl], line_to=at[ng + na + nl:])


# the record class of each table, in validation order, and its fields' types
_TABLES = {"buses": Bus, "lines": Line, "generators": Generator, "aggregators": Aggregator}
_TYPES = {kind: [f.type for f in fields(cls)] for kind, cls in _TABLES.items()}


def _columns(records: tuple, names: tuple) -> tuple[list, SimpleNamespace]:
    """The values of the fields ``names`` (a record class's ``__match_args__``) of
    ``records``, record by record, from the one walk over them, and their columns,
    NaN where ``float()`` cannot read a value, which only a record built in Python holds."""
    values = list(chain.from_iterable(map(attrgetter(*names), records)))
    try:
        flat = np.fromiter(values, float, len(values))
    except (TypeError, ValueError, OverflowError):
        flat = np.fromiter(map(_number, values), float, len(values))
    table = flat.reshape(-1, len(names)).T.copy()
    table.flags.writeable = False
    return values, SimpleNamespace(**dict(zip(names, table)))


def _number(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _takes(t: type, kind: str) -> bool:
    """Whether ``validate_case`` takes a value of type t in a ``kind`` field: a float
    field what ``_check_type`` takes, an int field any real number but a bool (bus=1.0
    is bus 1), a bool field any real number or numpy bool; ``_check_type`` refuses the rest."""
    real = issubclass(t, _JSON_TYPES["float"] if kind == "float" else numbers.Real)
    return real and t is not bool or kind == "bool" and issubclass(t, (bool, np.bool_))


def _unknown(ids, known):
    """Where ``ids`` holds no bus id. ``known`` is the sorted bus ids, then NaN,
    which equals no id and keeps every ``searchsorted`` position in range."""
    return known[known.searchsorted(ids)] != ids


# validate_case's per-record rules by table, after each field's type and each float
# field's finiteness: the tag of record ``r`` at ``k``, then (rule, message) pairs, a
# rule mapping the columns and the known bus ids to a bool array, True where broken.
_RULES = {
    "buses": ("bus {r.id}", [
        (lambda t, known: ~((0 < t.v_min) & (t.v_min <= t.v_max)),
         "voltage limits must satisfy 0 < v_min <= v_max")]),
    "lines": ("line {r.from_bus}-{r.to_bus}", [
        (lambda t, known: t.from_bus == t.to_bus, "self loop"),
        (lambda t, known: _unknown(t.from_bus, known) | _unknown(t.to_bus, known),
         "references unknown bus"),
        (lambda t, known: t.x == 0, "zero reactance"),
        (lambda t, known: t.s_max <= 0, "nonpositive flow limit")]),
    "generators": ("generator {k} at bus {r.bus}", [
        (lambda t, known: _unknown(t.bus, known), "references unknown bus"),
        (lambda t, known: t.p_min > t.p_max, "p_min > p_max"),
        (lambda t, known: t.q_min > t.q_max, "q_min > q_max"),
        (lambda t, known: t.a < 0, "negative quadratic cost coefficient")]),
    "aggregators": ("aggregator {k} at bus {r.bus}", [
        (lambda t, known: _unknown(t.bus, known), "references unknown bus"),
        (lambda t, known: t.sigma < 0, "negative sigma"),
        (lambda t, known: (t.gamma <= 0) | (t.mu <= 0), "gamma and mu must be positive"),
        (lambda t, known: t.p_n <= 0, "normal demand must be positive"),
        (lambda t, known: ~((0 <= t.p_c) & (t.p_c <= t.p_n)),
         "active limits must satisfy 0 <= p_c <= p_n"),
        (lambda t, known: ~((0 <= t.q_c) & (t.q_c <= t.q_n)),
         "reactive limits must satisfy 0 <= q_c <= q_n")]),
}


def validate_case(case: CaseData) -> list[str]:
    """One message per violated invariant: the case-level checks, then per
    table each field's type (a value of the view's that ``_takes`` refuses, which
    only a case built in Python holds, gets ``_check_type``'s message), each float
    field's finiteness (JSON files may carry NaN and Infinity, which no range rule
    catches) and its ``_RULES``, each one array comparison on ``case.view``,
    reported record by record in field and rule order, then aggregators per bus
    and connectivity. Records are read only to word a message. No value raises."""
    out: list[str] = []
    view, known = case.view, np.sort(np.concatenate([case.view.buses.id, [np.nan]]))
    if (known[1:] == known[:-1]).any():
        out.append("duplicate bus ids")
    if not isinstance(case.s_base, numbers.Real) or isinstance(case.s_base, bool):
        out.append(f"s_base must be float, got {case.s_base!r}")
    elif not math.isfinite(case.s_base):
        out.append(f"s_base must be finite, got {case.s_base!r}")
    elif case.s_base <= 0:
        out.append("s_base must be positive")

    n_slack = np.count_nonzero(np.abs(view.buses.is_slack) > 0)  # NaN, an unread flag, is not set
    if n_slack == 0:
        out.append("no slack bus")
    elif n_slack > 1:
        out.append("multiple slack buses")

    for kind, (tag, rules) in _RULES.items():
        table, records, types = getattr(view, kind), getattr(case, kind), _TYPES[kind]
        names, values, mistyped = _TABLES[kind].__match_args__, view._values[kind], {}
        broken = np.concatenate([~np.isfinite([getattr(table, name) for name in names])
                                 & (np.array(types) == "float")[:, None],
                                 [rule(table, known) for rule, _ in rules]])
        refused = {(j, t) for j in range(len(names))
                   for t in set(map(type, values[j::len(names)])) if not _takes(t, types[j])}
        if refused:
            for (k, j), value in zip(np.ndindex(len(records), len(names)), values):
                if (j, type(value)) in refused:
                    try:
                        _check_type(tag.format(k=k, r=records[k]), names[j], value, types[j])
                    except ValueError as exc:
                        mistyped[k, j], broken[j, k] = str(exc), True
        if broken.any():
            messages = [f"{name} must be finite, got {{r.{name}!r}}" for name in names]
            messages += [message for _, message in rules]
            out += [mistyped.get((k, j)) or
                    f"{tag.format(k=k, r=records[k])}: {messages[j].format(r=records[k])}"
                    for k, j in np.argwhere(broken.T).tolist()]

    for d, n in sorted(Counter(view.aggregators.bus.tolist()).items()):
        if not 1 <= n <= 3:
            out.append(f"bus {d:.15g}: hosts {n} aggregators, expected 1-3")

    if case.buses and not _connected(case):
        out.append("network graph is not connected")
    return out


def _connected(case: CaseData) -> bool:
    """Whether the lines connect every bus, by ``case.view``'s ids (NaN where unread)."""
    buses, lines = case.view.buses, case.view.lines
    adj: dict[float, set[float]] = {bus_id: set() for bus_id in buses.id.tolist()}
    for f, t in zip(lines.from_bus.tolist(), lines.to_bus.tolist()):
        if f in adj and t in adj:
            adj[f].add(t)
            adj[t].add(f)
    seen = {next(iter(adj))}
    stack = list(seen)
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(case.buses)


def scale_ses(case: CaseData, factor: float) -> CaseData:
    """Return a copy with every aggregator sigma multiplied by ``factor``."""
    if not math.isfinite(factor):
        raise ValueError(f"SES scale factor must be finite, got {factor}")
    if factor <= 0:
        raise ValueError("SES scale factor must be positive")
    aggs = tuple(replace(a, sigma=a.sigma * factor) for a in case.aggregators)
    return replace(case, aggregators=aggs)


# ---------------------------------------------------------------------------
# built-in cases


def builtin_case(name: str) -> CaseData:
    if name == "five_bus":
        return _five_bus()
    if name == "rts24":
        return _rts24()
    raise KeyError(f"unknown built-in case '{name}' (expected five_bus or rts24)")


# Standard published PJM 5-bus electrical data; generator MW limits are
# uniformly derated to 92% so that total capacity (1407.6 MW) stays below the
# aggregate normal demand of 1410.39 MW (scarcity construction).
_FIVE_BUS_DERATE = 0.92

_FIVE_BUS_BRANCHES = [
    # from, to, r, x, s_max (event-reduced ratings)
    (1, 2, 0.00281, 0.0281, 200.0),
    (1, 4, 0.00304, 0.0304, 100.0),
    (1, 5, 0.00064, 0.0064, 120.0),
    (2, 3, 0.00108, 0.0108, 100.0),
    (3, 4, 0.00297, 0.0297, 150.0),
    (4, 5, 0.00297, 0.0297, 120.0),
]

_FIVE_BUS_GENS = [
    # bus, a, b, c, p_max (pre-derate), q_min, q_max
    (1, 2.0, 14.0, 60.0, 40.0, -30.0, 30.0),
    (1, 2.0, 15.0, 35.0, 170.0, -127.5, 127.5),
    (3, 2.0, 30.0, 25.0, 520.0, -390.0, 390.0),
    (4, 2.0, 40.0, 20.0, 200.0, -150.0, 150.0),
    (5, 2.0, 10.0, 50.0, 600.0, -450.0, 450.0),
]

_FIVE_BUS_AGGS = [
    # bus, sigma, gamma, mu, p_n, p_c, q_n, q_c
    (2, 15.0, 11.05, 0.016, 84.62, 42.00, 25.69, 13.81),
    (2, 85.0, 38.68, 0.045, 338.49, 168.00, 102.78, 55.22),
    (3, 56.0, 63.54, 0.066, 211.56, 105.00, 64.24, 34.51),
    (3, 32.0, 45.34, 0.034, 211.56, 105.00, 64.24, 34.51),
    (4, 100.0, 29.99, 0.089, 324.39, 161.00, 98.48, 52.92),
    (4, 77.0, 21.23, 0.024, 105.78, 52.50, 32.12, 17.26),
    (4, 105.0, 10.0, 0.087, 133.99, 66.50, 40.68, 21.86),
]


def _five_bus() -> CaseData:
    buses = tuple(Bus(id=i, is_slack=(i == 1)) for i in range(1, 6))
    lines = tuple(Line(f, t, r, x, s) for f, t, r, x, s in _FIVE_BUS_BRANCHES)
    gens = tuple(
        Generator(bus, a, b, c, 0.0, pmax * _FIVE_BUS_DERATE, qmin, qmax)
        for bus, a, b, c, pmax, qmin, qmax in _FIVE_BUS_GENS
    )
    aggs = tuple(Aggregator(*row) for row in _FIVE_BUS_AGGS)
    meta = {
        "note": "PJM 5-bus base data; line charging ignored (series-only model)",
        "p_max_derate": _FIVE_BUS_DERATE,
    }
    return CaseData("five_bus", 100.0, buses, lines, gens, aggs, meta)


# IEEE 24-bus reliability test system: standard topology, impedances, unit
# set and cost coefficients. Line ratings are reduced to a seeded random
# fraction in [15%, 80%] of original; aggregators are synthetic (seeded)
# following the scarcity construction rules.

_RTS24_BRANCHES = [
    # from, to, r, x, original rating (MW)
    (1, 2, 0.0026, 0.0139, 175.0),
    (1, 3, 0.0546, 0.2112, 175.0),
    (1, 5, 0.0218, 0.0845, 175.0),
    (2, 4, 0.0328, 0.1267, 175.0),
    (2, 6, 0.0497, 0.1920, 175.0),
    (3, 9, 0.0308, 0.1190, 175.0),
    (3, 24, 0.0023, 0.0839, 400.0),
    (4, 9, 0.0268, 0.1037, 175.0),
    (5, 10, 0.0228, 0.0883, 175.0),
    (6, 10, 0.0139, 0.0605, 175.0),
    (7, 8, 0.0159, 0.0614, 175.0),
    (8, 9, 0.0427, 0.1651, 175.0),
    (8, 10, 0.0427, 0.1651, 175.0),
    (9, 11, 0.0023, 0.0839, 400.0),
    (9, 12, 0.0023, 0.0839, 400.0),
    (10, 11, 0.0023, 0.0839, 400.0),
    (10, 12, 0.0023, 0.0839, 400.0),
    (11, 13, 0.0061, 0.0476, 500.0),
    (11, 14, 0.0054, 0.0418, 500.0),
    (12, 13, 0.0061, 0.0476, 500.0),
    (12, 23, 0.0124, 0.0966, 500.0),
    (13, 23, 0.0111, 0.0865, 500.0),
    (14, 16, 0.0050, 0.0389, 500.0),
    (15, 16, 0.0022, 0.0173, 500.0),
    (15, 21, 0.0063, 0.0490, 500.0),
    (15, 21, 0.0063, 0.0490, 500.0),
    (15, 24, 0.0067, 0.0519, 500.0),
    (16, 17, 0.0033, 0.0259, 500.0),
    (16, 19, 0.0030, 0.0231, 500.0),
    (17, 18, 0.0018, 0.0144, 500.0),
    (17, 22, 0.0135, 0.1053, 500.0),
    (18, 21, 0.0033, 0.0259, 500.0),
    (18, 21, 0.0033, 0.0259, 500.0),
    (19, 20, 0.0051, 0.0396, 500.0),
    (19, 20, 0.0051, 0.0396, 500.0),
    (20, 23, 0.0028, 0.0216, 500.0),
    (20, 23, 0.0028, 0.0216, 500.0),
    (21, 22, 0.0087, 0.0678, 500.0),
]

# Unit classes: (a, b, c, p_min, p_max, q_min, q_max)
_RTS24_UNITS = {
    "U12": (0.328412, 56.564, 86.3852, 2.4, 12.0, 0.0, 6.0),
    "U20": (0.0, 130.0, 400.6849, 4.0, 20.0, 0.0, 10.0),
    "U50": (0.0, 0.001, 0.001, 0.0, 50.0, -10.0, 16.0),
    "U76": (0.014142, 16.0811, 212.3076, 15.2, 76.0, -25.0, 30.0),
    "U100": (0.052672, 43.6615, 781.521, 25.0, 100.0, 0.0, 60.0),
    "U155": (0.008342, 12.3883, 382.2391, 54.25, 155.0, -50.0, 80.0),
    "U197": (0.00717, 48.5804, 832.7575, 68.95, 197.0, 0.0, 80.0),
    "U350": (0.004895, 11.8495, 665.1094, 140.0, 350.0, -25.0, 150.0),
    "U400": (0.000213, 4.4231, 395.3749, 100.0, 400.0, -50.0, 200.0),
    "SyncCond": (0.0, 0.0, 0.0, 0.0, 0.0, -50.0, 200.0),
}

_RTS24_GEN_SITES = [
    (1, "U20", 2), (1, "U76", 2),
    (2, "U20", 2), (2, "U76", 2),
    (7, "U100", 3),
    (13, "U197", 3),
    (14, "SyncCond", 1),
    (15, "U12", 5), (15, "U155", 1),
    (16, "U155", 1),
    (18, "U400", 1),
    (21, "U400", 1),
    (22, "U50", 6),
    (23, "U155", 2), (23, "U350", 1),
]

# Bus loads of the RTS (MW); demand buses only.
_RTS24_LOADS = {
    1: 108.0, 2: 97.0, 3: 180.0, 4: 74.0, 5: 71.0, 6: 136.0, 7: 125.0,
    8: 171.0, 9: 175.0, 10: 195.0, 13: 265.0, 14: 194.0, 15: 317.0,
    16: 100.0, 18: 333.0, 19: 181.0, 20: 128.0,
}

# Seed chosen because the default solver converges on the congestion pattern
# it samples (31 iterations). Of seeds 0-7, only seed 7 also converges (56
# iterations); seeds 0-6 stop at iteration_limit after 200 iterations with
# final violations from 5.5e-4 to 0.22. None of them is proven infeasible.
RTS24_SEED = 2025


def _rts24(seed: int = RTS24_SEED) -> CaseData:
    """The 24-bus case with its line ratings and aggregators drawn from
    ``seed``; ``builtin_case("rts24")`` is the default seed's."""
    rng = np.random.default_rng(seed)
    buses = tuple(Bus(id=i, is_slack=(i == 13)) for i in range(1, 25))

    # Ratings reduced into [15%, 80%] of original to induce congestion.
    fracs = rng.uniform(0.15, 0.80, size=len(_RTS24_BRANCHES))
    lines = tuple(
        Line(f, t, r, x, round(rate * frac, 2))
        for (f, t, r, x, rate), frac in zip(_RTS24_BRANCHES, fracs)
    )

    gens = []
    for bus, unit, count in _RTS24_GEN_SITES:
        a, b, c, pmin, pmax, qmin, qmax = _RTS24_UNITS[unit]
        gens.extend(Generator(bus, a, b, c, pmin, pmax, qmin, qmax)
                    for _ in range(count))
    gens = tuple(gens)

    p_cap = sum(g.p_max for g in gens)
    q_cap = sum(g.q_max for g in gens)
    total_load = sum(_RTS24_LOADS.values())
    # Normal demands scaled above total generation capacity (scarcity rule);
    # reactive normals likewise exceed total reactive capability.
    p_scale = 1.06 * p_cap / total_load
    q_ratio = 1.05 * q_cap / (p_scale * total_load)

    aggs = []
    for bus_id in sorted(_RTS24_LOADS):
        p_total = _RTS24_LOADS[bus_id] * p_scale
        n_agg = int(rng.integers(2, 4))
        shares = rng.uniform(0.5, 1.5, size=n_agg)
        shares /= shares.sum()
        for share in shares:
            p_n = round(p_total * share, 2)
            p_c = round(0.496 * p_n, 2)
            q_n = round(q_ratio * p_n, 2)
            q_c = round(0.537 * q_n, 2)
            sigma = round(rng.uniform(10.0, 110.0), 1)
            gamma = round(rng.uniform(10.0, 65.0), 2)
            saturation = p_n * rng.uniform(1.2, 2.5)
            mu = round(gamma / saturation, 5)
            aggs.append(Aggregator(bus_id, sigma, gamma, mu, p_n, p_c, q_n, q_c))
    aggs = tuple(aggs)

    meta = {
        "note": "IEEE 24-bus RTS topology; synthetic seeded aggregators; "
                "line charging ignored (series-only model)",
        "aggregator_seed": seed,
        "rating_fraction_range": [0.15, 0.80],
    }
    return CaseData("rts24", 100.0, buses, lines, gens, aggs, meta)


# ---------------------------------------------------------------------------
# case file I/O (JSON, MW/MVAr units)

# by field type: the types json.load gives a value that _check_type accepts
_JSON_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float)}


def case_to_dict(case: CaseData) -> dict:
    return {"name": case.name, "s_base": case.s_base,
            **{kind: [asdict(r) for r in getattr(case, kind)] for kind in _TABLES},
            "metadata": case.metadata}


def case_from_dict(doc: dict) -> CaseData:
    """Build a case from its file form; a malformed document raises
    ValueError naming the bad entry."""
    if not isinstance(doc, dict):
        raise ValueError("a case file must hold a JSON object")
    _check_type("case", "s_base", doc.get("s_base"), "float")
    return CaseData(doc.get("name", "unnamed"), float(doc["s_base"]),
                    *(_entries(doc, kind, cls) for kind, cls in _TABLES.items()),
                    doc.get("metadata", {}))


def _entries(doc: dict, key: str, cls) -> tuple:
    """``doc[key]`` as ``cls`` records, every field present and known."""
    rows = doc.get(key)
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError(f"case needs '{key}' as a list of objects")
    typed = [(f.name, _JSON_TYPES.get(f.type, ()), f.type) for f in fields(cls)]
    out = []
    for k, row in enumerate(rows):
        try:
            out.append(cls(**row))
        except TypeError as exc:
            raise ValueError(f"{key}[{k}]: {exc}") from None
        for name, exact, kind in typed:
            value = getattr(out[-1], name)
            if type(value) not in exact:  # a float subclass, say, or a wrong type
                _check_type(f"{key}[{k}]", name, value, kind)
    return tuple(out)


def _check_type(tag: str, name: str, value, kind: str) -> None:
    """A bool field needs true or false; an int or float field needs a JSON
    number, which true and false are not."""
    expected = _JSON_TYPES.get(kind)
    if expected and (not isinstance(value, expected)
                     or (isinstance(value, bool) and kind != "bool")):
        raise ValueError(f"{tag}: {name} must be {kind}, got {value!r}")


def save_case(case: CaseData, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(case_to_dict(case), indent=2) + "\n")


def load_case(path) -> CaseData:
    with open(path) as fh:
        return case_from_dict(json.load(fh))
