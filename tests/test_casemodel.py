"""Case data types, validation, built-in systems, SES scaling, and I/O."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sesopf import casemodel
from sesopf.casemodel import (
    Aggregator, Bus, CaseData, Generator, Line,
    builtin_case, case_from_dict, case_to_dict,
    load_case, save_case, scale_ses, validate_case,
)

from conftest import single_bus_case, toy_case


# ---------------------------------------------------------------------------
# validation


def test_builtin_cases_validate_clean():
    for name in ("five_bus", "rts24"):
        assert validate_case(builtin_case(name)) == []


def test_unknown_builtin_raises():
    with pytest.raises(KeyError):
        builtin_case("nine_bus")


def test_validate_flags_inverted_demand_limits(five_bus):
    bad = dataclasses.replace(
        five_bus.aggregators[0], p_c=five_bus.aggregators[0].p_n + 1.0)
    case = dataclasses.replace(
        five_bus, aggregators=(bad,) + five_bus.aggregators[1:])
    report = validate_case(case)
    assert len(report) == 1
    assert "aggregator 0" in report[0] and "p_c <= p_n" in report[0]


@pytest.mark.parametrize("p_n", [0.0, -1.0])
def test_validate_flags_nonpositive_normal_demand(five_bus, p_n):
    """p_c = p_n = 0 passes the ordering check, but normalized satisfaction
    divides by the satisfaction at p_n, so it is rejected up front."""
    bad = dataclasses.replace(five_bus.aggregators[0], p_n=p_n, p_c=0.0)
    case = dataclasses.replace(
        five_bus, aggregators=(bad,) + five_bus.aggregators[1:])
    report = validate_case(case)
    assert f"aggregator 0 at bus {bad.bus}: normal demand must be positive" in report


def test_validate_flags_multiple_slack_buses(five_bus):
    buses = tuple(dataclasses.replace(b, is_slack=True) for b in five_bus.buses[:2])
    case = dataclasses.replace(five_bus, buses=buses + five_bus.buses[2:])
    assert "multiple slack buses" in validate_case(case)


def test_validate_flags_missing_slack(five_bus):
    buses = tuple(dataclasses.replace(b, is_slack=False) for b in five_bus.buses)
    case = dataclasses.replace(five_bus, buses=buses)
    assert "no slack bus" in validate_case(case)


def test_validate_flags_disconnected_graph(five_bus):
    case = dataclasses.replace(five_bus, lines=five_bus.lines[:2])
    assert "network graph is not connected" in validate_case(case)


def test_validate_flags_zero_reactance(five_bus):
    bad = dataclasses.replace(five_bus.lines[0], x=0.0)
    case = dataclasses.replace(five_bus, lines=(bad,) + five_bus.lines[1:])
    assert any("zero reactance" in msg for msg in validate_case(case))


def test_validate_flags_unknown_bus_reference(five_bus):
    bad = dataclasses.replace(five_bus.generators[0], bus=99)
    case = dataclasses.replace(five_bus, generators=(bad,) + five_bus.generators[1:])
    assert any("unknown bus" in msg for msg in validate_case(case))


def test_validate_flags_overcrowded_demand_bus(five_bus):
    extra = five_bus.aggregators[-1]
    case = dataclasses.replace(
        five_bus, aggregators=five_bus.aggregators + (extra,))
    assert any("expected 1-3" in msg for msg in validate_case(case))


def _with(case, kind, k, **changes):
    """case with record k of ``kind`` ("buses", "lines", ...) changed."""
    records = list(getattr(case, kind))
    records[k] = dataclasses.replace(records[k], **changes)
    return dataclasses.replace(case, **{kind: tuple(records)})


# one corruption of five_bus per check of validate_case, with every message
# it produces
CORRUPTIONS = {
    "duplicate_bus_id": (lambda c: dataclasses.replace(c, buses=c.buses + (Bus(5),)),
                         ["duplicate bus ids", "network graph is not connected"]),
    "zero_s_base": (lambda c: dataclasses.replace(c, s_base=0.0),
                    ["s_base must be positive"]),
    "voltage_limits": (lambda c: _with(c, "buses", 2, v_min=1.1),
                       ["bus 3: voltage limits must satisfy 0 < v_min <= v_max"]),
    "self_loop": (lambda c: _with(c, "lines", 0, to_bus=1), ["line 1-1: self loop"]),
    "line_unknown_bus": (lambda c: _with(c, "lines", 0, to_bus=99),
                         ["line 1-99: references unknown bus"]),
    "zero_flow_limit": (lambda c: _with(c, "lines", 0, s_max=0.0),
                        ["line 1-2: nonpositive flow limit"]),
    "p_min_above_p_max": (lambda c: _with(c, "generators", 0, p_min=50.0),
                          ["generator 0 at bus 1: p_min > p_max"]),
    "q_min_above_q_max": (lambda c: _with(c, "generators", 0, q_min=31.0),
                          ["generator 0 at bus 1: q_min > q_max"]),
    "negative_a": (lambda c: _with(c, "generators", 0, a=-1.0),
                   ["generator 0 at bus 1: negative quadratic cost coefficient"]),
    "aggregator_unknown_bus": (lambda c: _with(c, "aggregators", 0, bus=99),
                               ["aggregator 0 at bus 99: references unknown bus"]),
    "negative_sigma": (lambda c: _with(c, "aggregators", 0, sigma=-1.0),
                       ["aggregator 0 at bus 2: negative sigma"]),
    "reactive_limits": (lambda c: _with(c, "aggregators", 0, q_c=30.0),
                        ["aggregator 0 at bus 2: reactive limits must satisfy "
                         "0 <= q_c <= q_n"]),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_validate_names_each_violation(five_bus, name):
    corrupt, messages = CORRUPTIONS[name]
    assert validate_case(corrupt(five_bus)) == messages


# ---------------------------------------------------------------------------
# five-bus reference data


def test_five_bus_reference_rows(five_bus):
    agg = five_bus.aggregators[1]  # the second aggregator at bus 2
    assert agg.bus == 2
    assert agg.sigma == 85.0
    assert agg.gamma == 38.68
    assert agg.mu == 0.045
    assert agg.p_n == 338.49
    assert agg.p_c == 168.00

    line_14 = next(ln for ln in five_bus.lines
                   if {ln.from_bus, ln.to_bus} == {1, 4})
    assert line_14.s_max == 100.0
    assert [a.gamma for a in five_bus.aggregators if a.bus == 4] == [29.99, 21.23, 10.0]


def test_five_bus_demand_column_sums(five_bus):
    assert sum(a.p_n for a in five_bus.aggregators) == pytest.approx(1410.39)
    assert sum(a.p_c for a in five_bus.aggregators) == pytest.approx(700.00)
    assert sum(a.q_n for a in five_bus.aggregators) == pytest.approx(428.23)


def test_five_bus_is_a_scarcity_case(five_bus):
    total_pn = sum(a.p_n for a in five_bus.aggregators)
    total_pc = sum(a.p_c for a in five_bus.aggregators)
    total_cap = sum(g.p_max for g in five_bus.generators)
    assert total_pc < total_cap < total_pn


def test_five_bus_shape(five_bus):
    assert len(five_bus.buses) == 5
    assert len(five_bus.lines) == 6
    assert len(five_bus.generators) == 5
    assert len(five_bus.aggregators) == 7
    assert all(g.a == 2.0 for g in five_bus.generators)


# ---------------------------------------------------------------------------
# 24-bus synthetic case


def test_rts24_shape_and_scarcity(rts24):
    assert len(rts24.buses) == 24
    assert len(rts24.lines) == 38
    total_pn = sum(a.p_n for a in rts24.aggregators)
    total_cap = sum(g.p_max for g in rts24.generators)
    assert total_pn >= total_cap


def test_rts24_sigma_range_and_bus_occupancy(rts24):
    assert all(10.0 <= a.sigma <= 110.0 for a in rts24.aggregators)
    demand_buses = {a.bus for a in rts24.aggregators}
    for bus in demand_buses:
        assert 2 <= sum(a.bus == bus for a in rts24.aggregators) <= 3


def test_rts24_ratings_reduced(rts24):
    originals = {(1, 2): 175.0, (3, 24): 400.0, (11, 13): 500.0}
    for ln in rts24.lines:
        key = (ln.from_bus, ln.to_bus)
        if key in originals:
            frac = ln.s_max / originals[key]
            assert 0.15 - 1e-9 <= frac <= 0.80 + 1e-9


def test_rts24_generation_is_deterministic():
    a = builtin_case("rts24")
    b = builtin_case("rts24")
    assert a.lines == b.lines
    assert a.aggregators == b.aggregators


def test_rts24_seed_is_a_parameter():
    """The builder draws from its seed argument, RTS24_SEED by default, and
    records the seed it drew from."""
    default = builtin_case("rts24")
    assert default == casemodel._rts24(casemodel.RTS24_SEED)
    assert default.metadata["aggregator_seed"] == casemodel.RTS24_SEED == 2025
    other = casemodel._rts24(7)
    assert other.metadata["aggregator_seed"] == 7
    assert other.lines != default.lines
    assert other == casemodel._rts24(7)


# ---------------------------------------------------------------------------
# SES scaling


def test_scale_ses_identity(five_bus):
    scaled = scale_ses(five_bus, 1.0)
    assert [a.sigma for a in scaled.aggregators] == \
        [a.sigma for a in five_bus.aggregators]


def test_scale_ses_reference_value(five_bus):
    scaled = scale_ses(five_bus, 0.4)
    assert scaled.aggregators[4].bus == 4
    assert scaled.aggregators[4].sigma == pytest.approx(40.0)


def test_scale_ses_rejects_nonpositive(five_bus):
    """A NaN or infinite factor is named as such, before any sigma is
    scaled to a non-finite value."""
    for factor in (0.0, -1.0):
        with pytest.raises(ValueError, match="^SES scale factor must be positive$"):
            scale_ses(five_bus, factor)
    for factor in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^SES scale factor must be finite, got {factor}$"):
            scale_ses(five_bus, factor)


def test_scale_ses_leaves_input_unmodified(five_bus):
    before = [a.sigma for a in five_bus.aggregators]
    scale_ses(five_bus, 2.0)
    assert [a.sigma for a in five_bus.aggregators] == before


@given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0))
def test_scale_ses_composes_multiplicatively(a, b):
    case = toy_case()
    left = scale_ses(scale_ses(case, a), b)
    right = scale_ses(case, a * b)
    for la, ra in zip(left.aggregators, right.aggregators):
        assert la.sigma == pytest.approx(ra.sigma, rel=1e-12)


# ---------------------------------------------------------------------------
# bus demand


def test_bus_demand_empty_bus(five_bus):
    assert {a.bus for a in five_bus.aggregators} == {2, 3, 4}


def test_bus_demand_reference_sums(five_bus):
    assert sum(a.p_n for a in five_bus.aggregators if a.bus == 4) == pytest.approx(564.16)
    assert sum(a.p_c for a in five_bus.aggregators if a.bus == 3) == pytest.approx(210.00)


def test_bus_index_keeps_the_first_of_a_duplicate_id():
    """The resolver works on an unvalidated case: a duplicate id maps to its
    first position, as a scan from the front finds it."""
    case = CaseData("dup", 100.0, (Bus(7, is_slack=True), Bus(3), Bus(7), Bus(5)),
                    (), (), ())
    assert [case.bus_index(i) for i in (7, 3, 5)] == [0, 1, 3]
    with pytest.raises(KeyError, match="unknown bus id 4"):
        case.bus_index(4)


# ---------------------------------------------------------------------------
# file I/O


def test_case_json_round_trip(tmp_path, five_bus):
    path = tmp_path / "five_bus.json"
    save_case(five_bus, path)
    loaded = load_case(path)
    assert loaded.buses == five_bus.buses
    assert loaded.lines == five_bus.lines
    assert loaded.generators == five_bus.generators
    assert loaded.aggregators == five_bus.aggregators
    assert loaded.s_base == five_bus.s_base


def test_case_dict_round_trip_survives_json(rts24):
    doc = json.loads(json.dumps(case_to_dict(rts24)))
    again = case_from_dict(doc)
    assert again.aggregators == rts24.aggregators
    assert again.lines == rts24.lines


@pytest.mark.parametrize("key, k, change, message", [
    ("buses", 0, {"v_min": "0.9"}, "buses[0]: v_min must be float, got '0.9'"),
    ("buses", 3, {"is_slack": 1}, "buses[3]: is_slack must be bool, got 1"),
    ("buses", 3, {"id": True}, "buses[3]: id must be int, got True"),
    ("generators", 7, {"p_max": False}, "generators[7]: p_max must be float, got False"),
    ("aggregators", 0, {"bus": 3.5, "sigma": "x"}, "aggregators[0]: bus must be int, got 3.5"),
    ("lines", 5, {"extra": 1},
     "lines[5]: Line.__init__() got an unexpected keyword argument 'extra'"),
])
def test_malformed_entry_is_named(rts24, key, k, change, message):
    """The first bad field of the first bad entry, in field order."""
    doc = case_to_dict(rts24)
    doc[key][k] = {**doc[key][k], **change}
    with pytest.raises(ValueError) as info:
        case_from_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("key, cls", [("buses", Bus), ("lines", Line),
                                      ("generators", Generator), ("aggregators", Aggregator)])
def test_loader_accepts_what_check_type_accepts(five_bus, key, cls):
    """The loader tests a value's exact JSON type first and calls
    ``_check_type`` only for the others, so every field of every kind takes
    or refuses a value, float subclasses and numpy scalars included, with
    the message that ``_check_type`` alone gives."""
    for f in dataclasses.fields(cls):
        for value in (True, 1, 1.5, np.float64(1.5), "1", None, np.int64(1), np.bool_(True)):
            doc = case_to_dict(five_bus)
            doc[key][1] = {**doc[key][1], f.name: value}
            try:
                casemodel._check_type(f"{key}[1]", f.name, value, f.type)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    case_from_dict(doc)
                assert str(info.value) == str(exc)
            else:
                assert getattr(getattr(case_from_dict(doc), key)[1], f.name) is value


def test_single_bus_case_is_valid():
    case = single_bus_case(
        Generator(1, 1.0, 0.0, 0.0, 0.0, 10.0, -5.0, 5.0),
        Aggregator(1, 1.0, 10.0, 1.0, 8.0, 0.0, 2.0, 0.0))
    assert validate_case(case) == []
