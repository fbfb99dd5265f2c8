"""Case data types, validation, built-in systems, SES scaling, and I/O."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import record_oracle
from sesopf import casemodel
from sesopf.acnetwork import line_arrays
from sesopf.casemodel import (
    Aggregator, Bus, CaseData, Generator, Line,
    builtin_case, case_from_dict, case_to_dict,
    load_case, save_case, scale_ses, validate_case,
)
from sesopf.formulation import Problem, build_problem
from sesopf.welfare import welfare_coefficients

from conftest import (
    single_bus_case, three_bus_copper_case, toy_case, two_bus_copper_case, with_parallel_lines,
)


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
    "s_base_no_number": (lambda c: dataclasses.replace(c, s_base=[100.0]),
                         ["s_base must be finite, got [100.0]"]),
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


@pytest.mark.parametrize("value", ["1.5", None, "abc", [1.0]])
def test_validate_names_a_float_field_that_holds_no_number(five_bus, value):
    """A record built in Python can hold what no case file can: a str that
    the view reads as a number, or None, a str or a list that it reads as
    NaN. Each is a violation with the loader's message, in that field's
    place among the record's violations, and the others keep their order."""
    case = _with(_with(five_bus, "generators", 0, a=value, c=math.nan), "lines", 0, to_bus=1)
    assert validate_case(case) == [
        "line 1-1: self loop",
        f"generator 0 at bus 1: a must be float, got {value!r}",
        "generator 0 at bus 1: c must be finite, got nan"]


@pytest.mark.parametrize("kind, k, changes, messages", [
    ("generators", 0, {"bus": "1"}, ["generator 0 at bus 1: bus must be int, got '1'"]),
    ("generators", 0, {"bus": True}, ["generator 0 at bus True: bus must be int, got True"]),
    ("aggregators", 0, {"bus": [2], "sigma": -1.0},
     ["aggregator 0 at bus [2]: bus must be int, got [2]",
      "aggregator 0 at bus [2]: references unknown bus",
      "aggregator 0 at bus [2]: negative sigma"]),
    ("lines", 0, {"to_bus": None, "x": 0.0},
     ["line 1-None: to_bus must be int, got None", "line 1-None: references unknown bus",
      "line 1-None: zero reactance"]),
    ("buses", 1, {"is_slack": "yes", "v_min": 2.0},
     ["bus 2: is_slack must be bool, got 'yes'",
      "bus 2: voltage limits must satisfy 0 < v_min <= v_max"]),
    ("buses", 0, {"is_slack": None}, ["no slack bus", "bus 1: is_slack must be bool, got None"]),
])
def test_validate_names_an_id_or_flag_that_holds_no_number(five_bus, kind, k, changes, messages):
    """An id that is no real number, or is a bool, and a flag that is no
    number are violations with the loader's message, in the field's place
    before the record's rule messages; an id or flag the view cannot read
    is NaN there, which references no bus and sets no flag. build_problem
    refuses such a case instead of failing on the id."""
    case = _with(five_bus, kind, k, **changes)
    assert validate_case(case) == messages
    with pytest.raises(ValueError, match="^invalid case: "):
        build_problem(case)


@pytest.mark.parametrize("kind, changes", [
    ("generators", {"bus": 1.0}), ("generators", {"bus": np.int64(1)}),
    ("lines", {"from_bus": np.float64(1.0), "to_bus": np.int32(2)}),
    ("aggregators", {"bus": np.uint8(2)}), ("buses", {"id": np.int64(1), "is_slack": 1}),
    ("buses", {"is_slack": np.True_}), ("generators", {"a": np.float64(2.0), "b": 14})])
def test_validate_takes_every_real_id_and_flag(five_bus, kind, changes):
    """Python and numpy ints and floats stay valid ids and flags."""
    assert validate_case(_with(five_bus, kind, 0, **changes)) == []


# the corruptions that the validation property draws: each takes a case and
# hypothesis's draw function and returns the corrupted case
_TABLES = {"buses": Bus, "lines": Line, "generators": Generator, "aggregators": Aggregator}
_BUS_REFS = {"lines": ("from_bus", "to_bus"), "generators": ("bus",), "aggregators": ("bus",)}
_EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, -1.0, 1.0]


def _float_value(case, draw):
    """A float field of a record set to NaN, +-inf, a value at or beside 0,
    or a value at or one ulp beside another float field of the record: both
    sides of every range rule."""
    kind = draw(st.sampled_from([k for k in _TABLES if getattr(case, k)]))
    k = draw(st.integers(0, len(getattr(case, kind)) - 1))
    names = [f.name for f in dataclasses.fields(_TABLES[kind]) if f.type == "float"]
    other = getattr(getattr(case, kind)[k], draw(st.sampled_from(names)))
    value = draw(st.sampled_from(_EDGE_VALUES + [other, math.nextafter(other, math.inf),
                                                 math.nextafter(other, -math.inf)]))
    return _with(case, kind, k, **{draw(st.sampled_from(names)): value})


def _bus_ref(case, draw):
    """A bus reference set to a known id or to an unknown one."""
    kind = draw(st.sampled_from([k for k in _BUS_REFS if getattr(case, k)]))
    k = draw(st.integers(0, len(getattr(case, kind)) - 1))
    ids = [b.id for b in case.buses] + [0, -1, 99]
    return _with(case, kind, k, **{draw(st.sampled_from(_BUS_REFS[kind])): draw(st.sampled_from(ids))})


def _self_loop(case, draw):
    k = draw(st.integers(0, len(case.lines) - 1))
    return _with(case, "lines", k, to_bus=case.lines[k].from_bus)


def _duplicate_id(case, draw):
    j, k = draw(st.lists(st.integers(0, len(case.buses) - 1), min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        return _with(case, "buses", k, id=case.buses[j].id)
    return dataclasses.replace(case, buses=case.buses + (case.buses[j],))


def _four_aggregators(case, draw):
    """Copies of an aggregator appended until its bus hosts 4."""
    if not case.aggregators:
        return case
    agg = draw(st.sampled_from(case.aggregators))
    extra = 4 - sum(a.bus == agg.bus for a in case.aggregators)
    return dataclasses.replace(case, aggregators=case.aggregators + (agg,) * max(extra, 0))


def _no_aggregators(case, draw):
    """Every aggregator at one bus removed: that bus hosts 0."""
    if not case.aggregators:
        return case
    bus = draw(st.sampled_from(sorted({a.bus for a in case.aggregators})))
    return dataclasses.replace(
        case, aggregators=tuple(a for a in case.aggregators if a.bus != bus))


def _removed_line(case, draw):
    """One line removed; on rts24 line 7-8 is bus 7's only line."""
    k = draw(st.integers(0, len(case.lines) - 1))
    return dataclasses.replace(case, lines=case.lines[:k] + case.lines[k + 1:])


def _s_base(case, draw):
    return dataclasses.replace(case, s_base=draw(st.sampled_from(_EDGE_VALUES)))


_CORRUPT = [_float_value, _bus_ref, _self_loop, _duplicate_id, _four_aggregators,
            _no_aggregators, _removed_line, _s_base]


@given(data=st.data())
def test_validation_reports_as_the_record_oracle(data, five_bus, rts24):
    """One to three random corruptions of five_bus or rts24: the rules on
    the view report the per-record oracle's messages, text and order."""
    case = data.draw(st.sampled_from([five_bus, rts24]))
    for _ in range(data.draw(st.integers(1, 3))):
        case = data.draw(st.sampled_from(_CORRUPT))(case, data.draw)
    assert validate_case(case) == record_oracle.validate_case(case)


# ---------------------------------------------------------------------------
# the array view of the records


def _single_bus():
    return single_bus_case(Generator(1, 1.0, 0.0, 0.0, 0.0, 10.0, -5.0, 5.0),
                           Aggregator(1, 1.0, 10.0, 1.0, 8.0, 0.0, 2.0, 0.0))


_VIEW_CASES = {
    "five_bus": lambda: builtin_case("five_bus"), "rts24": lambda: builtin_case("rts24"),
    **{f"rts24_seed{seed}": (lambda seed=seed: casemodel._rts24(seed)) for seed in range(8)},
    "five_bus_parallel": lambda: with_parallel_lines(builtin_case("five_bus")),
    "single_bus": _single_bus, "toy": toy_case,
    "two_bus_copper": two_bus_copper_case, "three_bus_copper": three_bus_copper_case,
}


def _same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", _VIEW_CASES)
def test_the_view_holds_every_record_field_bit_for_bit(name):
    """Premise: each column of the view is its field of every record, in
    case order, as a contiguous read-only float64 array; the positions are
    ``bus_index`` of each generator, aggregator and line end."""
    case = _VIEW_CASES[name]()
    for kind, cls in _TABLES.items():
        table = getattr(case.view, kind)
        assert list(vars(table)) == [f.name for f in dataclasses.fields(cls)]
        for f in dataclasses.fields(cls):
            column = getattr(table, f.name)
            assert column.flags.c_contiguous and not column.flags.writeable
            _same_bits(column, np.array([float(getattr(r, f.name))
                                         for r in getattr(case, kind)], dtype=float))
    at = case.positions
    for actual, ids in ((at.generators, [g.bus for g in case.generators]),
                        (at.aggregators, [a.bus for a in case.aggregators]),
                        (at.line_from, [ln.from_bus for ln in case.lines]),
                        (at.line_to, [ln.to_bus for ln in case.lines])):
        assert not actual.flags.writeable
        _same_bits(actual, np.array([case.bus_index(i) for i in ids], dtype=int))


@pytest.mark.parametrize("name", _VIEW_CASES)
def test_the_readers_of_the_view_equal_the_record_oracle(name):
    """``Problem``'s bounds, admittances and line limits, the welfare
    coefficients, the line arrays and the copper-plate oracle's bounds (the
    view's p_c, p_min and p_max) equal their per-record forms bit for bit."""
    case = _VIEW_CASES[name]()
    problem = Problem(case)
    for actual, expected in zip((problem.lb, problem.ub), record_oracle.bounds(case)):
        _same_bits(actual, expected)
    _same_bits(problem._smax2, record_oracle.smax2(case))
    i, j, g, b = record_oracle.line_arrays(case)
    g, b = np.concatenate([g, g]), np.concatenate([b, b])
    _same_bits(problem._gb, np.array([[g, -b], [b, g]]))
    for actual, expected in zip(line_arrays(case), record_oracle.line_arrays(case)):
        _same_bits(actual, expected)
    for actual, expected in zip(welfare_coefficients(case), record_oracle.welfare_coefficients(case)):
        _same_bits(actual, expected)
    _same_bits(case.view.aggregators.p_c, np.array([a.p_c for a in case.aggregators]))
    _same_bits(case.view.generators.p_min, np.array([g.p_min for g in case.generators]))
    _same_bits(case.view.generators.p_max, np.array([g.p_max for g in case.generators]))


def test_the_view_is_built_once_per_case(five_bus):
    """Cached on the case; a replaced case gets a view of its own records."""
    case = builtin_case("five_bus")
    assert case.view is case.view and case.positions is case.positions
    scaled = scale_ses(case, 2.0)
    assert scaled.view is not case.view
    _same_bits(scaled.view.aggregators.sigma, 2.0 * case.view.aggregators.sigma)


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


@pytest.mark.parametrize("buses", [{}, [1], "x"])
def test_a_table_that_is_no_list_of_objects_is_named(five_bus, buses):
    doc = {**case_to_dict(five_bus), "buses": buses}
    with pytest.raises(ValueError) as info:
        case_from_dict(doc)
    assert str(info.value) == "case needs 'buses' as a list of objects"


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


def test_a_case_without_buses_names_every_bus_reference_unknown():
    """Validation reports, as the record oracle does, on a case with no bus
    at all, where no id is known."""
    case = dataclasses.replace(_single_bus(), buses=(), lines=(Line(1, 2, 0.0, 0.1, 1.0),))
    assert validate_case(case) == record_oracle.validate_case(case) == [
        "no slack bus", "line 1-2: references unknown bus",
        "generator 0 at bus 1: references unknown bus",
        "aggregator 0 at bus 1: references unknown bus"]


def test_single_bus_case_is_valid():
    case = single_bus_case(
        Generator(1, 1.0, 0.0, 0.0, 0.0, 10.0, -5.0, 5.0),
        Aggregator(1, 1.0, 10.0, 1.0, 8.0, 0.0, 2.0, 0.0))
    assert validate_case(case) == []
