"""Metrics, SES sweep, and file emission."""

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sesopf import formulation, harness
from sesopf.casemodel import case_to_dict, save_case, scale_ses
from sesopf.formulation import Problem, build_problem
from sesopf.harness import (
    compute_metrics, emit, run_solve, ses_sweep, solve_document, sweep_points, sweep_rows,
    write_result,
)
from sesopf.solver import SolverOptions, kkt_check

import welfare_oracle as oracle


@pytest.fixture(scope="module")
def five_bus_run(five_bus):
    return run_solve(five_bus)


@pytest.fixture(scope="module")
def small_sweep(five_bus):
    return ses_sweep(five_bus, 90.0, 110.0, 10.0)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_welfare_identity(five_bus_run):
    _, metrics = five_bus_run
    assert metrics.social_welfare == \
        metrics.total_satisfaction - metrics.total_cost


def test_metrics_recompute_from_primal_values(five_bus, five_bus_run):
    solution, metrics = five_bus_run
    w, sat, cost = oracle.social_objective(five_bus, solution.p_agg, solution.p_gen)
    assert metrics.total_satisfaction == pytest.approx(sat, rel=1e-9)
    assert metrics.total_cost == pytest.approx(cost, rel=1e-9)
    assert metrics.weighted_objective == pytest.approx(w, rel=1e-9)
    # both sum the one definition's terms in the same order
    assert metrics.weighted_objective == solution.objective


def test_metrics_normalized_satisfaction_range(five_bus, five_bus_run):
    _, metrics = five_bus_run
    assert len(metrics.normalized_satisfaction) == 7
    for agg, value in zip(five_bus.aggregators, metrics.normalized_satisfaction):
        floor = oracle.normalized_satisfaction(agg, agg.p_c)
        assert floor - 1e-9 <= value <= 1.0 + 1e-9


def test_metrics_curtailment_consistency(five_bus, five_bus_run):
    solution, metrics = five_bus_run
    per = metrics.curtailment
    p_n = np.array([a.p_n for a in five_bus.aggregators])
    assert np.array_equal(per, p_n - solution.p_agg)
    assert np.all(per >= -1e-4)
    assert metrics.total_curtailment_mw == pytest.approx(float(np.sum(per)), rel=1e-12)
    # the curtailed demand, not the network losses that balance adds to it
    assert metrics.total_curtailment_mw == pytest.approx(p_n.sum() - float(np.sum(solution.p_agg)))
    assert metrics.total_curtailment_mw == pytest.approx(449.98, abs=0.01)
    assert metrics.losses_mw == pytest.approx(2.05, abs=0.01)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_point_count_and_ordering(small_sweep):
    assert len(small_sweep.records) == 3
    pcts = [r.scale_pct for r in small_sweep.records]
    assert pcts == [90.0, 100.0, 110.0]
    assert all(r.status == "converged" for r in small_sweep.records)


def test_sweep_invalid_range(five_bus):
    """Empty, endless and meaningless ranges and solver options raise
    before any point is solved."""
    for from_pct, to_pct, step_pct in ((100.0, 50.0, 2.0), (10.0, 50.0, 0.0),
                                       (10.0, math.inf, 2.0), (math.nan, 50.0, 2.0),
                                       (10.0, 50.0, math.nan), (10.0, 50.0, math.inf),
                                       (10.0, 150.0, 1e-300), (1e300, 1e300, 1.0)):
        with pytest.raises(ValueError):
            ses_sweep(five_bus, from_pct, to_pct, step_pct)
    for options in ({"max_iter": -3}, {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}):
        with pytest.raises(ValueError):
            ses_sweep(five_bus, 100.0, 100.0, 2.0, SolverOptions(**options))


@pytest.mark.parametrize("from_pct, to_pct, step_pct", [
    (1e300, 1e300, 1.0), (10.0, 150.0, 1e-300), (10.0, 10.0, 1e-16)])
def test_a_step_that_does_not_move_the_start_is_rejected_before_any_point(
        monkeypatch, from_pct, to_pct, step_pct):
    """The rejection names the step and rounds no point, where listing the
    100,001 points of (1e300, 1e300, 1) took seconds."""
    rounded = []

    def counted(*args):
        rounded.append(args)
        return round(*args)
    monkeypatch.setattr(harness, "round", counted, raising=False)
    with pytest.raises(ValueError, match=f"sweep step {step_pct!r} does not move"):
        sweep_points(from_pct, to_pct, step_pct)
    assert rounded == []
    assert sweep_points(10.0, 14.0, 2.0) == [10.0, 12.0, 14.0]
    assert len(rounded) == 3


def test_a_range_of_more_than_max_sweep_points_is_rejected_before_any_point(monkeypatch):
    """(1, 100001, 1) would list 100,001 points and is refused with no point
    rounded; (1, 100000, 1) lists its 100,000."""
    rounded = []
    monkeypatch.setattr(harness, "round", lambda *args: rounded.append(args), raising=False)
    assert harness.MAX_SWEEP_POINTS == 100_000
    with pytest.raises(ValueError, match="sweep range has more than 100000 points"):
        sweep_points(1.0, 100_001.0, 1.0)
    assert rounded == []
    monkeypatch.undo()
    points = sweep_points(1.0, 100_000.0, 1.0)
    assert len(points) == 100_000 and points[-1] == 100_000.0


@pytest.mark.parametrize("start", [10.1, 10.5, 10.7])
def test_sweep_stays_within_the_benchmark_reference(five_bus, start):
    """The benchmark's sweep gate: every point converges with welfare within
    1e-6 relative of bench/reference.json. These starts come closest to the
    bound, so a change that moves five-bus iterates, even by rounding, shows
    here first."""
    reference = json.loads((Path(__file__).parents[1] / "bench" / "reference.json")
                           .read_text())["five_bus_sweep_welfare"][f"{start:.1f}"]
    result = ses_sweep(five_bus, start, 150.0, 2.0)
    assert len(result.records) == len(reference)
    for record, welfare in zip(result.records, reference):
        assert record.status == "converged"
        assert abs(record.metrics.social_welfare - welfare) <= 1e-6 * max(1.0, abs(welfare))


def test_sweep_identity_point_matches_run_solve(five_bus, five_bus_run,
                                                small_sweep):
    _, metrics = five_bus_run
    record = next(r for r in small_sweep.records if r.scale_pct == 100.0)
    assert record.metrics.total_satisfaction == \
        pytest.approx(metrics.total_satisfaction, rel=1e-9)
    assert record.metrics.total_cost == pytest.approx(metrics.total_cost,
                                                      rel=1e-9)
    assert record.metrics.social_welfare == \
        pytest.approx(metrics.social_welfare, rel=1e-9)


def test_sweep_records_normalized_satisfaction_bounds(five_bus, small_sweep):
    for record in small_sweep.records:
        for agg, value in zip(five_bus.aggregators,
                              record.metrics.normalized_satisfaction):
            floor = oracle.normalized_satisfaction(agg, agg.p_c)
            assert floor - 1e-9 <= value <= 1.0 + 1e-9


def test_every_converged_point_of_the_default_sweep_passes_kkt_check(five_bus):
    """A solve ends converged only where kkt_check's four residuals are
    within tol as well. On the scaled residuals alone, the 22 % point
    stopped at a kkt_check stationarity of 1.0106e-6, above CHECK_TOL."""
    failed = []

    def check(pct, solution):
        if solution.status == "converged":
            report = kkt_check(build_problem(scale_ses(five_bus, pct / 100.0)), solution)
            if not report.passed:
                failed.append((pct, report))

    result = ses_sweep(five_bus, on_solve=check)
    assert all(r.status == "converged" for r in result.records)
    assert failed == []


def test_a_sweep_validates_the_case_and_builds_its_problem_once(monkeypatch, five_bus):
    """Every point re-scores the one Problem; none validates or builds again."""
    calls = {"validate_case": 0, "__post_init__": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def count(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, count)
    counted(formulation, "validate_case")
    counted(Problem, "__post_init__")
    result = ses_sweep(five_bus, 90.0, 110.0, 10.0)
    assert len(result.records) == 3
    assert calls == {"validate_case": 1, "__post_init__": 1}


def test_a_sweep_builds_no_scaled_case(monkeypatch, five_bus):
    """Every point re-scores the scores of the one Problem, which keeps its
    case: the default sweep runs with ``scale_ses`` refusing every call."""
    def refuse(case, factor):
        raise AssertionError(f"scale_ses called at factor {factor}")
    monkeypatch.setattr(formulation, "scale_ses", refuse)
    result = ses_sweep(five_bus)
    assert len(result.records) == 71
    assert all(r.status == "converged" for r in result.records)


def test_no_solve_of_a_sweep_writes_into_the_shared_problem(monkeypatch, five_bus):
    """The points share the arrays of the case's Problem: after the default
    sweep they still equal those of a fresh Problem of the case."""
    built = []

    def kept(case):
        built.append(build_problem(case))
        return built[-1]
    monkeypatch.setattr(harness, "build_problem", kept)
    ses_sweep(five_bus)
    [base], fresh = built, Problem(five_bus)
    assert vars(base).keys() == vars(fresh).keys()
    for name, value in vars(base).items():
        assert _same(value, vars(fresh)[name]), name


def _same(a, b) -> bool:
    if isinstance(a, tuple):  # the layout and the welfare coefficients
        return len(a) == len(b) and all(map(_same, a, b))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_a_sweep_rejects_its_range_before_its_case(five_bus):
    bad = replace(five_bus, lines=(replace(five_bus.lines[0], x=0.0),) + five_bus.lines[1:])
    with pytest.raises(ValueError, match="invalid case"):
        ses_sweep(bad, 100.0, 100.0, 2.0)
    with pytest.raises(ValueError, match="invalid sweep range"):
        ses_sweep(bad, 100.0, 50.0, 2.0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_sweep_point_whose_scores_overflow_stops_the_sweep(five_bus):
    """A score of 1.5e308 is finite, 150 % of it is not: the sweep raises
    the scaled case's violation at that point, as building its Problem
    from the scaled case does, and records no non-finite objective."""
    aggs = (replace(five_bus.aggregators[0], sigma=1.5e308),) + five_bus.aggregators[1:]
    case = replace(five_bus, aggregators=aggs)
    message = "invalid case: aggregator 0 at bus 2: sigma must be finite, got inf"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_problem(scale_ses(case, 1.5))
    with pytest.raises(ValueError, match=re.escape(message)):
        ses_sweep(case, 100.0, 150.0, 50.0, SolverOptions(max_iter=2))


def test_run_solve_of_a_problem_is_run_solve_of_its_case(five_bus, five_bus_run):
    def document(case, run):
        buf = io.StringIO()
        write_result(solve_document(case, *run), "json", buf)
        return buf.getvalue()
    assert document(five_bus, run_solve(build_problem(five_bus))) == \
        document(five_bus, five_bus_run)


def test_sweep_keeps_failed_points(five_bus):
    result = ses_sweep(five_bus, 100.0, 100.0, 2.0,
                       SolverOptions(max_iter=2))
    assert len(result.records) == 1
    assert result.records[0].status == "iteration_limit"


# ---------------------------------------------------------------------------
# emission


def test_sweep_csv_schema(tmp_path, small_sweep):
    path = tmp_path / "sweep.csv"
    emit(small_sweep, "csv", path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4  # header + 3 records
    header = rows[0]
    assert header[:9] == ["scale_pct", "status", "iterations",
                          "total_satisfaction", "weighted_objective",
                          "total_cost", "social_welfare",
                          "total_curtailment_mw", "losses_mw"]
    assert header[9:] == [f"norm_sat_{b}_{i}" for b, i in small_sweep.agg_keys]
    # welfare column reproduces satisfaction - cost from the same row
    for row in rows[1:]:
        sat, cost, welfare = float(row[3]), float(row[5]), float(row[6])
        assert welfare == pytest.approx(sat - cost, rel=1e-9)


def test_sweep_values_have_full_precision(small_sweep):
    header, rows = sweep_rows(small_sweep)
    record = small_sweep.records[0]
    # 12 significant digits round-trip the metric to 1e-11 relative
    assert float(rows[0][3]) == pytest.approx(
        record.metrics.total_satisfaction, rel=1e-11)


def test_sweep_json_round_trip(tmp_path, small_sweep):
    path = tmp_path / "sweep.json"
    emit(small_sweep, "json", path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["case"] == small_sweep.case_name
    assert len(doc["records"]) == 3
    rec = doc["records"][1]
    assert float(rec["total_cost"]) == pytest.approx(
        small_sweep.records[1].metrics.total_cost, rel=1e-11)


def test_solve_document_structure(five_bus, five_bus_run):
    solution, metrics = five_bus_run
    doc = solve_document(five_bus, solution, metrics)
    assert doc["status"] == "converged"
    assert len(doc["aggregators"]) == 7
    assert len(doc["lines"]) == 6
    assert len(doc["buses"]) == 5
    assert len(doc["generators"]) == 5
    for entry in doc["lines"]:
        assert entry["binding"] == (
            max(entry["p_from_to"], entry["p_to_from"]) > entry["s_max"] - 1e-4)


def test_solve_document_json_round_trip(tmp_path, five_bus, five_bus_run):
    solution, metrics = five_bus_run
    doc = solve_document(five_bus, solution, metrics)
    path = tmp_path / "solve.json"
    emit(doc, "json", path)
    with open(path) as fh:
        again = json.load(fh)
    assert again["objective"] == doc["objective"]
    assert again["metrics"] == doc["metrics"]
    assert again["buses"] == doc["buses"]


def _json_dump_bytes(obj):
    """What ``json.dump`` writes chunk by chunk, with the trailing newline."""
    buf = io.StringIO()
    json.dump(obj, buf, indent=2)
    return (buf.getvalue() + "\n").encode()


class _CountingWriter(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_json_outputs_keep_their_bytes(tmp_path, five_bus, five_bus_run, small_sweep):
    """A solve document, a sweep and a saved case are written as one string
    whose bytes are what ``json.dump`` writes chunk by chunk; the saved
    five_bus case's bytes are pinned."""
    solution, metrics = five_bus_run
    doc = solve_document(five_bus, solution, metrics)
    header, rows = sweep_rows(small_sweep)
    sweep = {"case": small_sweep.case_name, "records": [dict(zip(header, r)) for r in rows]}
    for result, expected in ((doc, doc), (small_sweep, sweep)):
        path = tmp_path / "out.json"
        emit(result, "json", path)
        assert path.read_bytes() == _json_dump_bytes(expected)
        fh = _CountingWriter()
        harness.write_result(result, "json", fh)
        assert fh.writes == 1
    path = tmp_path / "five_bus.json"
    save_case(five_bus, path)
    data = path.read_bytes()
    assert data == _json_dump_bytes(case_to_dict(five_bus))
    assert hashlib.sha256(data).hexdigest() == (
        "6dda9a7aaf57abdceddd4f9dea2abe274ebbc303fa05bbb470dd9281afabf4b3")


def test_emit_rejects_bad_inputs(tmp_path, small_sweep):
    with pytest.raises(ValueError):
        emit(small_sweep, "yaml", tmp_path / "x")
    with pytest.raises(TypeError):
        emit(42, "csv", tmp_path / "x")
