"""Tests of the benchmark itself: self-time arithmetic, seeded inputs,
restoration of the tracing wrappers, derived ratios, and agreement between
BENCHMARK.json and the metrics the benchmark prints."""

import json
from pathlib import Path

import pytest

import env
import layertrace
import speed
import workloads
from sesopf import casemodel, harness, solver


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c", "d"]
    log = layertrace.SpanLog()
    root = log.add(0, -1, 0.0, 10.0)       # a: 10 s, children b and c
    log.add(1, root, 1.0, 4.0)             # b: 3 s, leaf
    c = log.add(2, root, 5.0, 9.0)         # c: 4 s, children d and b
    log.add(3, c, 6.0, 7.0)                # d: 1 s, leaf
    log.add(1, c, 7.5, 8.5)                # b again: 1 s, leaf
    totals = layertrace.layer_totals(log, names)
    assert totals["a"] == (1, pytest.approx(3.0))
    assert totals["b"] == (2, pytest.approx(4.0))
    assert totals["c"] == (1, pytest.approx(2.0))
    assert totals["d"] == (1, pytest.approx(1.0))
    assert layertrace.layer_totals(layertrace.SpanLog(), names) == {}


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_equal_seeds_give_byte_identical_inputs(cls, tmp_path):
    runs = []
    for sub in ("one", "two"):
        workdir = tmp_path / sub
        workdir.mkdir()
        wl = cls(7, workdir)
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        units = json.dumps(wl.unit(), default=str).replace(str(workdir), "")
        runs.append((files, units))
    assert runs[0] == runs[1]


def test_seed_draws_stay_on_the_reference_grid(tmp_path):
    ref = workloads.load_reference()
    for seed in range(20):
        rts = workloads.SolveRts24(seed, tmp_path)
        assert len(rts.scales) == workloads.RTS24_SOLVES
        assert all(f"{s:.2f}" in ref["rts24_objective"] for s in rts.scales)
        assert workloads.SweepFiveBus(seed, tmp_path).start in ref["five_bus_sweep_welfare"]
    assert ref["rts24_objective"]["1.00"] == pytest.approx(5398138.39, abs=0.01)


def test_wrappers_are_gone_after_the_traced_run():
    sites = [(owner, attr) for owner, attr, *_ in layertrace.patch_sites()]
    before = [vars(owner)[attr] for owner, attr in sites]
    scipy_before = solver.scipy
    tracer = layertrace.Tracer()
    with layertrace.patched(tracer):
        assert harness.run_solve is not before[sites.index((harness, "run_solve"))]
        with tracer.phase("op"):
            solution, _ = harness.run_solve(casemodel.builtin_case("five_bus"))
    assert [vars(owner)[attr] for owner, attr in sites] == before
    assert solver.scipy is scipy_before

    totals = tracer.totals("op")
    assert tracer.counters["solver.iterations"] == solution.iterations
    assert totals["solver.solve"][0] == 1
    assert totals["solver.kkt_solve"][0] == solution.iterations - 1
    assert totals["casemodel.bus_index"][0] > 0
    assert all(self_s >= 0 for _, self_s in totals.values())


def test_wrappers_are_restored_when_the_traced_code_raises():
    scipy_before = solver.scipy
    run_solve = harness.run_solve
    with pytest.raises(RuntimeError):
        with layertrace.patched(layertrace.Tracer()):
            raise RuntimeError("op failed")
    assert harness.run_solve is run_solve
    assert solver.scipy is scipy_before


def test_derived_ratios_from_fixed_counts():
    calls = {"formulation.equalities": 677, "formulation.objective": 287,
             "solver.ldl": 140, "solver.kkt_solve": 135}
    assert layertrace.derived(calls, iterations=136, solves=1) == {
        "formulation.evals_per_iter": 677 / 136,
        "solver.factorizations_per_iter": 275 / 136,
        "solver.inertia_retries": 5,
        "solver.merit_evals": 150,
    }
    audit = {"formulation.equalities": 7720, "formulation.objective": 7720}
    assert layertrace.derived(audit, iterations=0, solves=0) == {
        "formulation.evals_per_iter": 0.0,
        "solver.factorizations_per_iter": 0.0,
        "solver.inertia_retries": 0,
        "solver.merit_evals": 0,
    }


def test_benchmark_json_lists_the_printed_metrics():
    import run

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layertrace.PER_LAYER

    units = [([0.5, 0.5], 1.0), ([1.0, 3.0], 4.0), ([0.4, 0.8], 1.2)]
    summary = run._summary(units, setup=[0.5, 0.6, 0.7])
    assert summary["setup_s"] == 0.6
    assert summary["wall_s"] == 1.2
    assert summary["op_s.p50"] == pytest.approx(0.65)     # ops at 0.5 and 0.8
    assert summary["op_s.p90"] == pytest.approx(2.0)      # rank 4.5 of 0..5: 1.0 and 3.0
    assert summary["ops_per_s"] == pytest.approx(6 / 6.2)
    printed = run._end_to_end(summary, peak_rss_mb=70.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in printed.items()]
    assert spec["paths"] == [Path(__file__).parent.name]


def _hand_built_speed(samples):
    gauge = speed.Speed.__new__(speed.Speed)
    gauge.starts = [t0 for t0, _ in samples]
    gauge.ends = [t1 for _, t1 in samples]
    gauge.times = [t1 - t0 for t0, t1 in samples]
    return gauge


def test_speed_correction_splits_ops_at_the_samples_inside():
    ref = speed.REF_KERNEL_S
    # Samples of 1, 3 and 2 reference kernels; the op runs from 10 to 20 with
    # the middle one inside it, from 14 to 14 + 3 ref.
    k = [(9.0 - ref, 9.0), (14.0, 14.0 + 3 * ref), (21.0, 21.0 + 2 * ref)]
    gauge = _hand_built_speed(k)
    t1 = 20.0
    assert gauge.raw(10.0, t1) == pytest.approx(10.0 - 3 * ref)
    first = (14.0 - 10.0) / ((1 + 3) / 2)            # between the 1x and 3x samples
    second = (t1 - (14.0 + 3 * ref)) / ((3 + 2) / 2)  # between the 3x and 2x samples
    assert gauge.correct(10.0, t1) == pytest.approx(first + second)
    # An op with no sample inside is scaled by its two neighbours alone.
    assert gauge.correct(9.5, 13.5) == pytest.approx(4.0 / 2)
    assert gauge.raw(9.5, 13.5) == pytest.approx(4.0)


def test_sampling_takes_samples_and_restores_the_alarm():
    import signal
    import time

    gauge = speed.Speed()
    before = signal.getsignal(signal.SIGALRM)
    with gauge.sampling():
        end = time.perf_counter() + 3 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(gauge.times) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
