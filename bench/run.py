"""sesopf benchmark.

    python3 bench/run.py --workload solve-rts24 --seed 1 --seconds 30 --trace 0

Runs one warm-up op, then whole units of one workload's ops, one client in a
closed loop, for about ``--seconds`` (at least three units), checks every op,
and prints the end-to-end metrics. Times are corrected for the machine's
speed, which ``speed.py`` samples during the ops; the wall-clock figures are
printed beside them. With ``--trace 1`` it runs the warm-up op and then two
pairs of an untraced and a traced unit instead, and prints the per-layer
metrics.
The last line of standard output is the JSON result; the exit code is 0 only
if every op passed its correctness check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import env

SETUP_SAMPLES = 5
KERNEL_AFTER_SETUP = 9
MIN_UNITS = 3
TRACE_PAIRS = 2


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-rts24", "sweep-five_bus", "audit-rts24"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it (internal)")
    return parser.parse_args(argv)


class Run:
    """Ops attempted and failed, and the timings of one run. With a
    ``speed.Speed``, the kernel is sampled before and during each op and
    after each unit."""

    def __init__(self, workload, speed=None):
        self.workload = workload
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        # Per unit: (op intervals, call intervals), perf_counter seconds.
        self.units: list[tuple[list, list]] = []

    def unit(self, phase=lambda label: contextlib.nullcontext()) -> float:
        """Run every op of one unit; return its wall time."""
        ops, calls = [], []
        for spec in self.workload.unit():
            if self.speed:
                self.speed.sample()
            with phase("op"), (self.speed.sampling() if self.speed else contextlib.nullcontext()):
                op_intervals, call, output = self.workload.run(spec)
            with phase("check"):
                self.failed += self.workload.failures(spec, output)
            self.attempted += len(op_intervals)
            ops += op_intervals
            calls.append(call)
        if self.speed:
            self.speed.sample()
        self.units.append((ops, calls))
        return sum(t1 - t0 for t0, t1 in calls)

    def timings(self, measure) -> list[tuple[list[float], float]]:
        """Per unit: each op's time and the unit's wall time, as ``measure(t0,
        t1)`` gives them."""
        return [([measure(*op) for op in ops], sum(measure(*call) for call in calls))
                for ops, calls in self.units]


def _setup_seconds(args) -> list[tuple[float, float]]:
    """Time set-up in fresh processes: import, inputs, first build_problem.
    Each also times the speed kernel right after; returns (set-up, kernel)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=env.ROOT, capture_output=True, text=True, timeout=120, check=True)
        setup, kernel = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(kernel)))
    return samples


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _summary(units: list[tuple[list[float], float]], setup: list[float]) -> dict:
    """Medians over the whole run: of the units' wall times, of every op's
    time, and of the set-ups; the rate is every op over every unit's wall."""
    ops = [t for unit_ops, _ in units for t in unit_ops]
    walls = [wall for _, wall in units]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_s.p50": statistics.median(ops),
        "op_s.p90": statistics.quantiles(ops, n=10, method="inclusive")[8],
        "ops_per_s": len(ops) / sum(walls),
    }


def _end_to_end(ref: dict, peak_rss_mb: float) -> dict:
    """The metrics of BENCHMARK.json, from the speed-corrected summary."""
    return {
        "setup_s": (ref["setup_s"], "s"),
        "ref_wall_s": (ref["wall_s"], "s"),
        "ref_op_s.p50": (ref["op_s.p50"], "s"),
        "ref_op_s.p90": (ref["op_s.p90"], "s"),
        "ref_ops_per_s": (ref["ops_per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    t0 = perf_counter()
    args = _args(argv)
    env.pin_blas()
    env.use_checkout_source()
    import layertrace
    import speed
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=env.ROOT))
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            setup = perf_counter() - t0
            speed.kernel()  # warm-up
            print(setup, statistics.median(speed.time_kernel() for _ in range(KERNEL_AFTER_SETUP)))
            return 0

        workload = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                      workloads.load_reference())
        first = workload.unit()[0]
        warm_ops, _, output = workload.run(first)  # warm-up, untimed
        failed, attempted = workload.failures(first, output), len(warm_ops)
        if args.trace:
            run = Run(workload)
            # Alternate untraced and traced units; the fastest of each gives
            # the overhead, and the fastest traced unit the layer metrics.
            untraced, best = [], None
            for _ in range(TRACE_PAIRS):
                untraced.append(run.unit())
                tracer = layertrace.Tracer()
                with layertrace.patched(tracer):
                    traced = run.unit(tracer.phase)
                if best is None or traced < best[0]:
                    best = (traced, tracer)
            values = layertrace.layer_metrics(best[1], min(untraced), best[0])
            metrics = {name: (values[name], unit) for name, unit in layertrace.PER_LAYER}
        else:
            setup = _setup_seconds(args)
            gauge = speed.Speed()
            run = Run(workload, gauge)
            start = perf_counter()
            # Start a unit only if it should end within --seconds.
            while True:
                run.unit()
                elapsed = perf_counter() - start
                if (len(run.units) >= MIN_UNITS
                        and elapsed + elapsed / len(run.units) > args.seconds):
                    break
            raw = _summary(run.timings(gauge.raw), [s for s, _ in setup])
            ref = _summary(run.timings(gauge.correct),
                           [s * speed.REF_KERNEL_S / k for s, k in setup])
            metrics = _end_to_end(ref, _peak_rss_mb())
            print(f"samples: {run.attempted} ops in {len(run.units)} units, "
                  f"{len(setup)} set-ups, {len(gauge.times)} kernel samples "
                  f"(median {statistics.median(gauge.times):.4g} s, "
                  f"reference {speed.REF_KERNEL_S} s)")
            for name, value in raw.items():
                print(f"{name + ' (wall clock)':<34} {value:.6g} {'1/s' if name == 'ops_per_s' else 's'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run.failed += failed
    run.attempted += attempted
    failed_frac = run.failed / max(1, run.attempted)
    print("environment: " + json.dumps(env.environment(args.workload, args.seed)))
    print(f"{'failed_frac':<34} {failed_frac:.6g} ({run.failed} of {run.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:.6g} {unit}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
