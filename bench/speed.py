"""The machine's speed, sampled during the ops it is used to correct.

The benchmark runs on shared hosts whose other tenants slow every process
down by up to 1.8x, in stretches from a fraction of a second to minutes, and
no run of a few tens of seconds can average them out. So a fixed reference
kernel (Python bytecode, small numpy arrays and a dense 240 x 240 LDL and
solve, the mix an interior-point solve of sesopf spends its time in) is
timed in the benchmark's own process: before each op, and every
``PERIOD_S`` during it, from a SIGALRM handler that Python runs between two
bytecodes of the op. The samples split an op into segments; a segment that
took ``t`` seconds between samples of ``k1`` and ``k2`` seconds counts as
``t * REF_KERNEL_S / mean(k1, k2)``, its time at the speed at which the
kernel takes ``REF_KERNEL_S``, and the samples' own time is in no op. The
kernel is in the benchmark's own files, so a change to sesopf moves the op
times and not the kernel.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.linalg

# The kernel's median time on the machine the benchmark was tuned on (a
# 2-vCPU KVM guest on an Intel Xeon, family 6 model 207) while it was quiet.
# It only fixes the scale of the reported seconds.
REF_KERNEL_S = 0.008
# Time from the end of one sample inside an op to the start of the next.
PERIOD_S = 0.08

_N = 240
_rng = np.random.default_rng(20240913)
_A = _rng.standard_normal((_N, _N))
_K = _A + _A.T + np.diag(np.where(np.arange(_N) < 200, 40.0, -40.0))
_RHS = _rng.standard_normal(_N)
_V = _rng.standard_normal(64)
_KEYS = {f"k{i}": float(i) for i in range(64)}
_NAMES = [f"k{i}" for i in range(64)]


def kernel() -> float:
    """A fixed amount of mixed work; the return value only defeats dead-code
    elimination."""
    s = 0.0
    for i in range(12000):
        s += _KEYS[_NAMES[i & 63]] * 0.5 if i & 1 else (i % 97) ** 0.5
    x = _V.copy()
    for _ in range(600):
        x = np.maximum(0.999 * x + 0.001 * _V, -1.0)
        s += float(x @ _V)
    for _ in range(3):
        _lu, d, _perm = scipy.linalg.ldl(_K, lower=True)
        s += float(d[0, 0]) + float(scipy.linalg.solve(_K, _RHS, assume_a="sym")[0])
    return s


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Speed:
    """Kernel samples over time, and the correction of intervals by them."""

    def __init__(self):
        kernel()  # warm-up: first-call set-up in numpy and scipy
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.times.append(t1 - t0)

    @contextmanager
    def sampling(self):
        """Sample every ``PERIOD_S`` while the block runs."""
        def on_alarm(_signum, _frame):
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _inside(self, t0: float, t1: float) -> range:
        return range(bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.ends, t1))

    def raw(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` less the samples taken in between."""
        return t1 - t0 - sum(self.times[i] for i in self._inside(t0, t1))

    def correct(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` at the reference speed, less the
        samples taken in between."""
        inside = self._inside(t0, t1)
        bounds = [t0] + [x for i in inside for x in (self.starts[i], self.ends[i])] + [t1]
        return sum((b - a) * self._factor(a, b) for a, b in zip(bounds[::2], bounds[1::2]))

    def _factor(self, a: float, b: float) -> float:
        """REF_KERNEL_S over the mean of the last sample that ended by ``a``
        and the first that started at or after ``b``."""
        before = bisect.bisect_right(self.ends, a) - 1
        after = bisect.bisect_left(self.starts, b)
        near = [self.times[i] for i in (before, after) if 0 <= i < len(self.times)]
        if not near:
            raise ValueError("no kernel sample next to the interval")
        return REF_KERNEL_S / statistics.fmean(near)
