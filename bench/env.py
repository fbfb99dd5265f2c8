"""Process settings and the environment record. Import this before numpy:
BLAS reads its thread count once, when it loads."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the KKT matrices are at most 242 x 242, where a second
# thread adds jitter and no speed on a shared 2-core machine, and the other
# core stays free for a process pool.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source() -> None:
    """Import sesopf from this checkout's ``src`` and nowhere else."""
    if not (SRC / "sesopf" / "__init__.py").is_file():
        raise SystemExit(f"error: no sesopf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sesopf
    if Path(sesopf.__file__).resolve().parent != SRC / "sesopf":
        raise SystemExit(f"error: sesopf imported from {sesopf.__file__}, not {SRC}")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sesopf").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_lib,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": _source_digest(),
    }
