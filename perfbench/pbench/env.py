"""BLAS pinning and the environment stamp attached to every result."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

__all__ = ["PIN_VARS", "pin_blas", "environment_stamp"]

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Entry points of the OpenBLAS builds numpy ships with, newest first.
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def pin_blas() -> None:
    """One BLAS thread; the load is sized for two cores and one process.

    The pools read these variables when the library loads, so this must run
    before numpy is imported.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before numpy is imported")
    for name in PIN_VARS:
        os.environ[name] = "1"


def _blas_threads_in_effect() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, asked of the
    library itself; ``None`` when no known entry point exists."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout at ``root`` read from ``.git`` directly (no
    subprocess); ``None`` where the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_stamp(root: Path, workload: str, seed: int,
                      seconds: float, sizes: dict) -> dict:
    import numpy

    from repro.nn import get_backend

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        nproc = None
    return {
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "thread_pins": {name: os.environ.get(name) for name in PIN_VARS},
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_backend": get_backend().name,
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "sizes": sizes,
    }
