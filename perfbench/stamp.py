"""The machine stamp printed with every result.

It names what a number depends on besides the code: core count, BLAS
library and its thread count, numpy and Python versions, the commit,
CPU time the hypervisor stole during the run, and the time of a fixed
calibration loop at the start and at the end of the run.  A run whose
calibration times differ a lot ran on a host whose speed changed.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Optional

import numpy as np


def cpu_steal_ticks() -> Optional[int]:
    """The ``steal`` column of the aggregate ``cpu`` line of ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def calibrate() -> float:
    """Seconds for a fixed pure-Python and NumPy loop."""
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    values = np.arange(100_000, dtype=np.float64)
    for _ in range(120):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - start


def blas() -> str:
    """BLAS library, version and the thread count it runs with."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "?"
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        paths = set()
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = str(getter())
                break
    return f"{info.get('name')} {info.get('version')} threads={threads}"


def git_sha(root: Path) -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def machine(root: Path) -> str:
    """The one-line stamp printed with every result."""
    return (f"nproc={len(os.sched_getaffinity(0))} blas=({blas()}) "
            f"numpy={np.__version__} python={platform.python_version()} "
            f"git={git_sha(root)}")
