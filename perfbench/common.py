"""Statistics, environment record and result assembly shared by workloads."""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import statistics
import sys
import time

# Read by the library: REPRO_JOBS parallelises every fit and REPRO_FAULTS
# arms fault-injection plans in the CLI. Neither may leak into a run.
SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_FAULTS")

# A timing's tail is the highest percentile with at least this many
# samples beyond it.
TAIL_BEYOND = 10

# setup_s is the median of this many set-ups in one run. The first set-up
# of a process is the slowest (cold caches, first-call costs), so the
# median of five is set by the warm ones.
SETUP_REPEATS = 5


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with >= 10 beyond.

    Nearest rank: the value at 1-based rank ``n - 10`` has ten samples
    above it. Below twenty samples that rank falls under the median, so
    the maximum is reported instead (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 2 * TAIL_BEYOND:
        return float(ordered[-1]), 100.0, n
    rank = n - TAIL_BEYOND
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def timing_summary(values) -> dict:
    value, percentile, n = tail(values)
    return {"p50": p50(values), "tail": value, "tail_pct": percentile, "n": n}


def blas_info() -> dict:
    """BLAS vendor from NumPy's build record and its live thread count."""
    import numpy as np

    info: dict = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"vendor": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                info["threads"] = int(function())
                return info
    info["threads"] = None
    return info


def environment() -> dict:
    import numpy as np

    return {
        "nproc": nproc(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scrubbed_env": list(SCRUBBED_ENV),
    }


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def timed_setup(setup):
    """Run ``setup()`` SETUP_REPEATS times; return (last state, median s)."""
    durations = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(state, "close"):
            state.close()
        start = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - start)
    return state, statistics.median(durations), durations


def emit(result: dict, details: dict) -> None:
    """Print the details line, then the result as the last stdout line."""
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    sys.stdout.flush()
