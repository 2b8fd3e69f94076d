"""Environment record printed with every result.

BLAS threading is left as the environment sets it: the benchmark reads the
thread count each loaded OpenBLAS will use and never overrides it, so a
change that depends on it shows in the record.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS copy)

_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _call(lib, stem: str, restype):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def _openblas_libraries() -> list[str]:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def blas_record() -> list[dict]:
    out = []
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        config = _call(lib, "get_config", ctypes.c_char_p)
        out.append(
            {
                "library": os.path.basename(path),
                "config": config.decode() if config else None,
                "threads": _call(lib, "get_num_threads", ctypes.c_int),
            }
        )
    return out


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
