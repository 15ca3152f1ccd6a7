"""Execution-environment record printed with every benchmark result.

BLAS thread counts are *read* from the OpenBLAS libraries bundled with
numpy and scipy through their ``get_num_threads`` query; nothing here
sets a thread count or a thread variable.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

#: Thread variables recorded as found (never set by the benchmark).
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Variables that change the program under test; the benchmark refuses
#: to run while any of them is set.
REFUSED_VARS = ("PPATUNER_FAULT_SEED", "PPATUNER_FULL", "PPATUNER_TRACE_DIR")


def refused_vars(environ: dict[str, str]) -> list[str]:
    """Names from :data:`REFUSED_VARS` present in ``environ``."""
    return [name for name in REFUSED_VARS if name in environ]


def _openblas_libs(package: str) -> list[Path]:
    """Bundled OpenBLAS shared objects of an installed wheel."""
    import importlib.util

    spec = importlib.util.find_spec(package)
    if spec is None or not spec.origin:
        return []
    libs = Path(spec.origin).parent.parent / f"{package}.libs"
    return sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []


def _query_openblas(path: Path) -> dict:
    """Version string and effective thread count of one OpenBLAS."""
    lib = ctypes.CDLL(str(path))
    info: dict = {"lib": path.name}
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "")):
        get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        if get_threads is None:
            continue
        get_threads.restype = ctypes.c_int
        get_threads.argtypes = []
        info["threads"] = int(get_threads())
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            info["config"] = get_config().decode("ascii", "replace")
        return info
    info["threads"] = None
    return info


def blas_record() -> dict:
    """OpenBLAS version and effective threads per numpy/scipy wheel."""
    out = {}
    for package in ("numpy", "scipy"):
        for path in _openblas_libs(package):
            try:
                out[package] = _query_openblas(path)
            except OSError as exc:
                out[package] = {"lib": path.name, "error": str(exc)}
    return out


def environment(seed: int, workers: int, environ: dict[str, str]) -> dict:
    """Everything a reader needs to reproduce or compare a result.

    ``environ`` is the process environment as the benchmark found it,
    before it pointed the program's caches at private directories.
    """
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "thread_vars": {
            k: environ[k] for k in THREAD_VARS if k in environ
        },
        "ppatuner_vars": {
            k: v for k, v in sorted(environ.items())
            if k.startswith("PPATUNER_")
        },
        "workers": workers,
        "seed": seed,
    }
