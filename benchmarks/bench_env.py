"""The numeric environment a benchmark result was measured in.

Everything here only reads: the BLAS thread variables are recorded as found,
and the effective OpenBLAS thread count is queried from the library numpy
has already loaded (``RTLD_NOLOAD``), never set.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BELLFORGE_THREADS",
)

# Thread-count and configuration getters across OpenBLAS builds: numpy's
# scipy-openblas wheels prefix and suffix the symbols.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads64_", "openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)
_OPENBLAS_SONAMES = ("libopenblas.so.0", "libopenblas64_.so.0", "libopenblasp-r0.so")


def _loaded_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS numpy has loaded, or ``None``; never loads a library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    candidates = [str(p) for p in sorted(libs.glob("*openblas*"))] + list(_OPENBLAS_SONAMES)
    mode = getattr(os, "RTLD_NOLOAD", None)
    if mode is None:
        return None
    for path in candidates:
        try:
            return ctypes.CDLL(path, mode=mode | os.RTLD_LAZY)
        except OSError:
            continue
    return None


def openblas_info() -> dict:
    """Effective thread count and build string of the loaded OpenBLAS."""
    lib = _loaded_openblas()
    if lib is None:
        return {"threads": None, "config": None}
    for threads_name, config_name in _OPENBLAS_SYMBOLS:
        if not hasattr(lib, threads_name):
            continue
        get_threads = getattr(lib, threads_name)
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        config = None
        if hasattr(lib, config_name):
            get_config = getattr(lib, config_name)
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            config = get_config().decode(errors="replace").strip()
        return {"threads": int(get_threads()), "config": config}
    return {"threads": None, "config": None}


def blas_build() -> dict:
    """BLAS vendor and version as numpy reports them."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        return {"name": None, "version": None}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def numeric_env() -> dict:
    """Python, numpy, CPU and BLAS facts, with the thread variables as found."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas": blas_build(),
        "openblas": openblas_info(),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
    }
