"""Machine fingerprint and the bare-GEMM / bare-FFT floors behind each
layer's "gap to the floor"."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_info() -> dict:
    """BLAS name and version from numpy's build record, and the thread
    count the loaded OpenBLAS reports (None where it cannot be asked)."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(lib_path))
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                threads = int(query())
                break
        if threads is not None:
            break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def fingerprint() -> dict:
    blas = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": blas["threads"],
        "thread_env": {key: os.environ[key] for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if key in os.environ},
    }


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def sgemm_gflops(m: int, k: int, n: int, repeats: int = 3) -> float:
    """float32 (m, k) @ (k, n) throughput: the floor of a layer whose
    forward is that GEMM."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    a @ b  # first call pays thread start-up
    return 2.0 * m * k * n / _median_time(lambda: a @ b, repeats) / 1e9


def rfft_seconds(frames: int, window: int, repeats: int = 5) -> float:
    """One real FFT over (frames, window) float64, as the STFT runs it."""
    x = np.random.default_rng(0).standard_normal((frames, window))
    np.fft.rfft(x, axis=1)
    return _median_time(lambda: np.fft.rfft(x, axis=1), repeats)
