"""The environment block every result carries: commit, machine, libraries, BLAS threads."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` directly; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas(package, libdir: str, pattern: str, suffix: str) -> dict:
    """Version string and thread count of the OpenBLAS bundled with ``package``.

    threadpoolctl is not available, so the bundled library is asked directly
    through ctypes; it is the same handle the package already loaded.
    """
    libs = sorted((Path(package.__file__).parent.parent / libdir).glob(pattern))
    if not libs:
        return {"config": None, "threads": None}
    lib = ctypes.CDLL(str(libs[0]))
    get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return {"config": get_config().decode().strip(), "threads": int(get_threads())}


def blas_info() -> dict:
    """OpenBLAS of NumPy (``np.linalg``) and of SciPy (``scipy.linalg.expm``)."""
    try:
        return {
            "numpy": _openblas(np, "numpy.libs", "libscipy_openblas64_*.so", "64_"),
            "scipy": _openblas(scipy, "scipy.libs", "libscipy_openblas-*.so", ""),
        }
    except (OSError, AttributeError) as exc:
        return {"error": str(exc)}


def environment(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
