"""Describe the host a result was measured on.

Every result records the cores the process may use, the BLAS library and
the thread settings it runs with, the interpreter and numpy versions, and
the source revision, so numbers from two machines are never compared
blind.  The benchmark leaves the BLAS environment as it finds it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path
from typing import Dict, Optional

import numpy as np

BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _blas_library() -> Dict[str, object]:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):  # numpy without dict mode
        return {"name": None, "version": None}


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, read through its own API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for path in sorted(paths):
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
                function.argtypes = []
                return int(function())
    return None


def _git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    try:
        return target.read_text().strip()
    except OSError:
        packed = root / ".git" / "packed-refs"
        try:
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        except OSError:
            pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over every ``src/**/*.py`` path and content (identity without git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def describe(root: Path) -> Dict[str, object]:
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "blas": _blas_library(),
        "blas_threads": _blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root),
    }

