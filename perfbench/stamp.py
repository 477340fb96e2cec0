"""Environment stamp attached to every result.

Timings and float64 digests depend on the numeric environment (numpy
build, BLAS library and the CPU kernel it dispatches to) and on the box,
so every result carries this stamp and numbers from different
environments are never compared silently.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

#: Settings the benchmark pins for every workload.
PINNED = {"threads": 1, "backend": "numpy", "lane_threads": 1, "workers": 1,
          "engine": "fused", "dtype": "float64", "cache_dir": None}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Single-threaded BLAS; must run before numpy is imported."""

    for name in THREAD_VARS:
        os.environ[name] = str(PINNED["threads"])


def _openblas_config() -> Optional[str]:
    """Runtime OpenBLAS configuration, including the dispatched CPU kernel."""

    try:
        with open("/proc/self/maps") as maps:
            libraries = sorted({line.split()[-1] for line in maps
                                if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libraries:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                       "openblas_get_config"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_char_p
                return function().decode()
    return None


def _blas_build() -> Optional[dict]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_revision(root: Path) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """Digest of the program's sources, for checkouts without git metadata."""

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path) -> dict:
    """The full stamp of this process's numeric and build environment."""

    import numpy as np

    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_build": _blas_build(),
        "blas_runtime": _openblas_config(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(root),
        "source_digest": _source_digest(root),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "repro_env": {name: value for name, value in sorted(os.environ.items())
                      if name.startswith("REPRO_")},
        "pinned": dict(PINNED),
    }


def numeric_key(env: dict) -> dict:
    """The part of the stamp that decides float64 bits (pinned digests)."""

    return {key: env[key] for key in ("numpy", "blas_build", "blas_runtime",
                                      "machine", "repro_env")}
