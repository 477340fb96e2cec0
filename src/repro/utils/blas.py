"""OpenBLAS thread count, read and set through OpenBLAS's C API.

Training bits depend on the OpenBLAS thread count on some kernels (Haswell
and Katmai, not SkylakeX), so every work unit runs on one thread: a forked
orchestrator worker pins itself once, and the in-process fallback pins
each unit and restores the caller's count (:func:`one_blas_thread`).
Without a loaded OpenBLAS every function here is a no-op.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import Iterator, Optional

__all__ = ["blas_threads", "one_blas_thread", "set_blas_threads"]


@functools.lru_cache(maxsize=None)
def _openblas_function(name: str, restype, *argtypes):
    """OpenBLAS's ``name`` function (e.g. ``"set_num_threads"``), or ``None``.

    Looks through the OpenBLAS libraries this process has mapped (numpy's
    bundled one included) for the 64-bit-interface and plain symbol names.
    """

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
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                       f"openblas_{name}"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype, function.argtypes = restype, list(argtypes)
                return function
    return None


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` without OpenBLAS."""

    get_threads = _openblas_function("get_num_threads", ctypes.c_int)
    return None if get_threads is None else int(get_threads())


def set_blas_threads(count: int) -> None:
    """Give OpenBLAS ``count`` threads, if OpenBLAS is loaded."""

    set_threads = _openblas_function("set_num_threads", None, ctypes.c_int)
    if set_threads is not None:
        set_threads(int(count))


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block on one OpenBLAS thread, then restore the caller's count."""

    previous = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)
