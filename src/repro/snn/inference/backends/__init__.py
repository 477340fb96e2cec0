"""Pluggable kernel-backend registry for the fused inference engines.

The fused engines execute a backend-agnostic
:class:`~repro.snn.inference.plan.InferencePlan`; *how* each op executes is
dispatched through this registry (the tinygrad ``Device``/``llops`` shape:
one IR, swappable runtimes discovered from ``ops_*.py`` modules).  The
numpy backend is the only built-in one.

* :func:`get_backend` resolves a backend instance: explicit argument >
  ``REPRO_BACKEND`` environment variable > ``"numpy"``.  An unknown name
  raises listing the available backends; a known backend whose runtime
  prerequisites are missing raises when requested explicitly but
  *degrades to numpy with a logged notice* when requested via the
  environment, so an exported ``REPRO_BACKEND`` can never break a box
  that lacks the runtime.
* :func:`register_backend` adds a backend (third-party code can register
  its own without touching this package).
* Discovery: every ``ops_*.py`` module in this package is imported on
  first use; a module that fails to import (missing optional dependency)
  is recorded as "not available" instead of propagating the
  ``ImportError``.

Bit contract: the numpy path is the byte-identity *oracle*.  Every
backend's results must equal it ``tobytes()``-for-``tobytes()``, which is
why the backend name never enters campaign cache keys.
"""

from __future__ import annotations

import importlib
import os
from pathlib import Path
from typing import Dict, List, Optional

from ....utils.logging import get_logger
from .base import Backend

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]

logger = get_logger("snn.inference.backends")

#: Name of the default backend (always registered, always available).
DEFAULT_BACKEND = "numpy"

_REGISTRY: Dict[str, Backend] = {}
#: Import failures of ``ops_*`` modules, keyed by the backend name the
#: module's filename implies (``ops_foo.py`` -> ``"foo"``).
_IMPORT_ERRORS: Dict[str, str] = {}
_DISCOVERED = False


class BackendUnavailableError(RuntimeError):
    """An explicitly requested backend cannot run on this machine."""


def register_backend(backend: Backend) -> None:
    """Register ``backend`` under its :attr:`~Backend.name` (last wins)."""

    name = str(backend.name).strip().lower()
    if not name:
        raise ValueError("backend name must be non-empty")
    _REGISTRY[name] = backend


def _discover() -> None:
    """Import every ``ops_*.py`` module once, degrading on ImportError."""

    global _DISCOVERED
    if _DISCOVERED:
        return
    _DISCOVERED = True
    package_dir = Path(__file__).resolve().parent
    for path in sorted(package_dir.glob("ops_*.py")):
        name = path.stem[len("ops_"):]
        try:
            importlib.import_module(f"{__name__}.{path.stem}")
        except ImportError as exc:
            _IMPORT_ERRORS[name] = str(exc)
            logger.info("kernel backend '%s' not available: %s", name, exc)


def available_backends() -> List[str]:
    """Sorted names of the backends that can run on this machine."""

    _discover()
    return sorted(name for name, backend in _REGISTRY.items()
                  if backend.available())


def get_backend(name: Optional[str] = None) -> Backend:
    """Resolve a backend instance: argument > ``REPRO_BACKEND`` > numpy.

    An unknown name raises :class:`ValueError` listing the available
    backends.  A known-but-unavailable backend (failed import or missing
    runtime prerequisites) raises :class:`BackendUnavailableError` when
    requested via the ``name`` argument, but falls back to the numpy
    default with a logged notice when selected through the environment
    variable -- an exported ``REPRO_BACKEND`` must never break evaluation.
    """

    _discover()
    explicit = name is not None
    if name is None:
        name = os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND
    name = str(name).strip().lower() or DEFAULT_BACKEND
    backend = _REGISTRY.get(name)
    if backend is not None and backend.available():
        return backend
    if backend is None and name not in _IMPORT_ERRORS:
        raise ValueError(
            f"unknown backend '{name}'; available: {available_backends()}")
    reason = (_IMPORT_ERRORS.get(name, "import failed") if backend is None
              else backend.unavailable_reason() or "unavailable")
    if explicit:
        raise BackendUnavailableError(
            f"backend '{name}' is not available on this machine: {reason}")
    logger.warning(
        "REPRO_BACKEND=%s requested but the backend is not available (%s); "
        "falling back to '%s'", name, reason, DEFAULT_BACKEND)
    return _REGISTRY[DEFAULT_BACKEND]


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Canonical name of the backend :func:`get_backend` would return.

    Campaign runners resolve once in the parent process (building a lazy
    backend if needed) and hand the resolved name to engines and forked
    workers, so every worker uses the parent's choice.
    """

    return get_backend(name).name
