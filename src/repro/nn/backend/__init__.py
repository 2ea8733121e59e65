"""Pluggable array-math backends (see DESIGN.md §10).

The process-wide default backend is resolved once at import from the
``REPRO_BACKEND`` environment variable (``reference`` when unset) and can be
replaced with :func:`set_backend` (the CLI's ``--backend`` flag does this).
:func:`use_backend` pushes a *thread-local* override for a scope — the
serving session uses it to pin scoring to the backend an artifact was
exported under, without disturbing other threads.

``get_backend()`` is called on the hot path (every kernel seam, every
``backward()`` walk), so it is a two-lookup fast path: thread-local stack
top, else the process default.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Iterator

from .base import ArrayOps
from .fused import FusedOps
from .reference import ReferenceOps

__all__ = [
    "ArrayOps",
    "ReferenceOps",
    "FusedOps",
    "BACKEND_NAMES",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
]

_REGISTRY: dict[str, type[ArrayOps]] = {
    ReferenceOps.name: ReferenceOps,
    FusedOps.name: FusedOps,
}
BACKEND_NAMES = tuple(sorted(_REGISTRY))

_INSTANCES: dict[str, ArrayOps] = {}
_TLS = threading.local()


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return BACKEND_NAMES


def resolve_backend(backend: str | ArrayOps) -> ArrayOps:
    """Coerce a name or instance to the (cached) backend instance."""
    if isinstance(backend, ArrayOps):
        return backend
    try:
        cls = _REGISTRY[backend]
    except KeyError:
        raise ValueError(
            f"unknown array backend {backend!r}; "
            f"available: {', '.join(BACKEND_NAMES)}") from None
    if backend not in _INSTANCES:
        _INSTANCES[backend] = cls()
    return _INSTANCES[backend]


_DEFAULT: ArrayOps = resolve_backend(
    os.environ.get("REPRO_BACKEND", ReferenceOps.name))


def get_backend() -> ArrayOps:
    """The backend active on the calling thread."""
    stack = getattr(_TLS, "stack", None)
    if stack:
        return stack[-1]
    return _DEFAULT


def set_backend(backend: str | ArrayOps) -> ArrayOps:
    """Replace the process-wide default backend; returns the instance."""
    global _DEFAULT
    _DEFAULT = resolve_backend(backend)
    return _DEFAULT


@contextlib.contextmanager
def use_backend(backend: str | ArrayOps) -> Iterator[ArrayOps]:
    """Thread-local backend override for the duration of the block."""
    ops = resolve_backend(backend)
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    stack.append(ops)
    try:
        yield ops
    finally:
        stack.pop()
