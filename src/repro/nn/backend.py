"""What every autograd node shares, and the heap policy its buffers need.

There is one array-math implementation (DESIGN.md §10), so there is one
:class:`ArrayOps` and :func:`get_backend` returns it.  It keeps the name
``"reference"``: serving manifests and benchmark environment stamps record
that name, and older servers only load artifacts that carry it.

Importing this module also sets the process's one allocator policy
(:func:`_keep_freed_memory`, DESIGN.md §10).
"""

from __future__ import annotations

import ctypes

import numpy as np

__all__ = ["ArrayOps", "get_backend"]

#: ``mallopt`` parameter numbers (glibc ``malloc.h``).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: Blocks below this come from the heap, not a private ``mmap`` that
#: ``free`` unmaps (glibc's own ceiling for the sliding threshold).
MMAP_THRESHOLD = 32 << 20

#: Free memory the heap keeps before returning its top to the kernel.
TRIM_THRESHOLD = 512 << 20


def _keep_freed_memory() -> None:
    """Let the heap keep what a step frees, so the next step reuses it.

    A DIN+MISS step allocates and frees the same few megabytes of numpy
    buffers every time.  glibc's defaults serve large blocks from ``mmap``
    and trim the heap's top once 128 KiB of it lie free (both thresholds
    sliding per process), so those buffers left the process after every
    ``backward()`` and came back as minor page faults: up to ~700 a warm
    step, 0 with these two fixed settings.  A C library without
    ``mallopt`` keeps its own policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_keep_freed_memory()


class ArrayOps:
    """The l2 forward/backward pair."""

    #: What artifact manifests record as ``"backend"``.
    name = "reference"

    # ------------------------------------------------------------------
    # L2 normalisation: ``kernels.l2_normalize`` and ``losses.info_nce``
    # are each one node built on this pair.
    # ------------------------------------------------------------------
    def l2_normalize(self, x: np.ndarray, axis: int,
                     eps: float) -> tuple[np.ndarray, np.ndarray]:
        """``(x / (||x|| + eps), ||x||)`` along ``axis`` (norm keeps dims)."""
        norm = np.sqrt(np.sum(x * x, axis=axis, keepdims=True))
        return x / (norm + eps), norm

    def l2_normalize_backward(self, grad: np.ndarray, x: np.ndarray,
                              norm: np.ndarray, axis: int,
                              eps: float) -> np.ndarray:
        """``dL/dx`` of :meth:`l2_normalize`.

        d||x||/dx uses max(||x||, 1e-12) in the denominator, the clamp of
        ``Tensor.sqrt``'s backward, so an all-zero row gets a finite
        gradient.
        """
        scale = norm + eps
        dot = np.sum(grad * x, axis=axis, keepdims=True)
        safe = np.maximum(norm, 1e-12)
        return grad / scale - x * (dot / (scale * scale * safe))

    def __repr__(self) -> str:
        return f"<ArrayOps {self.name!r}>"


_OPS = ArrayOps()


def get_backend() -> ArrayOps:
    """The one :class:`ArrayOps` every graph in the process shares."""
    return _OPS
