"""The fused backend: optimized kernels for the profiled hot paths.

Three kernel families and one buffer policy replace the reference
compositions (the embedding scatter is not among them: every backend uses
the ``bincount`` segment-sum in ``Tensor.take``):

* **Windowed convolutions** (MIE horizontal / MIMFE vertical): the per-offset
  Python loop of scaled slices becomes one ``sliding_window_view`` plus a
  single GEMM (``tensordot`` over the window axis); the input gradient is the
  same GEMM against the flipped kernel over a zero-padded window view.
* **Fused linear**: ``relu(x @ w + b)`` runs as one node with in-place bias
  add and ReLU; the backward collapses rank-N inputs to a single pair of
  GEMMs instead of a batched matmul followed by an axis reduction.
* **Gradient buffers**: first-accumulation allocates from a small per-shape
  buffer pool (``memcpy`` into a recycled buffer instead of ``0.0 + grad``
  into a fresh one), subsequent accumulations are in-place ``np.add``;
  ``Tensor.backward`` releases interior-node buffers back to the pool.

Everything is float64 and deterministic; agreement with the reference
composition (values and gradients, to round-off) is enforced by the
gradcheck suite.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import ArrayOps

__all__ = ["FusedOps"]


class _BufferPool:
    """Bounded per-(shape, dtype) free-list of gradient buffers.

    Buffers enter via :meth:`release` (from ``Tensor.backward`` clearing
    interior nodes and from ``zero_grad``) and leave via :meth:`acquire`.
    The cap bounds worst-case memory; arrays beyond it are simply dropped
    for the garbage collector.  A lock keeps the free-list consistent if a
    grad-recording forward ever runs off the main thread.
    """

    __slots__ = ("_buffers", "_cap", "_lock", "hits", "misses")

    def __init__(self, cap_per_key: int = 4):
        self._buffers: dict[tuple, list[np.ndarray]] = {}
        self._cap = cap_per_key
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def acquire(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype).str)
        with self._lock:
            stack = self._buffers.get(key)
            if stack:
                self.hits += 1
                return stack.pop()
            self.misses += 1
        return np.empty(shape, dtype=dtype)

    def release(self, array: np.ndarray) -> None:
        if array.base is not None:  # views are never safe to recycle
            return
        key = (array.shape, array.dtype.str)
        with self._lock:
            stack = self._buffers.setdefault(key, [])
            if len(stack) < self._cap:
                stack.append(array)

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()

    def size(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._buffers.values())


class FusedOps(ArrayOps):
    """Optimized kernels + pooled gradient buffers."""

    name = "fused"
    fuses_conv = True
    fuses_linear = True
    fuses_l2norm = True
    pools_gradients = True
    batches_ssl_views = True

    def __init__(self):
        self.pool = _BufferPool()

    # ------------------------------------------------------------------
    # Gradient accumulation with buffer pooling
    # ------------------------------------------------------------------
    def grad_init(self, grad: np.ndarray, like: np.ndarray) -> np.ndarray:
        out = self.pool.acquire(like.shape, like.dtype)
        np.copyto(out, grad)
        return out

    def grad_add(self, acc: np.ndarray, grad: np.ndarray) -> np.ndarray:
        np.add(acc, grad, out=acc)
        return acc

    def release_grad(self, grad: np.ndarray) -> None:
        self.pool.release(grad)

    def clear_pool(self) -> None:
        self.pool.clear()

    # ------------------------------------------------------------------
    # Windowed convolution: stride tricks + one GEMM
    # ------------------------------------------------------------------
    def conv_window(self, x: np.ndarray, w: np.ndarray,
                    axis: int) -> np.ndarray:
        width = w.shape[0]
        if width == 1:
            return x * w[0]
        windows = sliding_window_view(x, width, axis=axis)
        return np.tensordot(windows, w, axes=([windows.ndim - 1], [0]))

    def conv_window_backward(self, grad: np.ndarray, x: np.ndarray,
                             w: np.ndarray, axis: int,
                             ) -> tuple[np.ndarray, np.ndarray]:
        width = w.shape[0]
        if width == 1:
            return grad * w[0], np.array([float(np.vdot(grad, x))])
        windows = sliding_window_view(x, width, axis=axis)
        # dL/dw[m] = Σ grad · x[window shifted by m]: one GEMV over all
        # output positions at once.
        gw = np.tensordot(grad, windows,
                          axes=(list(range(grad.ndim)),
                                list(range(grad.ndim))))
        # dL/dx[l] = Σ_m grad[l - m] · w[m]: a *full* correlation, i.e. the
        # same windowed GEMM against the flipped kernel over zero-padded
        # grad.
        pad = [(0, 0)] * grad.ndim
        pad[axis] = (width - 1, width - 1)
        padded = np.pad(grad, pad)
        gwin = sliding_window_view(padded, width, axis=axis)
        gx = np.tensordot(gwin, w[::-1].copy(),
                          axes=([gwin.ndim - 1], [0]))
        return gx, gw

    # ------------------------------------------------------------------
    # Fused linear (+bias) (+ReLU)
    # ------------------------------------------------------------------
    def linear(self, x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
               relu: bool) -> np.ndarray:
        out = x @ w
        if b is not None:
            out += b
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    def linear_backward(self, grad: np.ndarray, x: np.ndarray, w: np.ndarray,
                        out: np.ndarray, *, has_bias: bool, relu: bool,
                        need_gx: bool, need_gw: bool,
                        ) -> tuple[np.ndarray | None, np.ndarray | None,
                                   np.ndarray | None]:
        g = grad * (out > 0) if relu else grad
        if x.ndim == 2:
            g2, x2 = g, x
        else:
            g2 = g.reshape(-1, g.shape[-1])
            x2 = x.reshape(-1, x.shape[-1])
        gx = None
        if need_gx:
            gx = g2 @ w.T
            if x.ndim != 2:
                gx = gx.reshape(x.shape)
        gw = x2.T @ g2 if need_gw else None
        gb = g2.sum(axis=0) if has_bias else None
        return gx, gw, gb

    # ------------------------------------------------------------------
    # Fused L2 normalisation (InfoNCE Eq. 15/16 hot path)
    # ------------------------------------------------------------------
    def l2_normalize(self, x: np.ndarray, axis: int,
                     eps: float) -> tuple[np.ndarray, np.ndarray]:
        norm = np.sqrt(np.sum(x * x, axis=axis, keepdims=True))
        return x / (norm + eps), norm

    def l2_normalize_backward(self, grad: np.ndarray, x: np.ndarray,
                              norm: np.ndarray, axis: int,
                              eps: float) -> np.ndarray:
        # Matches the reference composition, including its sqrt-backward
        # clamp: d||x||/dx uses max(||x||, 1e-12) in the denominator.
        scale = norm + eps
        dot = np.sum(grad * x, axis=axis, keepdims=True)
        safe = np.maximum(norm, 1e-12)
        return grad / scale - x * (dot / (scale * scale * safe))
