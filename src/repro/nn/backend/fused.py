"""The fused backend: optimized kernels for the profiled hot paths.

Three kernel families and one first-touch rule replace the reference
compositions (the embedding scatter is not among them: every backend uses
the ``bincount`` segment-sum in ``Tensor.take``):

* **Windowed convolutions** (MIE horizontal / MIMFE vertical): the per-offset
  Python loop of scaled slices becomes one ``sliding_window_view`` plus a
  single GEMM (``tensordot`` over the window axis); the input gradient is the
  same GEMM against the flipped kernel over a zero-padded window view.
* **Fused linear**: ``relu(x @ w + b)`` runs as one node with in-place bias
  add and ReLU; the backward collapses rank-N inputs to a single pair of
  GEMMs instead of a batched matmul followed by an axis reduction.
* **Gradient first touch**: ``memcpy`` into the recycled buffer instead of
  the reference's ``0.0 + grad`` (the pool itself belongs to every backend:
  see :class:`~repro.nn.backend.base.ArrayOps`).

Everything is float64 and deterministic; agreement with the reference
composition (values and gradients, to round-off) is enforced by the
gradcheck suite.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import ArrayOps

__all__ = ["FusedOps"]


class FusedOps(ArrayOps):
    """Optimized kernels + copy-in gradient first touch."""

    name = "fused"
    fuses_conv = True
    fuses_linear = True
    fuses_l2norm = True

    # ------------------------------------------------------------------
    # Gradient accumulation: first touch is a plain copy
    # ------------------------------------------------------------------
    def grad_init(self, grad: np.ndarray, like: np.ndarray) -> np.ndarray:
        out = self.pool.acquire(like.shape, like.dtype)
        np.copyto(out, grad)
        return out

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
