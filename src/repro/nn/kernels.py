"""Backend-dispatched autograd kernels for the profiled hot paths.

Each function here is a *seam*: it consults the active
:class:`~repro.nn.backend.ArrayOps` and either

* replays the exact multi-node autograd composition the seed implementation
  used (when the backend does not fuse the kernel) — this path is
  bit-identical to the pre-seam code, gradients included, which is what keeps
  the benchmark cache, serving golden parity, and bit-identical resume
  valid on the ``reference`` backend; or
* records a single fused graph node whose forward and backward call straight
  into the backend's optimized kernel.

Layers (:class:`~repro.nn.layers.Dense`,
:class:`~repro.nn.layers.Embedding`, :mod:`repro.nn.conv`, the attention
projections) and :func:`repro.nn.functional.l2_normalize` route through
these functions, so adding a backend never requires touching the layer
definitions again.
"""

from __future__ import annotations

import numpy as np

from .backend import get_backend
from .tensor import Tensor

__all__ = ["conv_window", "embedding_lookup", "linear_act", "l2_normalize"]


def _axis_slice(ndim: int, axis: int, start: int, stop: int) -> tuple:
    key = [slice(None)] * ndim
    key[axis] = slice(start, stop)
    return tuple(key)


def conv_window(x: Tensor, weight: Tensor, axis: int) -> Tensor:
    """Valid-mode convolution of the 1-D kernel ``weight`` along ``axis``.

    This is the workhorse of MIE (``axis=2``, the time axis of
    ``(B, J, L, K)``) and MIMFE (``axis=1``, the field axis).  The output
    length along ``axis`` is ``x.shape[axis] - len(weight) + 1``.
    """
    ops = get_backend()
    width = weight.shape[0]
    out_len = x.shape[axis] - width + 1
    if not ops.fuses_conv:
        # Reference composition: sum of shifted, scaled slices — exactly the
        # seed implementation's graph (same slice keys, same add order).
        result: Tensor | None = None
        for offset in range(width):
            sl = x[_axis_slice(x.ndim, axis, offset, offset + out_len)]
            term = sl * weight[offset]
            result = term if result is None else result + term
        return result

    out_data = ops.conv_window(x.data, weight.data, axis)
    x_data, w_data = x.data, weight.data

    def backward(grad: np.ndarray) -> None:
        gx, gw = ops.conv_window_backward(grad, x_data, w_data, axis)
        if x.requires_grad:
            x._accumulate(gx)
        if weight.requires_grad:
            weight._accumulate(gw)

    return Tensor._make(out_data, (x, weight), "conv_window", backward)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather with a dense scatter-add backward into ``table``.

    The same on every backend: :meth:`Tensor.take` owns the backward (flat
    ``bincount`` segment-sum, freshly built gradient adopted).
    """
    return table.take(np.asarray(indices, dtype=np.int64), axis=0)


def linear_act(x: Tensor, weight: Tensor, bias: Tensor | None = None,
               relu: bool = False) -> Tensor:
    """``relu(x @ weight + bias)`` (ReLU and bias optional).

    Accepts inputs of any rank; the contraction is over the last axis.  The
    fused path is one graph node with an in-place bias add and ReLU, and a
    backward that collapses rank-N inputs into a single pair of GEMMs.
    """
    ops = get_backend()
    if not ops.fuses_linear:
        out = x @ weight
        if bias is not None:
            out = out + bias
        return out.relu() if relu else out

    bias_data = bias.data if bias is not None else None
    out_data = ops.linear(x.data, weight.data, bias_data, relu)
    x_data, w_data = x.data, weight.data

    def backward(grad: np.ndarray) -> None:
        gx, gw, gb = ops.linear_backward(
            grad, x_data, w_data, out_data,
            has_bias=bias is not None and bias.requires_grad, relu=relu,
            need_gx=x.requires_grad, need_gw=weight.requires_grad)
        if gx is not None:
            x._accumulate(gx)
        if gw is not None:
            weight._accumulate(gw)
        if gb is not None:
            bias._accumulate(gb)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, "linear_act", backward)


def l2_normalize(x: Tensor, axis: int, eps: float) -> Tensor:
    """``x / (||x||_2 + eps)`` along ``axis`` (the InfoNCE normaliser)."""
    ops = get_backend()
    if not ops.fuses_l2norm:
        norm = (x * x).sum(axis=axis, keepdims=True).sqrt()
        return x / (norm + eps)

    out_data, norm = ops.l2_normalize(x.data, axis, eps)
    x_data = x.data

    def backward(grad: np.ndarray) -> None:
        x._accumulate(ops.l2_normalize_backward(grad, x_data, norm, axis,
                                                eps))

    return Tensor._make(out_data, (x,), "l2_normalize", backward)
