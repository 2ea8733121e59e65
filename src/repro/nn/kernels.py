"""Autograd kernels for the profiled hot paths, one body each.

Layers (:class:`~repro.nn.layers.Dense`,
:class:`~repro.nn.layers.Embedding`, :mod:`repro.nn.conv`, the attention
projections) and :func:`repro.nn.functional.l2_normalize` route through
these functions.  Each body was chosen on end-to-end step time, not on a
micro-benchmark (DESIGN.md §10):

* ``conv_window`` is the per-offset loop of scaled slices.  A stride-tricks
  GEMM was 3.2x faster in isolation and made the DIN+MISS step slower.
* ``linear_act`` and ``l2_normalize`` are one graph node each with a
  hand-written backward.  The compositions of primitives they replaced
  (matmul + add + relu; the six-node normaliser) live on in
  ``tests/oracles.py``, which holds them to ``rtol=1e-9``.
"""

from __future__ import annotations

import numpy as np

from .backend import get_backend
from .tensor import Tensor

__all__ = ["conv_window", "embedding_lookup", "linear_act", "l2_normalize"]

_OPS = get_backend()


def _axis_slice(ndim: int, axis: int, start: int, stop: int) -> tuple:
    key = [slice(None)] * ndim
    key[axis] = slice(start, stop)
    return tuple(key)


def conv_window(x: Tensor, weight: Tensor, axis: int) -> Tensor:
    """Valid-mode convolution of the 1-D kernel ``weight`` along ``axis``.

    This is the workhorse of MIE (``axis=2``, the time axis of
    ``(B, J, L, K)``) and MIMFE (``axis=1``, the field axis).  The output
    length along ``axis`` is ``x.shape[axis] - len(weight) + 1``: a sum of
    shifted, scaled slices, added in offset order.
    """
    width = weight.shape[0]
    out_len = x.shape[axis] - width + 1
    result: Tensor | None = None
    for offset in range(width):
        sl = x[_axis_slice(x.ndim, axis, offset, offset + out_len)]
        term = sl * weight[offset]
        result = term if result is None else result + term
    return result


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather with a dense scatter-add backward into ``table``.

    :meth:`Tensor.take` owns the backward (flat ``bincount`` segment-sum,
    freshly built gradient adopted).
    """
    return table.take(np.asarray(indices, dtype=np.int64), axis=0)


def linear_act(x: Tensor, weight: Tensor, bias: Tensor | None = None,
               relu: bool = False) -> Tensor:
    """``relu(x @ weight + bias)`` (ReLU and bias optional) as one node.

    Accepts inputs of any rank; the contraction is over the last axis.  The
    bias add and the ReLU run in place on the product, and the backward
    collapses rank-N inputs into one pair of GEMMs.
    """
    x_data, w_data = x.data, weight.data
    out_data = x_data @ w_data
    if bias is not None:
        out_data += bias.data
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def backward(grad: np.ndarray) -> None:
        g = grad * (out_data > 0) if relu else grad
        g = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accumulate((g @ w_data.T).reshape(x_data.shape))
        if weight.requires_grad:
            weight._accumulate(x_data.reshape(-1, x_data.shape[-1]).T @ g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, "linear_act", backward)


def l2_normalize(x: Tensor, axis: int, eps: float) -> Tensor:
    """``x / (||x||_2 + eps)`` along ``axis`` (the InfoNCE normaliser)."""
    x_data = x.data
    out_data, norm = _OPS.l2_normalize(x_data, axis, eps)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(_OPS.l2_normalize_backward(grad, x_data, norm, axis,
                                                 eps))

    return Tensor._make(out_data, (x,), "l2_normalize", backward)
