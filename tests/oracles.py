"""Oracles for the kernels of ``repro.nn.kernels``.

``linear_act`` and ``l2_normalize`` are one graph node each in the library.
The compositions of autograd primitives they replaced are kept here, and
the one-node versions must equal them, values and gradients, to
``rtol=1e-9``: they add the same products in another GEMM order, nothing
looser.  :func:`kernel_set` swaps the compositions in for a scope, so a
whole model can be run on them.

``conv_window`` is the per-offset loop in the library.  Its oracle is an
independent spelling: one ``sliding_window_view`` GEMM with a hand-written
backward (the transposed GEMM against the flipped kernel).
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import Tensor, attention, kernels

#: ``kernel_set`` names: the library's own one-node kernels, and the
#: compositions of primitives below.
KERNEL_SETS = ["reference", "fused"]


def linear_act(x: Tensor, weight: Tensor, bias: Tensor | None = None,
               relu: bool = False) -> Tensor:
    """``relu(x @ weight + bias)`` as matmul, add and relu nodes."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out.relu() if relu else out


def l2_normalize(x: Tensor, axis: int, eps: float) -> Tensor:
    """``x / (||x||_2 + eps)`` as six nodes (mul, sum, sqrt, add, div)."""
    norm = (x * x).sum(axis=axis, keepdims=True).sqrt()
    return x / (norm + eps)


def conv_window(x: Tensor, weight: Tensor, axis: int) -> Tensor:
    """Valid-mode convolution along ``axis`` as one windowed GEMM."""
    w = weight.data
    width = w.shape[0]
    windows = sliding_window_view(x.data, width, axis=axis)
    out = np.tensordot(windows, w, axes=([windows.ndim - 1], [0]))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # dL/dx[l] = Σ_m grad[l - m] · w[m]: the same GEMM against the
            # flipped kernel over zero-padded output gradients.
            pad = [(0, 0)] * grad.ndim
            pad[axis] = (width - 1, width - 1)
            padded = sliding_window_view(np.pad(grad, pad), width, axis=axis)
            x._accumulate(np.tensordot(padded, w[::-1].copy(),
                                       axes=([padded.ndim - 1], [0])))
        if weight.requires_grad:
            every = list(range(grad.ndim))
            weight._accumulate(np.tensordot(grad, windows,
                                            axes=(every, every)))

    return Tensor._make(out, (x, weight), "conv_window", backward)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """The row gather as a fancy index, whose backward is ``np.add.at``."""
    return table[np.asarray(indices, dtype=np.int64)]


@contextlib.contextmanager
def kernel_set(name: str):
    """Run the scope on the library's kernels (``"fused"``) or with the
    compositions above swapped in for its one-node kernels
    (``"reference"``)."""
    if name not in KERNEL_SETS:
        raise ValueError(f"unknown kernel set {name!r}")
    if name == "fused":
        yield
        return
    swapped = [(kernels, "linear_act", linear_act),
               (attention, "linear_act", linear_act),
               (kernels, "l2_normalize", l2_normalize)]
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _ in swapped]
    try:
        for module, attr, oracle in swapped:
            setattr(module, attr, oracle)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
