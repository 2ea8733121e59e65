"""Autograd kernels for the profiled hot paths, one body each.

Layers (:class:`~repro.nn.layers.Dense`, :class:`~repro.nn.layers.Dice`,
:class:`~repro.nn.layers.Embedding`, the attention layers), the MISS
contrastive levels and :func:`repro.nn.functional.l2_normalize` route
through these functions.  Each body was chosen on end-to-end step time, not
on a micro-benchmark (DESIGN.md §10):

* Every kernel but ``embedding_lookup`` is one graph node with a
  hand-written backward.  The compositions of primitives they replaced live
  on in ``tests/oracles.py``.  Each forward does its composition's
  arithmetic in the same order, so values are the composition's to the bit;
  gradients agree to ``rtol=1e-9``.
* ``local_activation``'s bits follow the *folded* composition
  (``oracles.local_activation_scores``: ``e @ (c·w_p + w_e + w_d) + c @
  (w_c - w_d) + b1``), not Eq. 4's ``[e, c, e - c, e·c] @ w1 + b1``.  The
  two are one function in real arithmetic; the kernel's values stay within
  ``rtol=1e-12`` of the concatenation (``oracles.local_activation_eq4_scores``).
* ``conv_views`` and ``field_linear`` are the front of one contrastive
  level: every view of the level computed from the sequence embeddings and
  the convolution kernels by one node (the MIE/MIMFE maps are never built;
  a view reads a handful of their cells), then pushed through its field's
  projection by one more.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .backend import get_backend
from .tensor import Tensor, _unbroadcast, row_matmul

__all__ = ["conv_views", "dice", "embedding_lookup", "field_linear",
           "linear_act", "l2_normalize", "local_activation"]

_OPS = get_backend()


def _sigmoid_(a: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-clip(a, -60, 60)))`` in place, with the arithmetic
    of :meth:`Tensor.sigmoid`; returns ``a``."""
    np.clip(a, -60.0, 60.0, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    return np.divide(1.0, a, out=a)


def dice(x: Tensor, alpha: Tensor, mean: np.ndarray,
         std: np.ndarray) -> Tensor:
    """DIN's Dice, ``p·x + (1 - p)·alpha·x`` with ``p = sigmoid((x - mean)
    / std)``, as one node.

    ``mean`` and ``std`` are constants (the batch or running statistics):
    no gradient flows through them.
    """
    x_data, alpha_data = x.data, alpha.data
    gate = _sigmoid_(np.divide(x_data - mean, std))
    rest = 1.0 - gate
    leak = rest * alpha_data
    out_data = gate * x_data
    out_data += leak * x_data

    def backward(grad: np.ndarray) -> None:
        grad_x = grad * x_data
        if x.requires_grad:
            # Through the gate: d/dz sigmoid(z) = gate·rest, z = (x-mean)/std.
            grad_in = grad_x - grad_x * alpha_data
            grad_in *= gate
            grad_in *= rest
            grad_in /= std
            grad_in += grad * (gate + leak)
            x._accumulate(grad_in)
        if alpha.requires_grad:
            alpha._accumulate(_unbroadcast(grad_x * rest, alpha_data.shape))

    return Tensor._make(out_data, (x, alpha), "dice", backward)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather with a dense scatter-add backward into ``table``.

    :meth:`Tensor.take` owns the backward (flat ``bincount`` segment-sum,
    freshly built gradient adopted).
    """
    return table.take(np.asarray(indices, dtype=np.int64), axis=0)


def _in_range(index: np.ndarray, size: int, what: str) -> np.ndarray:
    """``index`` itself, refused if any entry falls outside ``[0, size)``:
    a flat cell index past a row's end would silently read the next row."""
    if index.size and not 0 <= index.min() <= index.max() < size:
        raise IndexError(f"{what} out of range for size {size}")
    return index


def _weighted_sum(cells: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``Σ_o cells[o] · weight[o]`` over the leading axis, added in offset
    order: a valid convolution's arithmetic at the cells it reaches."""
    out = cells[0] * weight[0]
    if len(weight) > 1:
        scratch = np.empty_like(out)
        for o in range(1, len(weight)):
            out += np.multiply(cells[o], weight[o], out=scratch)
    return out


def conv_views(x: Tensor, sources: Sequence[tuple[Tensor | None,
                                                   Tensor | None]],
               which: np.ndarray, cols: np.ndarray,
               rows: np.ndarray | None = None) -> Tensor:
    """Cells of ReLU convolution maps of ``(B, J, L, K)`` ``x`` as one
    ``(V, B, ·)`` node, computed from ``x`` and the kernels: no map is built.

    Source ``(w, u) = sources[s]`` names the map ``H = relu(Σ_o x[:, :,
    t+o] · w[o])`` along time (``x`` itself when ``w`` is None), then, when
    ``u`` is given, ``relu(Σ_q H[:, r+q] · u[q])`` along the field axis.
    View ``v`` takes, for every sample ``b``, time column ``cols[v, b]`` of
    map ``which[v]``: all ``J`` rows flattened to ``J·K`` values when
    ``rows`` is None (no source has a ``u``), else row ``rows[v]`` alone,
    ``K`` values.

    Each cell does its map's arithmetic: the products added in offset
    order, ReLU as ``h * (h > 0)``, so values are the map's to the bit.  The
    backward scatters into ``x`` with one flat ``bincount`` (adopted) and
    sums each kernel's gradient over the cells that read it.
    """
    x_data = x.data
    batch, num_fields, length, dim = x_data.shape
    which = np.asarray(which)
    cols = np.asarray(cols, dtype=np.int64)
    if rows is None and any(u is not None for _, u in sources):
        raise ValueError("whole-row views take no field kernel")
    by_row = x_data.reshape(-1, dim)
    samples = np.arange(batch)
    out_data = np.empty((len(which), batch,
                         num_fields * dim if rows is None else dim))
    groups = []
    for s, (w, u) in enumerate(sources):
        views = np.flatnonzero(which == s)
        if not views.size:
            continue
        width = 1 if w is None else w.shape[0]
        height = num_fields if rows is None else (1 if u is None
                                                  else u.shape[0])
        view_cols = _in_range(cols[views], length - width + 1, "time column")
        first = (np.zeros(len(views), dtype=np.int64) if rows is None else
                 _in_range(rows[views], num_fields - height + 1, "field row"))
        field_rows = first[:, None] + np.arange(height)          # (n, h)
        # The x row each cell starts at: (n, B, h) for whole-row views,
        # (h, n, B) under a field kernel, so that every offset's cells, and
        # then every field row's, are one contiguous block.
        if rows is None:
            starts = ((samples[:, None] * num_fields + field_rows[:, None])
                      * length + view_cols[:, :, None])
        else:
            starts = ((samples * num_fields + field_rows.T[:, :, None])
                      * length + view_cols)
        index = starts + np.arange(width).reshape((-1,) + (1,) * starts.ndim)
        groups.append((w, u, views, index))
    # Every cell read, as a row of x, in one buffer.  The backward writes
    # each cell's gradient over it once the kernel gradients have read it.
    row_index = np.concatenate([index.reshape(-1) for *_, index in groups])
    all_cells = np.take(by_row, row_index, axis=0)
    saved = []
    filled = 0
    for w, u, views, index in groups:
        cells = all_cells[filled:filled + index.size].reshape(
            index.shape + (dim,))                     # (w, ..., K)
        filled += index.size
        if w is None:
            h_live, h = None, cells[0]
        else:
            h = _weighted_sum(cells, w.data)
            h_live = h > 0
            h *= h_live
        if u is None:
            live = None
            out_data[views] = h.reshape(len(views), batch, -1)
        else:
            pre = _weighted_sum(h, u.data)
            live = pre > 0
            out_data[views] = pre * live
        saved.append((w, u, views, cells, h, h_live, live))

    spent = False

    def backward(grad: np.ndarray) -> None:
        nonlocal spent
        if spent:
            raise RuntimeError("conv_views' backward consumes its buffer: "
                               "one walk per forward")
        spent = True
        kernel_grads: dict[int, tuple[Tensor, np.ndarray]] = {}

        def add_kernel_grad(kernel, taps, cotangent):
            # Σ over every cell of cotangent · tap, one tap per weight.
            if kernel.requires_grad:
                total = kernel_grads.setdefault(
                    id(kernel), (kernel, np.zeros(kernel.shape)))[1]
                total += taps.reshape(len(taps), -1) @ cotangent.reshape(-1)

        for w, u, views, cells, h, h_live, live in saved:
            g = grad[views]
            if u is None:
                d_h = g.reshape(h.shape)
            else:
                g *= live
                add_kernel_grad(u, h, g)
                d_h = np.multiply.outer(u.data, g)
            if w is None:
                cells[0] = d_h
            else:
                d_h *= h_live
                add_kernel_grad(w, cells, d_h)
                np.multiply.outer(w.data, d_h, out=cells)
        if x.requires_grad:
            # Row r of x is flat cells r·K .. r·K + K - 1.
            cell_index = np.take(np.arange(x_data.size).reshape(-1, dim),
                                 row_index, axis=0)
            full = np.bincount(cell_index.reshape(-1),
                               weights=all_cells.reshape(-1),
                               minlength=x_data.size)
            x._adopt(full.reshape(x_data.shape))
        for kernel, total in kernel_grads.values():
            kernel._adopt(total)

    weights = tuple({id(k): k for pair in sources for k in pair
                     if k is not None}.values())
    return Tensor._make(out_data, (x,) + weights, "conv_views", backward)


def field_linear(x: Tensor, fields: np.ndarray, weights: Sequence[Tensor],
                 biases: Sequence[Tensor]) -> Tensor:
    """``x[v] @ weights[fields[v]] + biases[fields[v]]`` for every view ``v``
    of a ``(V, B, D)`` stack, as one node: one GEMM per field over that
    field's views.

    Each field's product is the stacked ``(n, B, D) @ (D, N)``, which runs
    one ``(B, D)`` GEMM per view, so values are a per-view ``linear_act``'s
    to the bit.
    """
    x_data = x.data
    fields = np.asarray(fields)
    groups = [(weights[f], biases[f], np.flatnonzero(fields == f))
              for f in np.unique(fields)]
    out_data = np.empty(x_data.shape[:-1] + (weights[0].shape[1],))
    for weight, bias, views in groups:
        block = x_data[views] @ weight.data
        block += bias.data
        out_data[views] = block

    def backward(grad: np.ndarray) -> None:
        grad_x = np.empty(x_data.shape) if x.requires_grad else None
        for weight, bias, views in groups:
            g = grad[views]
            if grad_x is not None:
                grad_x[views] = g @ weight.data.T
            g = g.reshape(-1, g.shape[-1])
            if weight.requires_grad:
                weight._accumulate(
                    x_data[views].reshape(-1, x_data.shape[-1]).T @ g)
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=0))
        if grad_x is not None:
            x._accumulate(grad_x)

    parents = (x,) + tuple(t for weight, bias, _ in groups
                           for t in (weight, bias))
    return Tensor._make(out_data, parents, "field_linear", backward)


def linear_act(x: Tensor, weight: Tensor, bias: Tensor | None = None,
               relu: bool = False) -> Tensor:
    """``relu(x @ weight + bias)`` (ReLU and bias optional) as one node.

    Accepts inputs of any rank; the contraction is over the last axis.  The
    bias add and the ReLU run in place on the product, and the backward
    collapses rank-N inputs into one pair of GEMMs.  The product is a
    :func:`~repro.nn.tensor.row_matmul`: 32-row tiles inside an inference
    forward.
    """
    x_data, w_data = x.data, weight.data
    out_data = row_matmul(x_data, w_data)
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


def local_activation(sequence: Tensor, candidate: Tensor, mask: np.ndarray,
                     w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """DIN's local activation unit (Eq. 4) as one node: ``(B, L, K)``
    behaviours pooled into ``(B, K)`` against a ``(B, K)`` candidate.

    Each behaviour ``e`` is scored ``sigmoid([e, c, e - c, e·c] @ w1 + b1)
    @ w2 + b2``; the scores go through a softmax over the positions where
    ``mask`` is True (a row with none pools to zero) and weight the sum of
    the behaviours.

    The features are never built.  ``w1``'s row blocks ``(w_e, w_c, w_d,
    w_p)`` fold, per sample, into ``fold = c·w_p + (w_e + w_d)`` (``K × H``)
    and ``shift = c @ (w_c - w_d) + b1`` (a
    :func:`~repro.nn.tensor.row_matmul`), so the pre-activation is ``e @
    fold + shift``: ``K·H`` multiply-adds a behaviour instead of ``4K·H``.
    """
    seq, cand = sequence.data, candidate.data
    dim = seq.shape[-1]
    w_e, w_c, w_d, w_p = w1.data.reshape(4, dim, -1)
    fold = cand[:, :, None] * w_p
    fold += w_e + w_d
    shift = row_matmul(cand, w_c - w_d)
    shift += b1.data
    hidden = seq @ fold
    hidden += shift[:, None]
    _sigmoid_(hidden)
    raw = hidden @ w2.data
    raw += b2.data
    # The masked softmax over the squeezed scores, as F.masked_softmax
    # spells it: masked positions shifted by -1e9, rows without a valid
    # position zeroed.
    mask = np.asarray(mask, dtype=bool)
    shifted = raw[..., 0] + np.where(mask, 0.0, -1e9)
    exp = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
    softmax = exp / exp.sum(axis=-1, keepdims=True)
    valid = np.where(mask.any(axis=-1, keepdims=True), 1.0, 0.0)
    weights = (softmax * valid)[..., None]
    out_data = (seq * weights).sum(axis=1)

    spent = False

    def backward(grad: np.ndarray) -> None:
        nonlocal spent
        if spent:
            raise RuntimeError("local_activation's backward consumes its "
                               "buffer: one walk per forward")
        spent = True
        grad = grad[:, None, :]
        grad_weights = (grad * seq).sum(axis=-1)
        grad_weights *= valid
        grad_raw = grad_weights - (grad_weights * softmax).sum(axis=-1,
                                                               keepdims=True)
        grad_raw *= softmax
        grad_raw = grad_raw[..., None]
        if w2.requires_grad:
            w2._accumulate(hidden.reshape(-1, hidden.shape[-1]).T
                           @ grad_raw.reshape(-1, 1))
        if b2.requires_grad:
            b2._accumulate(grad_raw.sum(axis=(0, 1)))
        # The pre-activation gradient G, built in hidden's buffer now that
        # w2's gradient has read it: this is what spends the node.
        grad_pre = hidden
        grad_pre *= 1.0 - hidden
        grad_pre *= grad_raw
        grad_pre *= w2.data[:, 0]
        # Σ_l G as a batched GEMV (an axis-1 sum reads the buffer slower).
        grad_shift = np.ones(seq.shape[1]) @ grad_pre
        if b1.requires_grad:
            b1._accumulate(grad_shift.sum(axis=0))
        if w1.requires_grad or candidate.requires_grad:
            # Q = seqᵀ·G per sample, (B, K, H), and the same per row of K,
            # (K, B, H): every gradient below but the sequence's reads it.
            moment = np.swapaxes(seq, 1, 2) @ grad_pre
            by_dim = np.swapaxes(moment, 0, 1)
        if w1.requires_grad:
            # One (4K, H) buffer built by adding into zeros, adopted.  The
            # blocks: Σ_b Q_b, cᵀ·Σ_l G, their difference (the feature
            # e - c) and Σ_b diag(c_b)·Q_b.
            grad_w1 = np.zeros((4, dim, grad_pre.shape[-1]))
            grad_w1[0] += moment.sum(axis=0)
            grad_w1[1] += cand.T @ grad_shift
            grad_w1[2] += grad_w1[0] - grad_w1[1]
            grad_w1[3] += (cand.T[:, None, :] @ by_dim)[:, 0]
            w1._adopt(grad_w1.reshape(4 * dim, -1))
        if sequence.requires_grad:
            grad_seq = grad_pre @ np.swapaxes(fold, 1, 2)
            grad_seq += grad * weights
            sequence._accumulate(grad_seq)
        if candidate.requires_grad:
            # Σ_l G·(w_c - w_d)ᵀ plus Σ_h w_p ⊙ Q_b.
            grad_cand = grad_shift @ (w_c - w_d).T
            grad_cand += (by_dim @ w_p[:, :, None])[..., 0].T
            candidate._accumulate(grad_cand)

    return Tensor._make(out_data, (sequence, candidate, w1, b1, w2, b2),
                        "local_activation", backward)
