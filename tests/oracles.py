"""Oracles for the kernels of ``repro.nn.kernels``.

``linear_act``, ``l2_normalize``, ``local_activation``, ``dice`` and
``conv_views`` are one graph node each in the library.  The compositions of
autograd primitives they replaced are kept here: for ``conv_views``, the map
spelling (every MIE/MIMFE map built in full by the per-offset convolution
loop and a ReLU, then each view cut from it by a getitem).  So is the
per-view spelling of a contrastive level's front (:func:`level_input`) that
``conv_views`` and ``field_linear`` replaced.  Each kernel's forward does
its composition's arithmetic in the same order, so values must be equal
(``==``); gradients add the same products in another order and must agree
to ``rtol=1e-9``, nothing looser.  :func:`kernel_set` swaps the
compositions in for a scope, so a whole model can be run on them.

:func:`blocked_forward_logits` is the inference forward as a loop over
``PARITY_BLOCK``-row blocks, one model forward each: the spelling
``serving.forward.forward_logits`` replaced with one forward per 128 rows
whose gemms run in 32-row tiles.  Their logits must be equal (``==``).

:class:`PerParameterAdam` is Adam as a loop over parameters, each with its
own moment arrays: the spelling ``repro.nn.Adam``'s whole-vector masked
passes replaced.  Weights and moments must be equal (``==``).
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.data import Batch
from repro.nn import Tensor, concatenate, kernels, no_grad, stack
from repro.nn import functional as F
from repro.serving import PARITY_BLOCK

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
    """Valid-mode convolution along ``axis`` as the seed's per-offset loop:
    a slice, a scalar index, a mul and an add per kernel offset."""
    width = weight.shape[0]
    out_len = x.shape[axis] - width + 1
    result = None
    for offset in range(width):
        key = [slice(None)] * x.ndim
        key[axis] = slice(offset, offset + out_len)
        term = x[tuple(key)] * weight[offset]
        result = term if result is None else result + term
    return result


def conv_map(x: Tensor, horizontal: Tensor | None,
             vertical: Tensor | None) -> Tensor:
    """The whole map a source names (Eq. 19 and 22): ``relu`` of the time
    convolution of ``x`` (``x`` itself without a time kernel), then, with a
    field kernel, ``relu`` of its field convolution."""
    h = x if horizontal is None else conv_window(x, horizontal, 2).relu()
    return h if vertical is None else conv_window(h, vertical, 1).relu()


def conv_views(x: Tensor, sources, which: np.ndarray, cols: np.ndarray,
               rows: np.ndarray | None = None) -> Tensor:
    """``kernels.conv_views`` as the map spelling: each source's map built
    in full (:func:`conv_map`), each view cut from it by
    :func:`window_view`, the views stacked."""
    maps = [conv_map(x, *kernel_pair) for kernel_pair in sources]
    return stack([window_view(maps[s], cols[v],
                              None if rows is None else int(rows[v]))
                  for v, s in enumerate(which)], axis=0)


def local_activation_scores(sequence: Tensor, candidate: Tensor,
                            mask: np.ndarray, w1: Tensor, b1: Tensor,
                            w2: Tensor, b2: Tensor) -> Tensor:
    """The LAU's ``(B, L)`` attention weights as the kernel folds them:
    ``w1``'s row blocks ``(w_e, w_c, w_d, w_p)`` into ``fold = c·w_p +
    (w_e + w_d)`` and ``shift = c @ (w_c - w_d) + b1``, the pre-activation
    ``e @ fold + shift``, then the 36 → 1 scorer and the masked softmax,
    each a composition of primitives."""
    dim = sequence.shape[-1]
    blocks = w1.reshape(4, dim, w1.shape[-1])
    w_e, w_c, w_d, w_p = (blocks[i] for i in range(4))
    fold = candidate.expand_dims(-1) * w_p + (w_e + w_d)
    shift = linear_act(candidate, w_c - w_d, b1)
    hidden = (sequence @ fold + shift.expand_dims(1)).sigmoid()
    raw = linear_act(hidden, w2, b2).squeeze(-1)
    return F.masked_softmax(raw, mask, axis=-1)


def local_activation_eq4_scores(sequence: Tensor, candidate: Tensor,
                                mask: np.ndarray, w1: Tensor, b1: Tensor,
                                w2: Tensor, b2: Tensor) -> Tensor:
    """The same weights as Eq. 4 and DIN write them: the ``[e, c, e - c,
    e·c]`` concatenation through the 4K → 36 sigmoid → 1 scorer.  Equal to
    the folded spelling in real arithmetic, not in floating point."""
    batch, seq_len, dim = sequence.shape
    cand = candidate.expand_dims(1).broadcast_to((batch, seq_len, dim))
    features = concatenate(
        [sequence, cand, sequence - cand, sequence * cand], axis=-1)
    hidden = linear_act(features, w1, b1).sigmoid()
    raw = linear_act(hidden, w2, b2).squeeze(-1)
    return F.masked_softmax(raw, mask, axis=-1)


def local_activation(sequence: Tensor, candidate: Tensor, mask: np.ndarray,
                     w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                     scores=local_activation_scores) -> Tensor:
    """The LAU's pooling: the behaviours summed under the weights
    ``scores`` computes."""
    weights = scores(sequence, candidate, mask, w1, b1, w2, b2)
    return (sequence * weights.expand_dims(-1)).sum(axis=1)


def dice(x: Tensor, alpha: Tensor, mean: np.ndarray,
         std: np.ndarray) -> Tensor:
    """Dice as sub, div, sigmoid, three muls and two adds."""
    gate = ((x - Tensor(mean)) / Tensor(std)).sigmoid()
    return gate * x + (1.0 - gate) * alpha * x


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """The row gather as a fancy index, whose backward is ``np.add.at``."""
    return table[np.asarray(indices, dtype=np.int64)]


def window_view(source: Tensor, cols: np.ndarray,
                row: int | None = None) -> Tensor:
    """One view as a fancy getitem of its ``(B, R, L, K)`` map: every row at
    ``cols[b]``, flattened (``row`` None, an interest view), or row ``row``
    alone (a feature view)."""
    samples = np.arange(source.shape[0])
    if row is None:
        return source[samples, :, cols].flatten_from(1)
    return source[samples, row, cols]


def level_input(pairs, whole_rows: bool, encoder) -> Tensor:
    """A level's ``(2P·B, D)`` trunk input as it was spelled per view: each
    source's map built once (:func:`conv_map`), each view cut from it by
    :func:`window_view`, projected alone (the field-aware encoder's
    ``projections[window.row]``, or nothing), then one ``concatenate`` of
    every first view and every second."""
    projections = getattr(encoder, "projections", None)
    maps = {}
    views = []
    for pair, window in ([(p, p.window1) for p in pairs]
                         + [(p, p.window2) for p in pairs]):
        source = pair.source
        if id(source) not in maps:
            maps[id(source)] = conv_map(source.base, source.horizontal,
                                        source.vertical)
        view = window_view(maps[id(source)], window.cols,
                           None if whole_rows else window.row)
        views.append(view if projections is None
                     else projections[window.row](view))
    return concatenate(views, axis=0)


#: The one-node kernels ``kernel_set("reference")`` replaces.
SWAPPED = ("linear_act", "l2_normalize", "conv_views", "local_activation",
           "dice")


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
    saved = {attr: getattr(kernels, attr) for attr in SWAPPED}
    try:
        for attr in SWAPPED:
            setattr(kernels, attr, globals()[attr])
        yield
    finally:
        for attr, original in saved.items():
            setattr(kernels, attr, original)


def byte_keyed_masks(pairs, sequences: np.ndarray) -> np.ndarray:
    """The false-negative masks as they were keyed before one key table per
    batch: every window's id block gathered into a common ``max height ×
    max width`` block (cells outside a window zeroed), each block's bytes
    reduced to one key by ``np.unique``, and only ``(B, B)`` keys
    compared."""
    batch = sequences.shape[0]
    windows = [w for pair in pairs for w in (pair.window1, pair.window2)]
    heights = np.array([w.height for w in windows])
    widths = np.array([w.width for w in windows])
    dr, dc = np.arange(heights.max()), np.arange(widths.max())
    in_rows = dr < heights[:, None]                     # (W, H)
    in_cols = (dc < widths[:, None])[:, None, :]        # (W, 1, M)
    rows = np.array([w.row for w in windows])[:, None] + dr
    cols = np.stack([w.cols for w in windows])[:, :, None] + dc
    blocks = sequences[np.arange(batch)[None, :, None, None],
                       np.where(in_rows, rows, 0)[:, None, :, None],
                       np.where(in_cols, cols, 0)[:, :, None, :]]
    inside = in_rows[:, None, :, None] & in_cols[:, :, None, :]
    flat = np.where(inside, blocks, 0).reshape(len(windows) * batch, -1)
    row_bytes = np.dtype((np.void, flat.dtype.itemsize * flat.shape[1]))
    keys = np.unique(flat.view(row_bytes).ravel(), return_inverse=True)[1]
    keys = keys.reshape(len(pairs), 2, batch)
    first, second = keys[:, 0], keys[:, 1]
    return ((second[:, :, None] == second[:, None, :])
            | (first[:, :, None] == second[:, None, :]))


def blocked_forward_logits(model, batch: Batch,
                           block_size: int = PARITY_BLOCK) -> np.ndarray:
    """Logits of ``batch`` under ``no_grad``, one model forward per
    ``block_size``-row block, the final partial block padded by repeating
    its last row (padded rows are computed and discarded)."""
    outputs = []
    with no_grad():
        for start in range(0, len(batch), block_size):
            arrays = [a[start:start + block_size] for a in (
                batch.categorical, batch.sequences, batch.mask, batch.labels)]
            rows = len(arrays[0])
            if rows < block_size:
                arrays = [np.concatenate([a, np.repeat(a[-1:],
                                                       block_size - rows,
                                                       axis=0)])
                          for a in arrays]
            block = Batch(categorical=arrays[0], sequences=arrays[1],
                          mask=arrays[2], labels=arrays[3])
            outputs.append(np.asarray(model.predict_logits(block).data,
                                      dtype=np.float64)[:rows])
    return np.concatenate(outputs)


class PerParameterAdam:
    """Adam stepped one parameter at a time; a parameter whose ``grad`` is
    ``None`` is skipped (it neither moves nor decays its moments)."""

    def __init__(self, parameters, lr, weight_decay=0.0,
                 betas=(0.9, 0.999), eps=1e-8):
        self.parameters = list(parameters)
        self.lr, self.weight_decay = lr, weight_decay
        self.betas, self.eps = betas, eps
        self.m = [np.zeros_like(p.data) for p in self.parameters]
        self.v = [np.zeros_like(p.data) for p in self.parameters]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1 ** self.t
        bias2 = 1.0 - beta2 ** self.t
        for p, m, v in zip(self.parameters, self.m, self.v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = p.grad + self.weight_decay * p.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
