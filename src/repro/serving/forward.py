"""Deterministic inference forward shared by evaluation and serving.

BLAS gemm picks different kernels (and therefore different floating-point
summation orders) depending on the batch dimension ``M``: a 3-row batch and a
512-row batch of the *same* samples can produce logits that differ in the
last ulp.  That would break the serving contract that online scores are
bit-identical to the offline ``evaluate`` forward regardless of how requests
happen to coalesce into micro-batches.

:func:`forward_logits` removes the shape degree of freedom without a
model forward per block.  It runs the model **once** per
:data:`TILES_PER_FORWARD` tiles of :data:`PARITY_BLOCK` rows (128 rows),
the last forward padded to whole tiles by repeating its last row (padded
rows are computed and discarded; per-row results are independent of other
rows' values), under :func:`repro.nn.tiled_no_grad`.  Inside that block
every batch-row product (``kernels.linear_act``, the candidate term of
``kernels.local_activation``, ``Tensor.__matmul__``) is computed as the
stacked ``(rows / 32, 32, K) @ W``, for which numpy issues one gemm per
32-row tile.  Every gemm sees the same ``M`` whatever the batch size, so a
sample's logit is bit-identical no matter which batch split or cache state
produced it, and equal to a forward over its own 32-row block.
``tests/oracles.py::blocked_forward_logits`` spells that forward as a loop
over blocks, and ``tests/test_serving.py::TestForwardParity`` holds every
model to it with ``==``.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..models.base import CTRModel
from ..nn import get_backend, tiled_no_grad

__all__ = ["PARITY_BLOCK", "forward_logits", "sigmoid"]

#: Canonical row count of every inference-time gemm.  Changing this value
#: changes low-order logit bits, so it is recorded in exported artifact
#: manifests and checked on load.
PARITY_BLOCK = 32


#: Tiles per model forward: a longer batch is scored in forwards of this
#: many tiles (128 rows at PARITY_BLOCK).  That bounds a forward's buffers
#: (DIN+MISS peaks at 1.8 MB, 7 MB at 512 rows), whose cost grows with
#: them: 15,000-row forwards ran at half the rate of 512-row ones.  Offline,
#: with the heap policy set at import, 256- and 512-row forwards scored
#: ~10 % more rows/s than 128-row ones; whether that shows end to end is
#: not measured yet.
TILES_PER_FORWARD = 4


def _pad_rows(array: np.ndarray, count: int) -> np.ndarray:
    """Append ``count`` copies of the last row (values are discarded)."""
    return np.concatenate([array, np.repeat(array[-1:], count, axis=0)],
                          axis=0)


def forward_logits(model: CTRModel, batch: Batch,
                   block_size: int = PARITY_BLOCK,
                   backend: str | None = None) -> np.ndarray:
    """Logits of ``batch``: no-grad forwards of up to
    :data:`TILES_PER_FORWARD` tiles, their gemms in ``block_size``-row
    tiles.

    The result is bit-identical for a given sample regardless of batch
    composition, which is what lets the serving engine's dynamically-sized
    micro-batches reproduce offline evaluation exactly.  ``model`` is run in
    whatever train/eval mode it is currently in; inference callers put the
    model in eval mode once at load time.

    ``backend`` is ``None`` or the one array-math implementation's name
    (``"reference"``, what ``InferenceSession.backend`` reports); anything
    else is a ``ValueError``.
    """
    if backend not in (None, get_backend().name):
        raise ValueError(f"unknown array backend {backend!r}; this library "
                         f"has one: {get_backend().name!r}")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    n = len(batch)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    chunk = block_size * TILES_PER_FORWARD
    outputs = []
    for start in range(0, n, chunk):
        arrays = [a[start:start + chunk] for a in (
            batch.categorical, batch.sequences, batch.mask, batch.labels)]
        rows = len(arrays[0])
        pad = -rows % block_size
        if pad:
            arrays = [_pad_rows(a, pad) for a in arrays]
        part = Batch(categorical=arrays[0], sequences=arrays[1],
                     mask=arrays[2], labels=arrays[3])
        with tiled_no_grad(rows + pad, block_size):
            logits = model.predict_logits(part).data
        outputs.append(np.asarray(logits, dtype=np.float64)[:rows])
    return np.concatenate(outputs)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """Elementwise click probability; same clipped form as ``Tensor.sigmoid``."""
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))
