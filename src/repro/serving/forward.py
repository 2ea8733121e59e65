"""Deterministic blocked inference forward shared by evaluation and serving.

BLAS gemm picks different kernels (and therefore different floating-point
summation orders) depending on the batch dimension ``M``: a 3-row batch and a
512-row batch of the *same* samples can produce logits that differ in the
last ulp.  That would break the serving contract that online scores are
bit-identical to the offline ``evaluate`` forward regardless of how requests
happen to coalesce into micro-batches.

:func:`forward_logits` removes the shape degree of freedom: every forward
pass — offline eval, the scoring engine's micro-batches, single-row
``predict`` calls — is computed in fixed-size blocks of :data:`PARITY_BLOCK`
rows, padding the final partial block by repeating its last row (padded rows
are computed and discarded; per-row results are independent of other rows'
values, and row position within a fixed shape does not change gemm rounding).
With every gemm seeing the same ``M``, logits for a given sample are
bit-identical no matter which batch split or cache state produced them.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..models.base import CTRModel
from ..nn import get_backend, no_grad

__all__ = ["PARITY_BLOCK", "forward_logits", "sigmoid"]

#: Canonical row count of every inference-time gemm.  Changing this value
#: changes low-order logit bits, so it is recorded in exported artifact
#: manifests and checked on load.
PARITY_BLOCK = 32


def _pad_rows(array: np.ndarray, count: int) -> np.ndarray:
    """Append ``count`` copies of the last row (values are discarded)."""
    return np.concatenate([array, np.repeat(array[-1:], count, axis=0)],
                          axis=0)


def forward_logits(model: CTRModel, batch: Batch,
                   block_size: int = PARITY_BLOCK,
                   backend: str | None = None) -> np.ndarray:
    """Logits of ``batch`` under ``no_grad``, computed in fixed-size blocks.

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
    outputs = []
    with no_grad():
        for start in range(0, n, block_size):
            cat = batch.categorical[start:start + block_size]
            seq = batch.sequences[start:start + block_size]
            mask = batch.mask[start:start + block_size]
            labels = batch.labels[start:start + block_size]
            rows = cat.shape[0]
            if rows < block_size:
                pad = block_size - rows
                cat, seq, mask, labels = (
                    _pad_rows(a, pad) for a in (cat, seq, mask, labels))
            block = Batch(categorical=cat, sequences=seq, mask=mask,
                          labels=labels)
            outputs.append(np.asarray(model.predict_logits(block).data,
                                      dtype=np.float64)[:rows])
    return np.concatenate(outputs)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """Elementwise click probability; same clipped form as ``Tensor.sigmoid``."""
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))
