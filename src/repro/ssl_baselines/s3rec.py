"""S3Rec (Zhou et al., 2020), sequence-segment MIM variant.

The paper adopts S3Rec's sequence-segment objective (its best-performing MIM
of the four): maximise the mutual information between a random contiguous
segment of the behaviour sequence and the remaining context.  The "obvious
semantic difference between a random segment and the whole behaviour
sequence" biases the correlation learning (paper §VI-C2), which is why it
only edges past the plain base model.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..nn import Tensor
from .base import SSLBaselineModel

__all__ = ["S3RecModel"]


class S3RecModel(SSLBaselineModel):
    """Segment-vs-context mutual information maximisation."""

    def __init__(self, base, alpha: float = 0.3, temperature: float = 0.1,
                 seed: int = 0, segment_ratio: float = 0.25):
        super().__init__(base, alpha=alpha, temperature=temperature, seed=seed)
        if not 0.0 < segment_ratio < 1.0:
            raise ValueError("segment_ratio must be in (0, 1)")
        self.segment_ratio = segment_ratio

    def make_views(self, batch: Batch, c: Tensor) -> tuple[Tensor, Tensor]:
        mask = batch.mask
        batch_size = mask.shape[0]
        segment = np.zeros_like(mask)
        for b in range(batch_size):
            valid = np.flatnonzero(mask[b])
            if valid.size < 2:
                segment[b] = mask[b]
                continue
            span = max(1, int(round(valid.size * self.segment_ratio)))
            span = min(span, valid.size - 1)
            start = int(self._rng.integers(0, valid.size - span + 1))
            segment[b, valid[start:start + span]] = True
        # Segment vs the *whole* sequence: the semantic gap between a short
        # random segment and the full multi-interest history is the bias the
        # paper blames for S3Rec's limited gains (§VI-C2).
        return self.pooled_view(c, segment), self.pooled_view(c, mask)
