"""The rule-based SSL baseline of Table VI.

Segments each behaviour sequence by *item category* — a hand-crafted proxy
for interests — and contrasts two dropout views of one category segment.
Works well when categories track interests (Amazon-Books in the paper) and
poorly when they do not; in our simulator the category → topic mapping is
many-to-one with configurable noise, reproducing that sensitivity.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..nn import Tensor
from ..nn import functional as F
from .base import SSLBaselineModel

__all__ = ["RuleSSLModel"]


class RuleSSLModel(SSLBaselineModel):
    """Category-segmented dropout contrastive learning."""

    def __init__(self, base, alpha: float = 0.3, temperature: float = 0.1,
                 seed: int = 0, dropout_rate: float = 0.2,
                 category_field: str = "cate_seq"):
        super().__init__(base, alpha=alpha, temperature=temperature, seed=seed)
        self.dropout_rate = dropout_rate
        self.category_field = category_field

    def _category_segment(self, batch: Batch) -> np.ndarray:
        """Positions belonging to one randomly chosen category per row."""
        j = self.schema.sequential_index(self.category_field)
        categories = batch.sequences[:, j, :]
        segment = np.zeros_like(batch.mask)
        for b in range(batch.mask.shape[0]):
            valid = np.flatnonzero(batch.mask[b])
            if valid.size == 0:
                continue
            present = categories[b, valid]
            chosen = present[int(self._rng.integers(present.size))]
            segment[b] = batch.mask[b] & (categories[b] == chosen)
        return segment

    def make_views(self, batch: Batch, c: Tensor) -> tuple[Tensor, Tensor]:
        segment = self._category_segment(batch)
        pooled = self.pooled_view(c, segment)
        view1 = F.dropout(pooled, self.dropout_rate, self._rng, training=True)
        view2 = F.dropout(pooled, self.dropout_rate, self._rng, training=True)
        return view1, view2
