"""CL4SRec (Xie et al., 2020): crop / mask / reorder sample-level augmentation.

For each batch two of the three operators are sampled and applied to the
whole behaviour sequence, producing the pair of views that the contrastive
loss pulls together — regardless of how many distinct interests the sequence
contains, which is exactly the failure mode MISS targets.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..nn import Tensor
from .base import SSLBaselineModel

__all__ = ["CL4SRecModel"]


class CL4SRecModel(SSLBaselineModel):
    """Crop/mask/reorder contrastive learning on behaviour sequences."""

    def __init__(self, base, alpha: float = 0.3, temperature: float = 0.1,
                 seed: int = 0, crop_ratio: float = 0.6, mask_ratio: float = 0.3,
                 reorder_ratio: float = 0.3):
        super().__init__(base, alpha=alpha, temperature=temperature, seed=seed)
        self.crop_ratio = crop_ratio
        self.mask_ratio = mask_ratio
        self.reorder_ratio = reorder_ratio

    # ------------------------------------------------------------------
    # Operators (each returns a position mask and a position permutation)
    # ------------------------------------------------------------------
    def _crop(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keep a random contiguous span of the valid positions."""
        batch, length = mask.shape
        out = np.zeros_like(mask)
        for b in range(batch):
            valid = np.flatnonzero(mask[b])
            if valid.size == 0:
                continue
            span = max(1, int(round(valid.size * self.crop_ratio)))
            start = int(self._rng.integers(0, valid.size - span + 1))
            out[b, valid[start:start + span]] = True
        return out, np.arange(length)

    def _mask(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Drop a random subset of the valid positions."""
        drop = self._rng.random(mask.shape) < self.mask_ratio
        out = mask & ~drop
        # Keep at least one position per row to avoid empty views.
        empty = ~out.any(axis=1) & mask.any(axis=1)
        for b in np.flatnonzero(empty):
            valid = np.flatnonzero(mask[b])
            out[b, valid[int(self._rng.integers(valid.size))]] = True
        return out, np.arange(mask.shape[1])

    def _reorder(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shuffle a contiguous span of positions (via position embeddings)."""
        length = mask.shape[1]
        permutation = np.arange(length)
        span = max(2, int(round(length * self.reorder_ratio)))
        start = int(self._rng.integers(0, length - span + 1))
        segment = permutation[start:start + span].copy()
        self._rng.shuffle(segment)
        permutation[start:start + span] = segment
        return mask.copy(), permutation

    def _apply_random_operator(self, batch: Batch, c: Tensor) -> Tensor:
        operators = [self._crop, self._mask, self._reorder]
        op = operators[int(self._rng.integers(len(operators)))]
        position_mask, permutation = op(batch.mask)
        if np.array_equal(permutation, np.arange(batch.mask.shape[1])):
            return self.pooled_view(c, position_mask)
        return self.reordered_view(c, position_mask, permutation)

    def make_views(self, batch: Batch, c: Tensor) -> tuple[Tensor, Tensor]:
        return (self._apply_random_operator(batch, c),
                self._apply_random_operator(batch, c))
