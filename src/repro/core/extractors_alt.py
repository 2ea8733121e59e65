"""Alternative multi-interest extractors for Table VIII: self-attention & LSTM.

Both produce a single interest map of the same ``(B, J, L, K)`` layout as a
width-1 CNN branch, handed on as one
:class:`~repro.core.augmentation.ViewSource` with no time kernel, so the
downstream augmentation and encoders are reused unchanged.  The paper's
Figure 5 shows why they underperform: every output position aggregates
(nearly) the whole sequence, so adjacent positions are almost identical and
the contrastive pairs carry no information — our diagnostics reproduce that
collapse.
"""

from __future__ import annotations

import numpy as np

from ..nn import LSTM, Module, MultiHeadSelfAttention, Tensor, stack
from .augmentation import ViewSource

__all__ = ["SelfAttentionExtractor", "LSTMExtractor"]


class _OneMapExtractor(Module):
    def sources(self, c: Tensor) -> list[ViewSource]:
        """The one interest map, as the base of its views."""
        return [ViewSource(g) for g in self(c)]


class SelfAttentionExtractor(_OneMapExtractor):
    """Per-field self-attention over the time axis (MISS-SA)."""

    def __init__(self, embedding_dim: int, rng: np.random.Generator,
                 num_heads: int = 2):
        super().__init__()
        self.attention = MultiHeadSelfAttention(embedding_dim, num_heads, rng,
                                                head_dim=embedding_dim // num_heads
                                                if embedding_dim % num_heads == 0
                                                else embedding_dim)
        if self.attention.out_features != embedding_dim:
            raise ValueError("self-attention must preserve the embedding width")

    def forward(self, c: Tensor, mask: np.ndarray | None = None) -> list[Tensor]:
        num_fields = c.shape[1]
        rows = [self.attention(c[:, j, :, :], mask) for j in range(num_fields)]
        return [stack(rows, axis=1)]


class LSTMExtractor(_OneMapExtractor):
    """Per-field LSTM over the time axis (MISS-LSTM); weights shared across
    fields so the parameter count stays comparable to the CNN kernels."""

    def __init__(self, embedding_dim: int, rng: np.random.Generator):
        super().__init__()
        self.lstm = LSTM(embedding_dim, embedding_dim, rng)

    def forward(self, c: Tensor, mask: np.ndarray | None = None) -> list[Tensor]:
        num_fields = c.shape[1]
        rows = []
        for j in range(num_fields):
            outputs, _ = self.lstm(c[:, j, :, :], mask)
            rows.append(outputs)
        return [stack(rows, axis=1)]
