"""Common scaffolding for the competing SSL methods of Table VI.

Each baseline is the plug-in MISS is
(:class:`~repro.core.plugin.SSLPluginModel`) with one term: an InfoNCE over
two views generated by *sample-level* augmentation — the practice whose
weaknesses MISS is designed to fix.  Views are pooled over positions with
learnable position embeddings so that order-sensitive augmentations
(reorder, crop) actually change the representation.
"""

from __future__ import annotations

import numpy as np

from ..core.encoders import ViewEncoder
from ..core.losses import info_nce
from ..core.plugin import SSLPluginModel, SSLTerm
from ..data.batching import Batch
from ..models.base import DeepCTRModel
from ..nn import Parameter, Tensor, init

__all__ = ["SSLBaselineModel"]


class SSLBaselineModel(SSLPluginModel):
    """Base-model wrapper with a sample-level contrastive auxiliary loss."""

    def __init__(self, base: DeepCTRModel, alpha: float = 0.3,
                 temperature: float = 0.1, seed: int = 0):
        super().__init__(base)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.temperature = temperature
        rng = np.random.default_rng(seed)
        self._rng = np.random.default_rng(seed + 1)
        width = base.schema.num_sequential * base.embedding_dim
        self.encoder = ViewEncoder(width, (20, 20), rng)
        self.position = Parameter(init.normal(
            (base.schema.max_seq_len, base.embedding_dim), rng, std=0.01))

    # ------------------------------------------------------------------
    # View pooling shared by the methods, then the one SSL term
    # ------------------------------------------------------------------
    def pooled_view(self, c: Tensor, position_mask: np.ndarray) -> Tensor:
        """Pool ``C (B,J,L,K)`` over the selected positions → ``(B, J·K)``.

        ``position_mask`` is ``(B, L)``; position embeddings are added before
        pooling so permutations of the kept positions change the result.
        """
        weights = position_mask.astype(np.float64)
        denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
        pos = self.position.expand_dims(0).expand_dims(0)  # (1,1,L,K)
        enriched = c + pos
        pooled = (enriched * Tensor((weights / denom)[:, None, :, None])).sum(axis=2)
        return pooled.flatten_from(1)

    def reordered_view(self, c: Tensor, position_mask: np.ndarray,
                       permutation: np.ndarray) -> Tensor:
        """Like :meth:`pooled_view` but with positions permuted first."""
        weights = position_mask.astype(np.float64)
        denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
        pos = Tensor(self.position.data[permutation]).expand_dims(0).expand_dims(0)
        enriched = c + pos
        pooled = (enriched * Tensor((weights / denom)[:, None, :, None])).sum(axis=2)
        return pooled.flatten_from(1)

    def make_views(self, batch: Batch, c: Tensor) -> tuple[Tensor, Tensor]:
        """Produce the two augmented views; implemented per method."""
        raise NotImplementedError

    def ssl_terms(self, batch: Batch) -> list[SSLTerm]:
        c = self.embedder.sequence_embeddings(batch)
        view1, view2 = self.make_views(batch, c)
        term = info_nce(self.encoder(view1), self.encoder(view2),
                        self.temperature)
        return [("ssl", self.alpha, term)]
