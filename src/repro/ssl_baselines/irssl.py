"""IRSSL (Yao et al., 2021): SSL via complementary item-feature masking.

The original method augments *item features* in a two-tower retrieval model:
two views of one item mask complementary subsets of its feature fields, and a
contrastive loss ties them together.  Following the paper we port the
item-feature-mask variant: views are built from the *candidate item's*
categorical fields (item id, category, seller where present).  As Table VI
observes, the method "only focuses on item features, thus loses efficacy when
few item features are available" — with two or three item-side fields each
view keeps barely one field, so the signal is weak by construction.
"""

from __future__ import annotations

import numpy as np

from ..core.encoders import ViewEncoder
from ..data.batching import Batch
from ..nn import Tensor, stack
from .base import SSLBaselineModel

__all__ = ["IRSSLModel"]


class IRSSLModel(SSLBaselineModel):
    """Complementary feature masking over the candidate item's fields."""

    def __init__(self, base, alpha: float = 0.3, temperature: float = 0.1,
                 seed: int = 0):
        super().__init__(base, alpha=alpha, temperature=temperature, seed=seed)
        # Item-side fields: every categorical field except the user id.
        self._item_fields = [name.name for name in base.schema.categorical
                             if name.name != "user"]
        rng = np.random.default_rng(seed + 7)
        width = len(self._item_fields) * base.embedding_dim
        self.encoder = ViewEncoder(width, (20, 20), rng)

    def make_views(self, batch: Batch, c: Tensor) -> tuple[Tensor, Tensor]:
        columns = [self.embedder.candidate_embedding(batch, field)
                   for field in self._item_fields]
        item = stack(columns, axis=1).flatten_from(1)  # (B, F_item*K)

        num_fields = len(self._item_fields)
        keep1 = self._rng.random(num_fields) < 0.5
        if keep1.all() or not keep1.any():
            flip = int(self._rng.integers(num_fields))
            keep1[flip] = not keep1[flip]
        keep2 = ~keep1
        dim = self.embedding_dim
        mask1 = np.repeat(keep1.astype(np.float64), dim)
        mask2 = np.repeat(keep2.astype(np.float64), dim)
        return item * Tensor(mask1), item * Tensor(mask2)
