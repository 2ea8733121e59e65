"""DIN: Deep Interest Network (Zhou et al., 2018) — the paper's base model.

Embedding initialisation → local-activation-unit pooling (Eq. 4) → MLP with
Dice activations (Eq. 5-6).  Each sequential field is pooled against the
candidate-side embedding it pairs with.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..data.schema import DatasetSchema
from ..nn import MLP, LocalActivationUnit, ModuleList, Tensor, concatenate
from .base import DeepCTRModel

__all__ = ["DINModel"]


class DINModel(DeepCTRModel):
    """The default backbone of the MISS framework (Figure 3, right)."""

    def __init__(self, schema: DatasetSchema, embedding_dim: int,
                 rng: np.random.Generator,
                 hidden_sizes: tuple[int, ...] = (40, 40, 40, 1),
                 activation: str = "dice"):
        super().__init__(schema, embedding_dim, rng)
        self.pooling = ModuleList([
            LocalActivationUnit(embedding_dim, rng)
            for _ in range(schema.num_sequential)
        ])
        # Tower input: categorical embeddings, pooled interests, and the
        # interest × candidate products (elementwise and scalar) that let the
        # MLP read off "is the candidate similar to the pooled interest".
        width = ((schema.num_categorical + 2 * schema.num_sequential)
                 * embedding_dim + schema.num_sequential)
        self.tower = MLP(width, list(hidden_sizes), rng, activation=activation)

    def predict_logits(self, batch: Batch) -> Tensor:
        categorical = self.embedder.categorical_embeddings(batch).flatten_from(1)
        pooled, products = [], []
        for j, pooling in enumerate(self.pooling):
            # LAUP (Eq. 4): the j-th sequential field pooled against the
            # candidate-side embedding it pairs with, looked up once.
            sequence = self.embedder.sequence_field_embedding(batch, j)
            candidate_field = self.schema.categorical[self.schema.paired_with[j]].name
            candidate = self.embedder.candidate_embedding(batch, candidate_field)
            interest = pooling(sequence, candidate, batch.mask)
            product = interest * candidate
            pooled.append(interest)
            products += [product, product.sum(axis=-1, keepdims=True)]
        features = concatenate([categorical, *pooled, *products], axis=1)
        return self.tower(features).squeeze(-1)
