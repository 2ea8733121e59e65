"""Common interface for all CTR prediction models."""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..data.schema import DatasetSchema
from ..nn import Module, Tensor
from ..nn import functional as F
from .inputs import FeatureEmbedder

__all__ = ["CTRModel", "DeepCTRModel"]


class CTRModel(Module):
    """Abstract CTR model: maps a :class:`Batch` to click logits.

    Subclasses implement :meth:`predict_logits`; the default training loss is
    the batch-wise Logloss of Eq. (7).
    """

    def __init__(self, schema: DatasetSchema):
        super().__init__()
        self.schema = schema

    def predict_logits(self, batch: Batch) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def forward(self, batch: Batch) -> Tensor:
        return self.predict_logits(batch)

    def training_loss(self, batch: Batch) -> Tensor:
        """Scalar loss optimised by the trainer (Logloss by default)."""
        return F.binary_cross_entropy_with_logits(self.predict_logits(batch),
                                                  batch.labels)


class DeepCTRModel(CTRModel):
    """A CTR model that owns a :class:`FeatureEmbedder`.

    Every deep baseline (and MISS itself) derives from this; the shared
    embedder is what the MISS plug-in reaches into when it attaches SSL
    losses to an arbitrary base model.
    """

    def __init__(self, schema: DatasetSchema, embedding_dim: int,
                 rng: np.random.Generator):
        super().__init__(schema)
        self.embedding_dim = embedding_dim
        self.embedder = FeatureEmbedder(schema, embedding_dim, rng)
