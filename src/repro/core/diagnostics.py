"""Training-time diagnostics: the view-pair similarity trace of Figure 5."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.batching import Batch
from ..models.base import CTRModel
from ..nn import no_grad
from ..obs.events import BaseObserver, BatchEndEvent
from .plugin import MISSEnhancedModel

__all__ = ["SimilarityTracker"]


@dataclass
class SimilarityTracker(BaseObserver):
    """Records the mean cosine similarity of augmented view pairs per step.

    A :class:`~repro.obs.RunObserver`: pass it via the trainer's
    ``observers=[tracker]``.  It is also directly callable with
    ``(model, batch, step)`` for probing a single batch.  Afterwards
    ``steps`` and ``similarities`` hold the Figure 5 series for one
    extractor.
    """

    every: int = 1
    steps: list[int] = field(default_factory=list)
    similarities: list[float] = field(default_factory=list)

    def on_batch_end(self, event: BatchEndEvent) -> None:
        self(event.model, event.batch, event.step)

    def __call__(self, model: CTRModel, batch: Batch, step: int) -> None:
        if step % self.every:
            return
        if not isinstance(model, MISSEnhancedModel):
            raise TypeError("SimilarityTracker requires a MISS-enhanced model")
        with no_grad():
            c = model.embedder.sequence_embeddings(batch)
            similarity = model.ssl.pair_similarity(c, mask=batch.mask)
        self.steps.append(step)
        self.similarities.append(similarity)

    def smoothed(self, window: int = 5) -> np.ndarray:
        """Moving average of the trace (the paper plots batch averages)."""
        if window < 1:
            raise ValueError("window must be >= 1")
        values = np.asarray(self.similarities, dtype=np.float64)
        if values.size == 0:
            return values
        kernel = np.ones(min(window, values.size)) / min(window, values.size)
        return np.convolve(values, kernel, mode="valid")
