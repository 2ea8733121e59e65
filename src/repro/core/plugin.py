"""Plug-and-play attachment of SSL losses to any deep CTR model (§IV-C).

:class:`SSLPluginModel` wraps a base model, shares its embedder, delegates
prediction to it — at inference time the plug-in costs nothing — and
optimises ``L = L_logloss + Σ wᵢ·termᵢ``.  A subclass only names its terms:
:class:`MISSEnhancedModel` the two of Eq. 17 (``α1·L_ssl + α2·L'_ssl``), the
competing methods of Table VI (:mod:`repro.ssl_baselines`) one each.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import Batch
from ..models.base import DeepCTRModel
from ..nn import Tensor
from .config import MISSConfig
from .miss import MISSModule

__all__ = ["SSLPluginModel", "SSLTerm", "MISSEnhancedModel", "attach_miss"]

SSLTerm = tuple[str, float, Tensor]  # (component, wᵢ, unweighted termᵢ)


def _add_weighted(total: Tensor | None, terms: list[SSLTerm]) -> Tensor:
    """``total + Σ wᵢ·termᵢ``, always associated left to right."""
    for _, weight, term in terms:
        total = weight * term if total is None else total + weight * term
    return total


class SSLPluginModel(DeepCTRModel):
    """A base CTR model with weighted auxiliary SSL terms attached."""

    def __init__(self, base: DeepCTRModel):
        if not isinstance(base, DeepCTRModel):
            raise TypeError(
                f"SSL plug-ins attach to embedding-based (DeepCTRModel) models;"
                f" {type(base).__name__} has no shared embedder to enhance")
        # Deliberately skip DeepCTRModel.__init__: we adopt the base model's
        # schema and embedder rather than creating fresh ones.
        super(DeepCTRModel, self).__init__(base.schema)
        self.embedding_dim = base.embedding_dim
        self.base = base
        self.embedder = base.embedder  # shared tables: SSL shapes them directly
        #: Per-component values of the last ``training_loss`` call (floats,
        #: detached) — the telemetry layer reads these after each step.
        self.last_loss_components: dict[str, float] | None = None

    def ssl_terms(self, batch: Batch) -> list[SSLTerm]:
        """The auxiliary losses for one batch; implemented per method."""
        raise NotImplementedError

    def predict_logits(self, batch: Batch) -> Tensor:
        return self.base.predict_logits(batch)

    def ctr_loss(self, batch: Batch) -> Tensor:
        """The base model's own loss (includes e.g. DIEN's auxiliary loss)."""
        return self.base.training_loss(batch)

    def ssl_loss(self, batch: Batch) -> Tensor:
        """The weighted SSL term alone (used by the pre-training strategy)."""
        return _add_weighted(None, self.ssl_terms(batch))

    def training_loss(self, batch: Batch) -> Tensor:
        """Eq. 17: joint CTR + SSL objective.

        Also refreshes :attr:`last_loss_components` with the unweighted value
        of each term so observers can chart how the multi-task balance evolves.
        """
        ctr = self.ctr_loss(batch)
        terms = self.ssl_terms(batch)
        self.last_loss_components = {
            "logloss": float(ctr.item()),
            **{name: float(term.item()) for name, _, term in terms}}
        return _add_weighted(ctr, terms)

    def named_parameters(self, prefix: str = ""):
        # The shared embedder lives inside ``base``; expose each parameter
        # exactly once (``self.embedder`` is the same object).
        seen: set[int] = set()
        for name, p in super().named_parameters(prefix=prefix):
            if id(p) in seen:
                continue
            seen.add(id(p))
            yield name, p


class MISSEnhancedModel(SSLPluginModel):
    """A base CTR model with the MISS SSL losses attached."""

    def __init__(self, base: DeepCTRModel, config: MISSConfig,
                 rng: np.random.Generator):
        super().__init__(base)
        self.config = config
        self.ssl = MISSModule(base.schema, base.embedding_dim, config, rng)

    def ssl_terms(self, batch: Batch) -> list[SSLTerm]:
        c = self.embedder.sequence_embeddings(batch)
        interest, feature = self.ssl.ssl_losses(c, batch.mask, batch.sequences)
        return [("ssl_interest", self.config.alpha_interest, interest),
                ("ssl_feature", self.config.alpha_feature, feature)]


def attach_miss(base: DeepCTRModel, config: MISSConfig | None = None,
                seed: int = 0) -> MISSEnhancedModel:
    """Convenience wrapper: ``attach_miss(DINModel(...))`` → DIN-MISS."""
    config = config or MISSConfig(seed=seed)
    return MISSEnhancedModel(base, config, np.random.default_rng(seed))
