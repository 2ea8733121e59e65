"""The MISS self-supervised component (Figure 3, left side).

Per batch: sequential embeddings ``C`` → multi-interest extraction (MIE) →
the interest level (Eq. 15), then the fine-grained branch (MIMFE) → the
feature level (Eq. 16).  Both levels are computed by the one path in
:meth:`MISSModule._contrast`: sampled view pairs (:class:`ViewPair`) → shared
encoder, once over the stack → false-negative masks from their id windows →
one InfoNCE node that averages over the pairs.
They differ only in what feeds it: the sampler, the shape of the id window
behind a view, and the encoder's per-view projection.  The module is
model-agnostic: it only needs the embedding tensor ``C``, which every
:class:`~repro.models.base.DeepCTRModel` exposes.

When the raw id sequences are supplied, in-batch negatives whose underlying
id window is identical to the anchor's are excluded from the InfoNCE
denominator (SupCon-style de-duplication).  This matters most for the
feature-level loss: low-cardinality fields such as item category collide
constantly inside a batch, and repelling id-identical views would scramble
the small embedding tables.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import DatasetSchema
from ..nn import Module, Tensor, concatenate
from ..nn import functional as F
from ..obs.timers import phase
from .augmentation import (
    ViewPair,
    Window,
    sample_feature_pairs,
    sample_interest_pairs,
)
from .config import MISSConfig
from .encoders import FieldAwareViewEncoder, ViewEncoder
from .extractors import FineGrainedExtractor, MultiInterestExtractor
from .extractors_alt import LSTMExtractor, SelfAttentionExtractor
from .losses import info_nce

__all__ = ["MISSModule"]


def _false_negative_masks(pairs: list[ViewPair], sequences: np.ndarray
                          ) -> np.ndarray:
    """``(P, B, B)`` masks of in-batch negatives id-identical to the anchor.

    ``[p, i, j]`` is True iff sample ``j``'s second id window of pair ``p``
    equals sample ``i``'s first or second one.  ``sequences`` is the raw
    ``(B, J, L)`` id tensor; a window covers field rows
    ``[row, row+height)`` and time columns ``[cols[b], cols[b]+width)``.

    Every window of the level is gathered at once into a common
    ``max height × max width`` block (cells outside a window are zeroed: both
    windows of a pair share their shape, so the padding never decides an
    equality), each block is reduced to one integer key, and only ``(B, B)``
    keys are compared.
    """
    batch = sequences.shape[0]
    windows = [w for pair in pairs for w in (pair.window1, pair.window2)]
    heights = np.array([w.height for w in windows])
    widths = np.array([w.width for w in windows])
    dr, dc = np.arange(heights.max()), np.arange(widths.max())
    in_rows = dr < heights[:, None]                     # (W, H)
    in_cols = (dc < widths[:, None])[:, None, :]        # (W, 1, M)
    rows = np.array([w.row for w in windows])[:, None] + dr
    cols = np.stack([w.cols for w in windows])[:, :, None] + dc
    blocks = sequences[np.arange(batch)[None, :, None, None],
                       np.where(in_rows, rows, 0)[:, None, :, None],
                       np.where(in_cols, cols, 0)[:, :, None, :]]
    inside = in_rows[:, None, :, None] & in_cols[:, :, None, :]
    flat = np.where(inside, blocks, 0).reshape(len(windows) * batch, -1)
    row_bytes = np.dtype((np.void, flat.dtype.itemsize * flat.shape[1]))
    keys = np.unique(flat.view(row_bytes).ravel(), return_inverse=True)[1]
    keys = keys.reshape(len(pairs), 2, batch)
    first, second = keys[:, 0], keys[:, 1]
    return ((second[:, :, None] == second[:, None, :])
            | (first[:, :, None] == second[:, None, :]))


class MISSModule(Module):
    """Multi-interest self-supervision over sequence embeddings."""

    def __init__(self, schema: DatasetSchema, embedding_dim: int,
                 config: MISSConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        num_fields = schema.num_sequential

        if config.extractor == "cnn":
            self.extractor = MultiInterestExtractor(config.effective_width, rng)
            num_branches = config.effective_width
        elif config.extractor == "sa":
            self.extractor = SelfAttentionExtractor(embedding_dim, rng)
            num_branches = 1
        else:  # "lstm"
            self.extractor = LSTMExtractor(embedding_dim, rng)
            num_branches = 1

        if config.use_fine_grained:
            self.fine_extractor = FineGrainedExtractor(
                num_branches, config.max_kernel_height, rng)
        else:
            self.fine_extractor = None

        self.interest_encoder = ViewEncoder(
            num_fields * embedding_dim, config.interest_encoder_sizes, rng)
        if config.field_aware_encoder:
            self.feature_encoder = FieldAwareViewEncoder(
                embedding_dim, num_fields, config.feature_encoder_sizes, rng)
        else:
            self.feature_encoder = ViewEncoder(
                embedding_dim, config.feature_encoder_sizes, rng)
        self._rng = np.random.default_rng(config.seed)

    def interest_maps(self, c: Tensor) -> list[Tensor]:
        """``[G_1..G_M]`` (or a single map for the SA/LSTM extractors)."""
        return self.extractor(c)

    def _sample_level_pair(self, c: Tensor, mask: np.ndarray | None
                           ) -> ViewPair:
        """The MISS/M fallback: one global interest per sample, two dropout
        views — exactly the sample-level contrast the paper argues against."""
        if mask is not None:
            weights = mask.astype(np.float64)
            denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
            pooled = (c * Tensor((weights / denom)[:, None, :, None])).sum(axis=2)
        else:
            pooled = c.mean(axis=2)
        flat = pooled.flatten_from(1)  # (B, J*K)
        view1 = F.dropout(flat, 0.2, self._rng, training=True)
        view2 = F.dropout(flat, 0.2, self._rng, training=True)
        batch, num_fields, seq_len, _ = c.shape
        whole = Window(0, num_fields, np.zeros(batch, dtype=np.int64), seq_len)
        return ViewPair(view1, view2, whole, whole)

    # ------------------------------------------------------------------
    # One contrastive level, then the two of Eq. 15-16
    # ------------------------------------------------------------------
    def _contrast(self, pairs: list[ViewPair],
                  encoder: ViewEncoder | FieldAwareViewEncoder,
                  sequences: np.ndarray | None) -> Tensor:
        """Mean InfoNCE over one level's view pairs (Eq. 15 and Eq. 16).

        Each view gets its own input projection (``window.row`` is the field
        the field-aware encoder projects with); the trunk is a plain per-row
        MLP, so every first view and then every second view of the level go
        through it as one stacked forward, and the ``(P, B, D)`` halves of
        its output are the two sides of one InfoNCE node.
        """
        with phase("model.ssl.infonce"):
            with phase("model.ssl.encode"):
                views = ([(pair.view1, pair.window1) for pair in pairs]
                         + [(pair.view2, pair.window2) for pair in pairs])
                projected = [encoder.project(view, window.row)
                             for view, window in views]
                encoded = encoder.trunk(concatenate(projected, axis=0)).reshape(
                    2, len(pairs), -1, encoder.out_features)
            with phase("model.ssl.fn_mask"):
                if sequences is None or not self.config.dedup_false_negatives:
                    masks = None
                else:
                    masks = _false_negative_masks(pairs, sequences)
            return info_nce(encoded[0], encoded[1], self.config.temperature,
                            masks)

    def ssl_losses(self, c: Tensor, mask: np.ndarray | None = None,
                   sequences: np.ndarray | None = None
                   ) -> tuple[Tensor, Tensor]:
        """``(L_ssl, L'_ssl)`` of Eq. 15-16 for one batch.

        The feature-level loss is a constant zero tensor under the /F
        ablation so Eq. 17 keeps its shape.
        """
        cfg = self.config
        if not cfg.use_multi_interest:
            # A one-pair level.  The sample-level contrast has never been
            # de-duplicated (Table VII was recorded that way): no sequences.
            pair = self._sample_level_pair(c, mask)
            return self._contrast([pair], self.interest_encoder, None), Tensor(0.0)

        with phase("model.ssl.mie"):
            maps = self.interest_maps(c)
        seq_len = c.shape[2]
        with phase("model.ssl.augment"):
            pairs = sample_interest_pairs(maps, cfg.num_interest_pairs,
                                          cfg.effective_distance, self._rng,
                                          mask=mask, seq_len=seq_len)
        interest_loss = self._contrast(pairs, self.interest_encoder, sequences)
        if self.fine_extractor is None:
            return interest_loss, Tensor(0.0)

        with phase("model.ssl.mimfe"):
            fine_maps = self.fine_extractor(maps)
        with phase("model.ssl.augment"):
            fine_pairs = sample_feature_pairs(
                fine_maps, cfg.num_feature_pairs, self._rng, mask=mask,
                seq_len=seq_len, num_fields=c.shape[1])
        return interest_loss, self._contrast(fine_pairs, self.feature_encoder,
                                             sequences)

    def forward(self, c: Tensor, mask: np.ndarray | None = None,
                sequences: np.ndarray | None = None) -> Tensor:
        """Weighted SSL loss ``α1·L_ssl + α2·L'_ssl``."""
        interest_loss, feature_loss = self.ssl_losses(c, mask, sequences)
        return (self.config.alpha_interest * interest_loss
                + self.config.alpha_feature * feature_loss)

    def pair_similarity(self, c: Tensor, num_pairs: int | None = None,
                        mask: np.ndarray | None = None) -> float:
        """Mean cosine similarity of freshly sampled interest view pairs.

        The paper's Figure 5 plots this during training: the CNN extractor
        stays near 0.7-0.8 (informative pairs) while SA/LSTM collapse to ~1.
        """
        cfg = self.config
        maps = self.interest_maps(c)
        pairs = sample_interest_pairs(maps, num_pairs or cfg.num_interest_pairs,
                                      cfg.effective_distance, self._rng,
                                      mask=mask, seq_len=c.shape[2])
        sims = [float(F.cosine_similarity(pair.view1.detach(),
                                          pair.view2.detach()).mean().data)
                for pair in pairs]
        return float(np.mean(sims))
