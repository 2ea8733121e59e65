"""The MISS self-supervised component (Figure 3, left side).

Per batch: sequential embeddings ``C`` → multi-interest extraction (MIE) →
the interest level (Eq. 15), then the fine-grained branch (MIMFE) → the
feature level (Eq. 16).  A level is four graph nodes deep: sampled view
pairs (:class:`ViewPair`, a :class:`ViewSource` and id windows only) → one
node computing all ``2P`` views from ``C`` and the convolution kernels
(:func:`stack_views`; the MIE/MIMFE maps are never built) → one projection
node (the identity at the interest level) → the shared trunk, once over the
stack → one InfoNCE node that averages over the pairs, with false-negative
masks from the id windows.  Both levels run the one path in
:meth:`MISSModule._contrast`; they differ only in what feeds it: the
sampler, the shape of the id window behind a view, and the encoder's
projection.  MISS/M feeds it its two dropout views, stacked.  The module is
model-agnostic: it only needs the embedding tensor ``C``, which every
:class:`~repro.models.base.DeepCTRModel` exposes.

When the raw id sequences are supplied, in-batch negatives whose underlying
id window is identical to the anchor's are excluded from the InfoNCE
denominator at both levels (SupCon-style de-duplication), keyed once per
batch (:class:`WindowKeys`).  Low-cardinality fields such as item category
collide constantly inside a batch, and repelling id-identical views would
scramble the small embedding tables.  MISS/M's sample-level contrast is
never de-duplicated.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import DatasetSchema
from ..nn import Module, Tensor
from ..nn import functional as F
from ..obs.timers import phase
from .augmentation import (
    ViewPair,
    ViewSource,
    Window,
    sample_feature_pairs,
    sample_interest_pairs,
    stack_views,
)
from .config import MISSConfig
from .encoders import FieldAwareViewEncoder, ViewEncoder
from .extractors import FineGrainedExtractor, MultiInterestExtractor
from .extractors_alt import LSTMExtractor, SelfAttentionExtractor
from .losses import info_nce

__all__ = ["MISSModule"]


#: Pair keys stay below this, so ``a * span + b`` never overflows int64.
_KEY_LIMIT = 2 ** 62


def _rank(keys: np.ndarray) -> np.ndarray:
    """Dense ranks of ``keys``: equal keys, equal ranks, in ``[0, N)``."""
    return np.unique(keys, return_inverse=True)[1].reshape(keys.shape)


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact keys of the pairs ``(a, b)`` of non-negative keys: ``a · span +
    b``, re-ranking both first when that product could leave int64."""
    span = int(b.max()) + 1
    if int(a.max()) >= _KEY_LIMIT // span:
        a, b = _rank(a), _rank(b)
        span = int(b.max()) + 1
    return a * span + b


class WindowKeys:
    """Exact integer keys of the id blocks of one batch's ``(B, J, L)`` raw
    id tensor: two windows of one shape have equal keys iff their ids are
    equal, cell for cell.

    One table per block shape ``(height, width)``, ``(B, J-h+1, L-w+1)``,
    built on first use and shared by both levels: the ranks of the raw ids,
    widened one column and then one row at a time by pairing keys
    (:func:`_pair`).  No hash, so no collision; a window's key is one
    lookup.
    """

    def __init__(self, sequences: np.ndarray):
        self._ids = np.asarray(sequences)
        self._tables: dict[tuple[int, int], np.ndarray] = {}

    def _table(self, height: int, width: int) -> np.ndarray:
        table = self._tables.get((height, width))
        if table is None:
            if height > 1:
                table = _pair(self._table(height - 1, width)[:, :-1],
                              self._table(1, width)[:, height - 1:])
            elif width > 1:
                table = _pair(self._table(1, width - 1)[:, :, :-1],
                              self._table(1, 1)[:, :, width - 1:])
            else:
                table = _rank(self._ids)
            self._tables[height, width] = table
        return table

    def __call__(self, window: Window) -> np.ndarray:
        """``(B,)`` keys of ``window``'s blocks; a block that leaves the id
        tensor on any side is refused (a lookup would wrap)."""
        batch, num_fields, seq_len = self._ids.shape
        if not (1 <= window.height <= num_fields
                and 0 <= window.row <= num_fields - window.height):
            raise IndexError(f"field rows out of range for {num_fields} rows")
        if not (1 <= window.width <= seq_len
                and 0 <= window.cols.min()
                and window.cols.max() <= seq_len - window.width):
            raise IndexError(f"time columns out of range for length {seq_len}")
        return self._table(window.height, window.width)[
            np.arange(batch), window.row, window.cols]


def _false_negative_masks(pairs: list[ViewPair], keys: WindowKeys
                          ) -> np.ndarray:
    """``(P, B, B)`` masks of in-batch negatives id-identical to the anchor.

    ``[p, i, j]`` is True iff sample ``j``'s second id window of pair ``p``
    equals sample ``i``'s first or second one.  A window covers field rows
    ``[row, row+height)`` and time columns ``[cols[b], cols[b]+width)`` of
    the raw ids ``keys`` was built on; both windows of a pair share their
    shape, so one key table serves the pair and only ``(B, B)`` keys are
    compared.
    """
    for pair in pairs:
        if ((pair.window1.height, pair.window1.width)
                != (pair.window2.height, pair.window2.width)):
            raise ValueError("both windows of a pair must share their shape")
    first = np.stack([keys(pair.window1) for pair in pairs])
    second = np.stack([keys(pair.window2) for pair in pairs])
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

    def interest_sources(self, c: Tensor) -> list[ViewSource]:
        """``[G_1..G_M]`` as sources (or the single map of the SA/LSTM
        extractors)."""
        return self.extractor.sources(c)

    def _sample_level_pair(self, c: Tensor, mask: np.ndarray | None
                           ) -> tuple[Tensor, ViewPair]:
        """The MISS/M fallback: one global interest per sample, two dropout
        views — exactly the sample-level contrast the paper argues against.

        Returns the ``(2, B, J·K)`` stack of the two views and their pair;
        one ``(2, B, J·K)`` dropout draw is the two ``(B, J·K)`` draws in
        sequence.  The pair has no source (its views are dropout draws, not
        cells of a map); its whole-history windows name the ids behind its
        views.
        """
        if mask is not None:
            weights = mask.astype(np.float64)
            denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
            pooled = (c * Tensor((weights / denom)[:, None, :, None])).sum(axis=2)
        else:
            pooled = c.mean(axis=2)
        flat = pooled.flatten_from(1)  # (B, J*K)
        views = F.dropout(flat.broadcast_to((2,) + flat.shape), 0.2, self._rng,
                          training=True)
        batch, num_fields, seq_len, _ = c.shape
        whole = Window(0, num_fields, np.zeros(batch, dtype=np.int64), seq_len)
        return views, ViewPair(None, whole, whole)

    # ------------------------------------------------------------------
    # One contrastive level, then the two of Eq. 15-16
    # ------------------------------------------------------------------
    def _contrast(self, views: Tensor, pairs: list[ViewPair],
                  encoder: ViewEncoder | FieldAwareViewEncoder,
                  keys: WindowKeys | None) -> Tensor:
        """Mean InfoNCE over one level's view pairs (Eq. 15 and Eq. 16).

        ``views`` is the level's ``(2P, B, D)`` stack, every first view and
        then every second.  The encoder projects it as one node
        (``window.row`` is the field the field-aware encoder projects each
        view with); the trunk is a plain per-row MLP, so all ``2P·B`` rows go
        through it as one forward, and the ``(P, B, D)`` halves of its
        output are the two sides of one InfoNCE node.
        """
        with phase("model.ssl.infonce"):
            with phase("model.ssl.encode"):
                fields = np.array([pair.window1.row for pair in pairs]
                                  + [pair.window2.row for pair in pairs])
                projected = encoder.project(views, fields)
                encoded = encoder.trunk(
                    projected.reshape(-1, projected.shape[-1])).reshape(
                    2, len(pairs), -1, encoder.out_features)
            with phase("model.ssl.fn_mask"):
                masks = (None if keys is None
                         else _false_negative_masks(pairs, keys))
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
            views, pair = self._sample_level_pair(c, mask)
            return (self._contrast(views, [pair], self.interest_encoder, None),
                    Tensor(0.0))

        keys = (WindowKeys(sequences)
                if sequences is not None and cfg.dedup_false_negatives
                else None)
        with phase("model.ssl.mie"):
            sources = self.interest_sources(c)
        seq_len = c.shape[2]
        with phase("model.ssl.augment"):
            pairs = sample_interest_pairs(sources, cfg.num_interest_pairs,
                                          cfg.effective_distance, self._rng,
                                          mask=mask, seq_len=seq_len)
        with phase("model.ssl.mie"):
            views = stack_views(pairs, whole_rows=True)
        interest_loss = self._contrast(views, pairs, self.interest_encoder,
                                       keys)
        if self.fine_extractor is None:
            return interest_loss, Tensor(0.0)

        with phase("model.ssl.augment"):
            fine_pairs = sample_feature_pairs(
                self.fine_extractor.sources(sources), cfg.num_feature_pairs,
                self._rng, mask=mask, seq_len=seq_len, num_fields=c.shape[1])
        with phase("model.ssl.mimfe"):
            fine_views = stack_views(fine_pairs, whole_rows=False)
        return interest_loss, self._contrast(fine_views, fine_pairs,
                                             self.feature_encoder, keys)

    def pair_similarity(self, c: Tensor, rng: np.random.Generator,
                        num_pairs: int | None = None,
                        mask: np.ndarray | None = None) -> float:
        """Mean cosine similarity of freshly sampled interest view pairs.

        The paper's Figure 5 plots this during training: the CNN extractor
        stays near 0.7-0.8 (informative pairs) while SA/LSTM collapse to ~1.
        The pairs are drawn from ``rng``, never from the module's training
        stream, so observing a run does not change it.
        """
        cfg = self.config
        pairs = sample_interest_pairs(self.interest_sources(c),
                                      num_pairs or cfg.num_interest_pairs,
                                      cfg.effective_distance, rng,
                                      mask=mask, seq_len=c.shape[2])
        views = stack_views(pairs, whole_rows=True).detach()
        half = len(pairs)
        sims = F.cosine_similarity(views[:half], views[half:]).data
        return float(np.mean(sims.mean(axis=-1)))
