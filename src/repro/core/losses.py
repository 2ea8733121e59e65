"""InfoNCE contrastive loss with in-batch negatives (Eq. 15-16).

For a batch of paired views ``⟨z^1_x, z^2_x⟩`` the positive is the pair from
the same sample and the negatives are the second views of every *other*
sample in the batch.  Similarity is cosine, scaled by temperature τ.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.functional import l2_normalize

__all__ = ["info_nce"]


def info_nce(view1: Tensor, view2: Tensor, temperature: float,
             false_negatives: np.ndarray | None = None) -> Tensor:
    """Mean InfoNCE loss over the batch.

    Args:
        view1: ``(B, D)`` encoded first views.
        view2: ``(B, D)`` encoded second views.
        temperature: The softmax temperature τ (> 0).
        false_negatives: Optional ``(B, B)`` boolean mask; ``[i, j]`` True
            removes sample ``j``'s second view from sample ``i``'s negative
            set.  Used by the feature-level loss, where low-cardinality
            fields (a handful of category ids) make id-identical "negatives"
            frequent — repelling those would scramble the small embedding
            table (the SupCon de-duplication fix).  The diagonal (the
            positive) is always kept; the mask is read, never written.

    Returns:
        Scalar tensor; lower is better, bounded below by 0 as the positive
        pair dominates all in-batch negatives.
    """
    if view1.shape != view2.shape:
        raise ValueError(f"view shapes differ: {view1.shape} vs {view2.shape}")
    if view1.ndim != 2:
        raise ValueError(f"expected (B, D) views, got {view1.shape}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")

    z1 = l2_normalize(view1, axis=-1)
    z2 = l2_normalize(view2, axis=-1)
    logits = (z1 @ z2.swapaxes(0, 1)) * (1.0 / temperature)  # (B, B)
    if false_negatives is not None:
        batch = view1.shape[0]
        if false_negatives.shape != (batch, batch):
            raise ValueError("false_negatives mask must be (B, B)")
        penalty = np.where(false_negatives, -1e9, 0.0)
        np.fill_diagonal(penalty, 0.0)  # never drop the positive
        logits = logits + Tensor(penalty)
    # log-sum-exp over each row, numerically stabilised.
    row_max = Tensor(logits.data.max(axis=1, keepdims=True))
    shifted = logits - row_max
    log_denominator = (shifted.exp().sum(axis=1, keepdims=True)).log() \
        + row_max
    batch = view1.shape[0]
    index = np.arange(batch)
    diagonal = logits[index, index]
    return (log_denominator.squeeze(-1) - diagonal).mean()
