"""InfoNCE contrastive loss with in-batch negatives (Eq. 15-16).

For a batch of paired views ``⟨z^1_x, z^2_x⟩`` the positive is the pair from
the same sample and the negatives are the second views of every *other*
sample in the batch.  Similarity is cosine, scaled by temperature τ.

Eq. 15 and Eq. 16 average that term over the ``P`` view pairs sampled for a
level, so a whole level is one call, and one graph node, over ``(P, B, D)``
stacks; a single ``(B, D)`` pair (the SSL baselines, MISS/M) is ``P = 1``.
The graph-of-primitives spelling this replaced lives on in
``tests/test_miss_level.py`` as the oracle.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from ..nn import Tensor, get_backend
from ..nn.functional import _EPS

__all__ = ["info_nce"]

_OPS = get_backend()


def info_nce(view1: Tensor, view2: Tensor, temperature: float,
             false_negatives: np.ndarray | None = None) -> Tensor:
    """InfoNCE averaged over the batch, then over the stacked pairs.

    Args:
        view1: ``(B, D)`` encoded first views, or ``(P, B, D)`` for ``P``
            pairs at once.
        view2: Encoded second views, same shape.
        temperature: The softmax temperature τ (> 0).
        false_negatives: Optional boolean mask, ``(B, B)`` or ``(P, B, B)``
            to match the views; ``[..., i, j]`` True removes sample ``j``'s
            second view from sample ``i``'s negative set.  MISS passes one
            at both levels (never for MISS/M's sample-level pair):
            low-cardinality fields (a handful of category ids) make
            id-identical "negatives" frequent, and repelling those would
            scramble the small embedding tables (the SupCon de-duplication
            fix).  The diagonal (the positive) is always kept; the mask is
            read, never written.

    Returns:
        Scalar tensor: the mean over pairs (summed left to right) of each
        pair's mean over the batch; lower is better, bounded below by 0 as
        the positive pair dominates all in-batch negatives.
    """
    if view1.shape != view2.shape:
        raise ValueError(f"view shapes differ: {view1.shape} vs {view2.shape}")
    if view1.ndim not in (2, 3):
        raise ValueError(f"expected (B, D) or (P, B, D) views, got {view1.shape}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    batch = view1.shape[-2]
    if (false_negatives is not None
            and false_negatives.shape != view1.shape[:-1] + (batch,)):
        raise ValueError("false_negatives mask must be (B, B) per pair")

    x1, x2 = (v.data.reshape(-1, batch, v.shape[-1]) for v in (view1, view2))
    pairs = x1.shape[0]
    z1, norm1 = _OPS.l2_normalize(x1, -1, _EPS)
    z2, norm2 = _OPS.l2_normalize(x2, -1, _EPS)
    logits = z1 @ z2.swapaxes(-1, -2)
    logits *= 1.0 / temperature                                  # (P, B, B)
    diagonal = np.arange(batch)
    positives = logits[:, diagonal, diagonal]
    flat = logits.reshape(-1)
    if false_negatives is None:
        dropped = None
    else:
        # A masked negative leaves its row's softmax: at -inf it cannot set
        # the row max, and its exp is exactly +0.0, as under the -1e9
        # penalty this replaced.  The positive is never dropped.
        drop = false_negatives.reshape(logits.shape).copy()
        drop[:, diagonal, diagonal] = False
        dropped = np.flatnonzero(drop)
        flat[dropped] = -np.inf
    # log-sum-exp over each row, numerically stabilised, in place: the
    # shifted logits become their exp, and the backward's d_logits after.
    row_max = logits.max(axis=-1, keepdims=True)
    logits -= row_max
    if dropped is not None:
        flat[dropped] = 0.0     # np.exp takes a slow path on -inf
    exp = np.exp(logits, out=logits)
    if dropped is not None:
        flat[dropped] = 0.0
    denominator = exp.sum(axis=-1, keepdims=True)
    per_row = (np.log(denominator) + row_max)[..., 0] - positives  # (P, B)
    per_pair = per_row.sum(axis=-1) * (1.0 / batch)
    # Left to right, as a chain of ``+`` nodes would (``sum`` is pairwise).
    loss = functools.reduce(operator.add, per_pair) * (1.0 / pairs)
    spent = False

    def backward(grad: np.ndarray) -> None:
        nonlocal spent
        if spent:
            raise RuntimeError("info_nce's backward consumes its buffer: "
                               "one walk per forward")
        spent = True
        # d loss / d logits = (softmax − I) / (P·B), built in ``exp``.
        scale = grad * (1.0 / (pairs * batch * temperature))
        d_logits = exp
        d_logits *= scale / denominator
        d_logits[:, diagonal, diagonal] -= scale
        if view1.requires_grad:
            view1._accumulate(_OPS.l2_normalize_backward(
                d_logits @ z2, x1, norm1, -1, _EPS).reshape(view1.shape))
        if view2.requires_grad:
            view2._accumulate(_OPS.l2_normalize_backward(
                d_logits.swapaxes(-1, -2) @ z1, x2, norm2, -1, _EPS
            ).reshape(view2.shape))

    return Tensor._make(loss, (view1, view2), "info_nce", backward)
