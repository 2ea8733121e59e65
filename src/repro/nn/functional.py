"""Functional neural-network operations composed from autograd primitives."""

from __future__ import annotations

import numpy as np

from . import kernels
from .tensor import Tensor, maximum

__all__ = [
    "softmax",
    "masked_softmax",
    "binary_cross_entropy_with_logits",
    "cosine_similarity",
    "l2_normalize",
    "dropout",
]

_EPS = 1e-8


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns zero probability where ``mask`` is False.

    Rows whose mask is entirely False produce all-zero probabilities rather
    than NaNs, which is the convention attention-pooling layers rely on for
    fully padded behaviour sequences.
    """
    mask = np.asarray(mask, dtype=bool)
    neg = np.where(mask, 0.0, -1e9)
    shifted = x + Tensor(neg)
    probs = softmax(shifted, axis=axis)
    # Zero out fully-masked rows (their softmax would be uniform noise).
    any_valid = mask.any(axis=axis, keepdims=True)
    return probs * Tensor(np.where(any_valid, 1.0, 0.0))


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy computed directly from logits.

    Uses the stable formulation ``max(z, 0) - z*y + log(1 + exp(-|z|))``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    zeros = Tensor(np.zeros_like(logits.data))
    losses = maximum(logits, zeros) - logits * Tensor(targets) + (
        (-logits.abs()).exp() + 1.0).log()
    return losses.mean()


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Normalise ``x`` to unit L2 norm along ``axis``."""
    return kernels.l2_normalize(x, axis, _EPS)


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Cosine similarity between ``a`` and ``b`` along ``axis``."""
    return (l2_normalize(a, axis=axis) * l2_normalize(b, axis=axis)).sum(axis=axis)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: at train time scale the kept units by ``1/(1-rate)``."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return x * Tensor(keep)
