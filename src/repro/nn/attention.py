"""Attention mechanisms used across the model zoo.

* :class:`LocalActivationUnit` — DIN's candidate-aware behaviour pooling
  (the LAUP of Eq. 4).
* :class:`MultiHeadSelfAttention` — AutoInt's interaction layer and the
  MISS-SA extractor ablation.
* :class:`DotProductAttention` — soft search used by SIM(soft) and DMR.
"""

from __future__ import annotations

import numpy as np

from ..obs.timers import phase
from . import functional as F
from . import init
from . import kernels
from .layers import MLP
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["LocalActivationUnit", "MultiHeadSelfAttention", "DotProductAttention"]


class LocalActivationUnit(Module):
    """DIN's local activation unit: candidate-conditioned adaptive pooling.

    For every behaviour embedding ``e`` and candidate embedding ``c`` the unit
    scores ``MLP([e, c, e - c, e * c])`` (4K → 36 sigmoid → 1) and pools the
    sequence with the masked-softmax of those scores, all in the one node
    :func:`~repro.nn.kernels.local_activation`.
    """

    def __init__(self, embedding_dim: int, rng: np.random.Generator):
        super().__init__()
        # Holds the scorer's parameters under their checkpoint names; the
        # kernel applies them.
        self.scorer = MLP(4 * embedding_dim, [36, 1], rng,
                          activation="sigmoid", output_activation=None)

    def forward(self, sequence: Tensor, candidate: Tensor, mask: np.ndarray) -> Tensor:
        """Pool ``(B, L, K)`` behaviours into ``(B, K)`` given the candidate."""
        hidden, out = self.scorer.layers
        with phase("model.lau"):
            return kernels.local_activation(sequence, candidate, mask,
                                            hidden.weight, hidden.bias,
                                            out.weight, out.bias)


class MultiHeadSelfAttention(Module):
    """Standard multi-head self-attention over a set/sequence ``(B, L, K)``."""

    def __init__(self, embedding_dim: int, num_heads: int, rng: np.random.Generator,
                 head_dim: int | None = None, residual: bool = True):
        super().__init__()
        if num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        self.num_heads = num_heads
        self.head_dim = head_dim or max(1, embedding_dim // num_heads)
        inner = self.num_heads * self.head_dim
        self.residual = residual
        self.w_query = Parameter(init.xavier_uniform((embedding_dim, inner), rng))
        self.w_key = Parameter(init.xavier_uniform((embedding_dim, inner), rng))
        self.w_value = Parameter(init.xavier_uniform((embedding_dim, inner), rng))
        self.w_res = Parameter(init.xavier_uniform((embedding_dim, inner), rng))
        self.out_features = inner

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        batch, length, _ = x.shape
        heads, depth = self.num_heads, self.head_dim

        def split(t: Tensor) -> Tensor:
            # (B, L, H*D) -> (B, H, L, D)
            return t.reshape((batch, length, heads, depth)).transpose((0, 2, 1, 3))

        q = split(kernels.linear_act(x, self.w_query))
        k = split(kernels.linear_act(x, self.w_key))
        v = split(kernels.linear_act(x, self.w_value))
        logits = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(depth))
        if mask is not None:
            attend = np.broadcast_to(mask[:, None, None, :], logits.shape)
            weights = F.masked_softmax(logits, attend, axis=-1)
        else:
            weights = F.softmax(logits, axis=-1)
        attended = weights @ v  # (B, H, L, D)
        merged = attended.transpose((0, 2, 1, 3)).reshape((batch, length, heads * depth))
        if self.residual:
            merged = (merged + kernels.linear_act(x, self.w_res)).relu()
        return merged


class DotProductAttention(Module):
    """Scaled dot-product attention of a single query over a sequence.

    Used by SIM(soft) for relevance search over long histories and by DMR for
    user-to-item matching.
    """

    def __init__(self, embedding_dim: int, rng: np.random.Generator):
        super().__init__()
        self.scale = 1.0 / np.sqrt(embedding_dim)
        self.w_query = Parameter(init.xavier_uniform((embedding_dim, embedding_dim), rng))

    def scores(self, sequence: Tensor, query: Tensor, mask: np.ndarray) -> Tensor:
        projected = kernels.linear_act(query, self.w_query)  # (B, K)
        logits = (sequence * projected.expand_dims(1)).sum(axis=-1) * self.scale
        return F.masked_softmax(logits, mask, axis=-1)

    def forward(self, sequence: Tensor, query: Tensor, mask: np.ndarray) -> Tensor:
        weights = self.scores(sequence, query, mask)
        return (sequence * weights.expand_dims(-1)).sum(axis=1)
