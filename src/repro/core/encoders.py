"""The interest and feature view encoders Enc^i(·) and Enc^if(·) (Eq. 13-14).

The paper uses two small MLPs — layers {20, 20} for the interest encoder and
{10, 10} for the feature encoder — and leaves fancier encoders to future
work.  Both views of a pair pass through the *same* encoder (SimCLR style).

Both classes expose the same two stages so the loss layer drives either the
same way: ``project(views, fields)`` takes a level's ``(V, B, D)`` view stack
and each view's field row (the identity, or the per-field heads as one
node) and ``trunk(x)`` is the shared per-row MLP, which may therefore run
once over many stacked views.
"""

from __future__ import annotations

import numpy as np

from ..nn import MLP, Dense, Module, Tensor, kernels

__all__ = ["ViewEncoder", "FieldAwareViewEncoder"]


class ViewEncoder(Module):
    """Shared MLP applied to each view of every pair."""

    def __init__(self, in_features: int, layer_sizes: tuple[int, ...],
                 rng: np.random.Generator):
        super().__init__()
        if not layer_sizes:
            raise ValueError("encoder needs at least one layer")
        self.in_features = in_features
        self.mlp = MLP(in_features, list(layer_sizes), rng, activation="relu",
                       output_activation=None)
        self.out_features = layer_sizes[-1]

    def project(self, views: Tensor, fields: np.ndarray) -> Tensor:
        """No per-field stage: every view enters the trunk as it is."""
        return views

    def trunk(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"view width {x.shape[-1]} != encoder input {self.in_features}")
        return self.mlp(x)

    def forward(self, view: Tensor) -> Tensor:
        return self.trunk(view)


class FieldAwareViewEncoder(Module):
    """Enc^if with per-field input projections (CLIP-style heads).

    Feature-level views pair representations of *different* fields (item id
    vs. category).  Aligning the raw embeddings directly would collapse every
    item onto its category anchor; instead each field row gets its own linear
    projection before the shared MLP, so the alignment constraint lives in
    projection space and the embedding tables keep their resolution.
    """

    def __init__(self, embedding_dim: int, num_fields: int,
                 layer_sizes: tuple[int, ...], rng: np.random.Generator):
        super().__init__()
        if num_fields < 1:
            raise ValueError("num_fields must be >= 1")
        self.projections = [Dense(embedding_dim, embedding_dim, rng)
                            for _ in range(num_fields)]
        self.shared = ViewEncoder(embedding_dim, layer_sizes, rng)
        self.num_fields = num_fields
        self.out_features = self.shared.out_features

    def project(self, views: Tensor, fields: np.ndarray) -> Tensor:
        """View ``v`` of the ``(V, B, K)`` stack through field ``fields[v]``'s
        projection, as one node with one GEMM per field."""
        fields = np.asarray(fields)
        bad = fields[(fields < 0) | (fields >= self.num_fields)]
        if bad.size:
            raise IndexError(f"field index {bad[0]} out of range")
        return kernels.field_linear(views, fields,
                                    [p.weight for p in self.projections],
                                    [p.bias for p in self.projections])

    def trunk(self, x: Tensor) -> Tensor:
        return self.shared(x)
