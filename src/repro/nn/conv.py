"""The horizontal and vertical kernels of the MISS paper (Eq. 19 and 22).

The paper's kernels are deliberately tiny: a horizontal kernel
``g_m ∈ R^{1×m×1}`` has only ``m`` scalar weights and slides along the time
axis of the sequential-embedding tensor ``C ∈ R^{J×L×K}``; a vertical kernel
``ĝ_{m,n} ∈ R^{n×1×1}`` has ``n`` weights and slides along the field axis.
Each map is followed by a ReLU.  The maps are never built: a contrastive
level reads a few of their cells, and :func:`repro.nn.kernels.conv_views`
computes just those from the input and these weights.
"""

from __future__ import annotations

import numpy as np

from .module import Module, Parameter

__all__ = ["HorizontalConv", "VerticalConv"]


class HorizontalConv(Module):
    """The ``m`` weights of a width-``m`` kernel along the time (L) axis of
    ``(B, J, L, K)``, whose map is ``(B, J, L - m + 1, K)``.

    Width 1 yields the paper's *point-wise* interest representations, width
    > 1 the *union-wise* ones.
    """

    def __init__(self, width: int, rng: np.random.Generator):
        super().__init__()
        if width < 1:
            raise ValueError(f"kernel width must be >= 1, got {width}")
        self.width = width
        # Initialise near an averaging kernel so early interest representations
        # resemble local means of the behaviour embeddings.
        self.weight = Parameter(np.full(width, 1.0 / width) + rng.normal(0, 0.05, width))


class VerticalConv(Module):
    """The ``n`` weights of a height-``n`` kernel along the field (J) axis of
    ``(B, J, L', K)``, whose map is ``(B, J - n + 1, L', K)``.

    Height 1 keeps single-feature representations, height > 1 mixes
    adjacent sequential fields to model the paper's *intra-item*
    correlations.
    """

    def __init__(self, height: int, rng: np.random.Generator):
        super().__init__()
        if height < 1:
            raise ValueError(f"kernel height must be >= 1, got {height}")
        self.height = height
        self.weight = Parameter(np.full(height, 1.0 / height) + rng.normal(0, 0.05, height))
