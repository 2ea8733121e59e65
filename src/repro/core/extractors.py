"""The CNN multi-interest extractors MIE(·) and MIMFE(·) (paper §V-A, §V-C).

:class:`MultiInterestExtractor` holds Eq. 18-20's ``M`` horizontal kernels
over the sequential-embedding tensor ``C ∈ (B,J,L,K)``, one per map
``G_m ∈ (B,J,L-m+1,K)``.  Width-1 kernels capture point-wise interests,
wider kernels union-wise interests.

:class:`FineGrainedExtractor` holds Eq. 22-23's ``N`` vertical kernels per
``G_m``, one per map ``Ĝ_{m,n} ∈ (B,J-n+1,L-m+1,K)``, modelling
intra-item correlations between the J sequential fields.

Neither builds its maps.  RS^i and RS^if read a few cells of each, so both
hand out :class:`~repro.core.augmentation.ViewSource` s, the maps named by
``C`` and their kernels, and a level computes only the cells its views read
(:func:`~repro.core.augmentation.stack_views`).
"""

from __future__ import annotations

import numpy as np

from ..nn import HorizontalConv, Module, ModuleList, Tensor, VerticalConv
from .augmentation import ViewSource

__all__ = ["MultiInterestExtractor", "FineGrainedExtractor"]


class MultiInterestExtractor(Module):
    """MIE(·): horizontal convolution branches with widths 1..M."""

    def __init__(self, max_width: int, rng: np.random.Generator):
        super().__init__()
        if max_width < 1:
            raise ValueError("max_width must be >= 1")
        self.max_width = max_width
        self.branches = ModuleList([
            HorizontalConv(width, rng) for width in range(1, max_width + 1)
        ])

    def sources(self, c: Tensor) -> list[ViewSource]:
        """The maps ``[G_1, ..., G_M]`` of ``c``; skips branches wider than
        L."""
        seq_len = c.shape[2]
        sources = [ViewSource(c, branch.weight) for branch in self.branches
                   if branch.width <= seq_len]
        if not sources:
            raise ValueError(f"sequence length {seq_len} shorter than every kernel")
        return sources

    def num_interests(self, seq_len: int) -> int:
        """|T| = Σ_m (L - m + 1), the paper's interest count."""
        return sum(seq_len - width + 1
                   for width in range(1, self.max_width + 1) if width <= seq_len)


class FineGrainedExtractor(Module):
    """MIMFE(·): vertical convolution branches with heights 1..N.

    One set of vertical kernels is instantiated per horizontal branch
    (the paper indexes them ``ĝ_{m,n}``).
    """

    def __init__(self, max_width: int, max_height: int, rng: np.random.Generator):
        super().__init__()
        if max_height < 1:
            raise ValueError("max_height must be >= 1")
        self.max_height = max_height
        self.branches = ModuleList([
            ModuleList([VerticalConv(height, rng)
                        for height in range(1, max_height + 1)])
            for _ in range(max_width)
        ])

    def sources(self, interest_maps: list[ViewSource]) -> list[ViewSource]:
        """Every ``Ĝ_{m,n}`` with n no larger than the field count J."""
        sources = []
        for m, g in enumerate(interest_maps):
            num_fields = g.shape[1]
            for conv in self.branches[m]:
                if conv.height <= num_fields:
                    sources.append(ViewSource(g.base, g.horizontal,
                                              conv.weight))
        if not sources:
            raise ValueError("no vertical kernel fits the field count")
        return sources

    def omega(self, num_fields: int) -> int:
        """Ω = Σ_n (J - n + 1), feature representations per interest."""
        return sum(num_fields - height + 1
                   for height in range(1, self.max_height + 1)
                   if height <= num_fields)
