"""The reference backend: fuse nothing, behave exactly like the seed code.

Every capability flag is off, so :mod:`repro.nn.kernels` builds the original
multi-node autograd compositions — per-offset convolution slices, separate
matmul/add/relu nodes — and gradient accumulation keeps the seed's
first-touch-is-``0.0 + grad`` semantics inherited from
:class:`~repro.nn.backend.base.ArrayOps`.  This is
the backend the benchmark cache, the serving golden-parity suite, and
bit-identical resume were recorded against; it must never drift.
"""

from __future__ import annotations

from .base import ArrayOps

__all__ = ["ReferenceOps"]


class ReferenceOps(ArrayOps):
    """Bit-identical to the pre-backend-seam implementation."""

    name = "reference"
