"""The reference backend: fuse nothing, compose every kernel from primitives.

Every capability flag is off, so :mod:`repro.nn.kernels` builds the original
multi-node autograd compositions — per-offset convolution slices, separate
matmul/add/relu nodes — and gradient accumulation keeps the seed's
first-touch-is-``0.0 + grad`` semantics inherited from
:class:`~repro.nn.backend.base.ArrayOps` (out of the same buffer pool every
backend uses, which moves no bit).  What it promises is a *pinned
trajectory*, not a frozen instruction stream (DESIGN.md §10): the per-step
losses and final parameters of ``tests/test_reference_pin.py`` hold until a
PR moves them on purpose, behind the by-hand Eq. 15/16 oracle and the
fidelity pin, and the benchmark cache, the serving golden-parity suite and
bit-identical resume are recorded against whatever is pinned there.
"""

from __future__ import annotations

from .base import ArrayOps

__all__ = ["ReferenceOps"]


class ReferenceOps(ArrayOps):
    """The default backend: every kernel as its graph of primitives."""

    name = "reference"
