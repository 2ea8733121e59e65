"""The ``ArrayOps`` seam: every hot-path kernel the nn stack may delegate.

A backend is an object that (a) advertises which kernels it *fuses* via the
``fuses_*`` capability flags and (b) implements the fused forward/backward
pairs for the kernels it claims.  The autograd glue in
:mod:`repro.nn.kernels` consults the active backend per call: when a
capability flag is off it builds the bit-identical composed graph the seed
implementation used (per-offset convolution slices, separate
matmul/add/relu nodes), and when it is on it records a
single graph node whose forward/backward call straight into the backend.

Gradient accumulation is also routed through the backend
(:meth:`ArrayOps.grad_init` / :meth:`ArrayOps.grad_add` /
:meth:`ArrayOps.release_grad`), so a backend can substitute in-place adds and
a reusable buffer pool for the reference's fresh ``0.0 + grad`` buffer
without :class:`~repro.nn.tensor.Tensor` knowing.

The contract every fused kernel must honour (enforced by the gradcheck suite
in ``tests/test_backend_gradcheck.py``): forward values and gradients agree
with the reference composition to float64 round-off (``rtol=1e-9``) for all
shapes the models produce, including the degenerate ``J=1``/``L=1`` and
partial-mask cases of MIE/MIMFE.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArrayOps"]


class ArrayOps:
    """Abstract backend.  Subclasses override flags and fused kernels.

    The base class implements the *reference* gradient-accumulation
    semantics (every first touch is ``0.0 + grad``) so that a backend which
    fuses nothing is bit-identical to the seed implementation.
    """

    #: Registry name; set by subclasses.
    name = "abstract"

    # Capability flags — ``repro.nn.kernels`` consults these per call.
    fuses_conv = False          # windowed MIE/MIMFE convolutions
    fuses_linear = False        # linear (+bias) (+relu) forward/backward
    fuses_l2norm = False        # InfoNCE L2 normalisation
    pools_gradients = False     # in-place grad accumulation + buffer pool
    batches_ssl_views = False   # MISS: encode all SSL views in one forward

    # ------------------------------------------------------------------
    # Gradient accumulation (reference semantics; see FusedOps for pooling)
    # ------------------------------------------------------------------
    def grad_init(self, grad: np.ndarray, like: np.ndarray) -> np.ndarray:
        """First accumulation into a fresh gradient buffer for ``like``.

        One pass, and the same bits as zero-fill-then-add: every element is
        still ``0.0 + g`` (so ``-0.0`` becomes ``+0.0``), a smaller ``grad``
        still broadcasts, and the buffer keeps ``like``'s memory layout.
        """
        return np.add(0.0, grad, out=np.empty_like(like))

    def grad_add(self, acc: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Accumulate ``grad`` into the existing buffer ``acc``."""
        acc += grad
        return acc

    def release_grad(self, grad: np.ndarray) -> None:
        """Return a no-longer-needed gradient buffer to the backend."""

    def clear_pool(self) -> None:
        """Drop any reusable buffers the backend is holding."""

    # ------------------------------------------------------------------
    # Fused kernels — only called when the matching ``fuses_*`` flag is on.
    # ------------------------------------------------------------------
    def conv_window(self, x: np.ndarray, w: np.ndarray,
                    axis: int) -> np.ndarray:
        """Windowed 1-D convolution of ``w`` along ``axis`` (valid mode)."""
        raise NotImplementedError

    def conv_window_backward(self, grad: np.ndarray, x: np.ndarray,
                             w: np.ndarray, axis: int,
                             ) -> tuple[np.ndarray, np.ndarray]:
        """``(dL/dx, dL/dw)`` of :meth:`conv_window`."""
        raise NotImplementedError

    def linear(self, x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
               relu: bool) -> np.ndarray:
        """``act(x @ w + b)`` with ``act`` = ReLU or identity."""
        raise NotImplementedError

    def linear_backward(self, grad: np.ndarray, x: np.ndarray, w: np.ndarray,
                        out: np.ndarray, *, has_bias: bool, relu: bool,
                        need_gx: bool, need_gw: bool,
                        ) -> tuple[np.ndarray | None, np.ndarray | None,
                                   np.ndarray | None]:
        """``(dL/dx, dL/dw, dL/db)`` of :meth:`linear` (entries may be None)."""
        raise NotImplementedError

    def l2_normalize(self, x: np.ndarray, axis: int,
                     eps: float) -> tuple[np.ndarray, np.ndarray]:
        """``(x / (||x|| + eps), ||x||)`` along ``axis`` (norm keeps dims)."""
        raise NotImplementedError

    def l2_normalize_backward(self, grad: np.ndarray, x: np.ndarray,
                              norm: np.ndarray, axis: int,
                              eps: float) -> np.ndarray:
        """``dL/dx`` of :meth:`l2_normalize`."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<ArrayOps {self.name!r}>"
