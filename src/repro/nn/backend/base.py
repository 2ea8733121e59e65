"""The ``ArrayOps`` seam: every hot-path kernel the nn stack may delegate.

A backend is an object that (a) advertises which kernels it *fuses* via the
``fuses_*`` capability flags and (b) implements the fused forward/backward
pairs for the kernels it claims.  The autograd glue in
:mod:`repro.nn.kernels` consults the active backend per call: when a
capability flag is off it builds the composed graph the seed
implementation used (per-offset convolution slices, separate
matmul/add/relu nodes), and when it is on it records a
single graph node whose forward/backward call straight into the backend.

Gradient accumulation is also routed through the backend
(:meth:`ArrayOps.grad_init` / :meth:`ArrayOps.grad_add` /
:meth:`ArrayOps.release_grad`).  Every backend takes first-touch buffers
from a small :class:`_BufferPool` and gets the interior nodes' buffers back
when ``Tensor.backward`` finishes its walk; what a backend chooses is only
how the first touch is written (``0.0 + grad`` or a plain copy).

The contract every fused kernel must honour (enforced by the gradcheck suite
in ``tests/test_backend_gradcheck.py``): forward values and gradients agree
with the reference composition to float64 round-off (``rtol=1e-9``) for all
shapes the models produce, including the degenerate ``J=1``/``L=1`` and
partial-mask cases of MIE/MIMFE.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["ArrayOps"]


class _BufferPool:
    """Bounded per-(shape, dtype) free-list of gradient buffers.

    Buffers enter via :meth:`release` (from ``Tensor.backward`` clearing
    interior nodes) and leave via :meth:`acquire`.  The cap bounds
    worst-case memory; arrays beyond it are simply dropped for the garbage
    collector.  It is deliberately small: the pool exists so that the few
    large buffers of a step are not handed back to the kernel and faulted in
    again on the next one (small ones ``malloc`` recycles by itself).  On a
    DIN+MISS step a cap of 64 hit 87 % of the time against 29 %, and cost
    130 MiB more peak RSS and ~1,000 minor faults a step against none.  A
    lock keeps the free-list consistent if a grad-recording forward ever
    runs off the main thread.
    """

    __slots__ = ("_buffers", "_cap", "_lock", "hits", "misses")

    def __init__(self, cap_per_key: int = 4):
        self._buffers: dict[tuple, list[np.ndarray]] = {}
        self._cap = cap_per_key
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def acquire(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype).str)
        with self._lock:
            stack = self._buffers.get(key)
            if stack:
                self.hits += 1
                return stack.pop()
            self.misses += 1
        return np.empty(shape, dtype=dtype)

    def release(self, array: np.ndarray) -> None:
        # Views are never safe to recycle, and ``acquire`` promises C order.
        if array.base is not None or not array.flags.c_contiguous:
            return
        key = (array.shape, array.dtype.str)
        with self._lock:
            stack = self._buffers.setdefault(key, [])
            if len(stack) < self._cap:
                stack.append(array)

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()

    def size(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._buffers.values())


class ArrayOps:
    """Abstract backend.  Subclasses override flags and fused kernels.

    The base class implements the *reference* gradient-accumulation
    semantics (every first touch is ``0.0 + grad``) and owns the buffer
    pool, so a backend which fuses nothing computes the seed
    implementation's gradients bit for bit, out of recycled memory.
    """

    #: Registry name; set by subclasses.
    name = "abstract"

    # Capability flags — ``repro.nn.kernels`` consults these per call.
    fuses_conv = False          # windowed MIE/MIMFE convolutions
    fuses_linear = False        # linear (+bias) (+relu) forward/backward
    fuses_l2norm = False        # ``F.l2_normalize`` as one node

    def __init__(self):
        self.pool = _BufferPool()

    # ------------------------------------------------------------------
    # Gradient accumulation (reference first touch, pooled buffers)
    # ------------------------------------------------------------------
    def grad_init(self, grad: np.ndarray, like: np.ndarray) -> np.ndarray:
        """First accumulation into a gradient buffer for ``like``.

        One pass, and the same bits as zero-fill-then-add: every element is
        still ``0.0 + g`` (so ``-0.0`` becomes ``+0.0``), a smaller ``grad``
        still broadcasts, and the buffer keeps ``like``'s memory layout
        (recycled when that is C order, fresh otherwise).
        """
        if like.flags.c_contiguous:
            out = self.pool.acquire(like.shape, like.dtype)
        else:
            out = np.empty_like(like)
        return np.add(0.0, grad, out=out)

    def grad_add(self, acc: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Accumulate ``grad`` into the existing buffer ``acc``."""
        acc += grad
        return acc

    def release_grad(self, grad: np.ndarray) -> None:
        """Return a no-longer-needed gradient buffer to the pool."""
        self.pool.release(grad)

    def clear_pool(self) -> None:
        """Drop the reusable buffers the backend is holding."""
        self.pool.clear()

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

    # ------------------------------------------------------------------
    # L2 normalisation — the same on every backend: ``core.losses.info_nce``
    # is one node built on this pair; ``fuses_l2norm`` only decides whether
    # ``functional.l2_normalize`` is recorded as one node or as six.
    # ------------------------------------------------------------------
    def l2_normalize(self, x: np.ndarray, axis: int,
                     eps: float) -> tuple[np.ndarray, np.ndarray]:
        """``(x / (||x|| + eps), ||x||)`` along ``axis`` (norm keeps dims)."""
        norm = np.sqrt(np.sum(x * x, axis=axis, keepdims=True))
        return x / (norm + eps), norm

    def l2_normalize_backward(self, grad: np.ndarray, x: np.ndarray,
                              norm: np.ndarray, axis: int,
                              eps: float) -> np.ndarray:
        """``dL/dx`` of :meth:`l2_normalize`.

        Matches the reference composition, including its sqrt-backward
        clamp: d||x||/dx uses max(||x||, 1e-12) in the denominator, so an
        all-zero row gets a finite gradient.
        """
        scale = norm + eps
        dot = np.sum(grad * x, axis=axis, keepdims=True)
        safe = np.maximum(norm, 1e-12)
        return grad / scale - x * (dot / (scale * scale * safe))

    def __repr__(self) -> str:
        return f"<ArrayOps {self.name!r}>"
