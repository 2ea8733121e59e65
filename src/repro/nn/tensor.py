"""Reverse-mode automatic differentiation on top of numpy.

This module is the foundation of the whole reproduction: the paper relies on
PyTorch/TensorFlow, which are unavailable offline, so we implement a small but
complete autograd engine.  A :class:`Tensor` wraps a ``numpy.ndarray`` and
records the operations applied to it; calling :meth:`Tensor.backward` walks the
recorded graph in reverse topological order and accumulates gradients.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects stored on ``Tensor.grad``.
* Broadcasting follows numpy semantics; :func:`_unbroadcast` reduces a
  gradient back to the shape of the operand that was broadcast.
* Graph recording can be suspended with :func:`no_grad` (used during
  evaluation), which makes inference allocation-free apart from numpy.
* The engine is deliberately eager: the benchmark harness uses batch sizes
  of at most a few hundred with embedding width 10, where numpy's vectorised
  kernels dominate the runtime anyway.  Grad mode is tracked per thread so
  the serving engine can run ``no_grad`` forwards on worker threads without
  disturbing training on the main thread.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .backend import get_backend

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
]

# Grad mode is per-thread: the serving engine runs no_grad forwards on
# worker threads concurrently with (potentially grad-recording) work on the
# main thread, and a process-global flag would let one thread's restore
# clobber another's state.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording on the calling thread.

    Use around evaluation loops so that forward passes do not retain
    references to intermediate arrays.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded for autodiff."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_key(key) -> bool:
    """True when ``key`` is numpy *basic* indexing: ints, slices, ``None``
    and ``Ellipsis`` only, so it can select no element twice."""
    items = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in items)


class Tensor:
    """A numpy-backed array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), _op: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents = _parents if self.requires_grad else ()
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag}, op={self._op!r})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph construction utilities
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], op: str,
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires,
                     _parents=tuple(p for p in parents if p.requires_grad), _op=op)
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (only from inside a
        :meth:`backward` walk, which resolved the backend for it)."""
        ops = _GRAD_STATE.ops
        if self.grad is None:
            self.grad = ops.grad_init(grad, self.data)
        else:
            ops.grad_add(self.grad, grad)

    def _adopt(self, dense: np.ndarray) -> None:
        """Accumulate ``dense``, a buffer the caller just built by adding
        into zeros and will not touch again.  Such sums are never ``-0.0``,
        so ``0.0 + dense`` is ``dense`` bit for bit and a first touch keeps
        the buffer itself; only for C-contiguous data, where the copy would
        have had the same memory layout (DESIGN.md §10)."""
        if self.grad is None and self.data.flags.c_contiguous:
            self.grad = dense
        else:
            self._accumulate(dense)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        ops = _GRAD_STATE.ops = get_backend()  # once per walk
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

        # Interior-node gradients are dead once the walk completes; hand
        # their buffers back so the next backward pass reuses them instead
        # of faulting fresh pages in.  Leaves (`_backward is None`) keep
        # their grads for the optimizer; so does the root.
        for node in topo:
            if node is self or node._backward is None:
                continue
            buffer = node.grad
            if buffer is not None:
                node.grad = None
                ops.release_grad(buffer)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), "add", backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape))

        return Tensor._make(out_data, (self, other), "div", backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), "pow", backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.expand_dims(grad, -1) * b
                elif a.ndim == 1:
                    ga = grad @ np.swapaxes(b, -1, -2)
                    ga = ga.reshape(a.shape) if ga.shape != a.shape else ga
                else:
                    ga = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(ga, a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.expand_dims(a, -1) * grad
                elif b.ndim == 1:
                    gb = np.swapaxes(a, -1, -2) @ grad if grad.ndim > 1 else a.T @ grad
                    gb = _unbroadcast(gb, b.shape)
                else:
                    gb = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (self, other), "matmul", backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), "exp", backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), "log", backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

        return Tensor._make(out_data, (self,), "sqrt", backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), "tanh", backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), "sigmoid", backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), "relu", backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), "abs", backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), "clip", backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), "sum", backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                o = np.expand_dims(o, axis)
            mask = (self.data == o)
            # Split gradient between ties, matching the subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._make(out_data, (self,), "max", backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), "reshape", backward)

    def flatten_from(self, start_axis: int) -> "Tensor":
        """Collapse all axes from ``start_axis`` onward into one."""
        new_shape = self.shape[:start_axis] + (-1,)
        return self.reshape(new_shape)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if axes is None:
            inverse = None
        else:
            inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), "transpose", backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(axes)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(out_data, (self,), "expand_dims", backward)

    def squeeze(self, axis: int) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.expand_dims(grad, axis))

        return Tensor._make(out_data, (self,), "squeeze", backward)

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        out_data = np.broadcast_to(self.data, shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))

        return Tensor._make(out_data.copy(), (self,), "broadcast_to", backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        basic = _is_basic_key(key)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(self.shape)
            if basic:
                full[key] += grad
            else:
                # Integer-array and boolean keys may select an element
                # twice: only the unbuffered ``np.add.at`` sums those.
                np.add.at(full, key, grad)
            self._adopt(full)

        return Tensor._make(out_data, (self,), "getitem", backward)

    def take(self, indices: np.ndarray, axis: int = 0) -> "Tensor":
        """Differentiable gather along ``axis``: the embedding lookup.

        Its backward is one flat ``bincount`` segment-sum over
        ``row * K + column``: each cell's contributions added in index order
        from ``+0.0``, the bits of ``np.add.at`` without its per-element loop.
        """
        indices = np.asarray(indices)
        if axis != 0:  # the same gather spelled as a fancy key
            return self[(slice(None),) * (axis % self.ndim) + (indices,)]
        out_data = np.take(self.data, indices, axis=0)

        def backward(grad: np.ndarray) -> None:
            num_rows, row_size = self.shape[0], math.prod(self.shape[1:])
            rows = indices.reshape(-1)
            rows = np.where(rows < 0, rows + num_rows, rows)
            cells = (rows[:, None] * row_size + np.arange(row_size)).ravel()
            full = np.bincount(cells, weights=grad.ravel(),
                               minlength=self.size)
            self._adopt(full.reshape(self.shape))

        return Tensor._make(out_data, (self,), "take", backward)


def as_tensor(value) -> Tensor:
    """Coerce scalars/arrays/tensors to :class:`Tensor` without copying tensors."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``numpy.concatenate``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), "concatenate", backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``numpy.stack``."""
    tensors = [as_tensor(t) for t in tensors]
    return concatenate([t.expand_dims(axis) for t in tensors], axis=axis)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Differentiable ``numpy.where`` with a non-differentiable condition."""
    a, b = as_tensor(a), as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~condition), b.shape))

    return Tensor._make(out_data, (a, b), "where", backward)


def maximum(a, b) -> Tensor:
    """Differentiable elementwise maximum."""
    a, b = as_tensor(a), as_tensor(b)
    return where(a.data >= b.data, a, b)


def minimum(a, b) -> Tensor:
    """Differentiable elementwise minimum."""
    a, b = as_tensor(a), as_tensor(b)
    return where(a.data <= b.data, a, b)
