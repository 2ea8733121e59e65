"""Module system: parameter containers with recursive discovery.

Mirrors the familiar ``torch.nn.Module`` contract at the scale this
reproduction needs: parameter registration by attribute assignment, recursive
``parameters()`` / ``named_parameters()``, train/eval mode propagation, and
``state_dict`` round-tripping for the pre-training strategy of Table IX.
"""

from __future__ import annotations

import mmap
from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "FlatParameters", "Buffer", "Module", "ModuleList"]


class Parameter(Tensor):
    """A tensor that is registered as a trainable model weight.

    A :class:`FlatParameters` binds it: ``data`` becomes a view of one
    vector and ``grad`` reads a slice of a second while the parameter's
    touched flag is set, ``None`` otherwise.  Assigning ``None`` clears the
    flag; assigning an array copies it into the slice.
    """

    def __init__(self, data):
        self._slot = None           # gradient slice once bound
        self._flag = None           # its one-element touched flag
        super().__init__(data, requires_grad=True)

    @property
    def grad(self) -> np.ndarray | None:
        if self._slot is None:
            return self._grad
        return self._slot if self._flag[0] else None

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._slot is None:
            self._grad = value
            return
        if value is not None and value is not self._slot:
            np.copyto(self._slot, value)
        self._flag[0] = value is not None

    def _grad_buffer(self) -> np.ndarray:
        return super()._grad_buffer() if self._slot is None else self._slot

    def _bind(self, data: np.ndarray, slot: np.ndarray,
              flag: np.ndarray) -> None:
        """Take ``data`` (holding this parameter's values) and ``slot`` as
        its arrays; a gradient it holds moves into ``slot``."""
        grad = self.grad
        self.data = data.reshape(self.data.shape)
        self._slot, self._flag = slot.reshape(self.data.shape), flag
        self.grad = grad


def mapped_zeros(rows: int, size: int) -> np.ndarray:
    """A zeroed ``(rows, size)`` float64 array in an anonymous mapping of
    its own, every page written: flat vectors made right before a run and
    kept through it would otherwise sit among the heap chunks every step
    reuses, and warm steps would fault pages in (DESIGN.md §10)."""
    mapping = mmap.mmap(-1, max(rows * size, 1) * 8)
    out = np.frombuffer(mapping, dtype=np.float64, count=rows * size)
    out.fill(0.0)
    return out.reshape(rows, size)


class FlatParameters:
    """``parameters`` laid end to end in one float64 vector.

    :attr:`data` holds every value and :attr:`grad` every gradient, in
    list order; :attr:`touched` says per parameter whether it holds a
    gradient this step.  Building one binds the parameters (each ``data``
    becomes a view of :attr:`data`), so whole-vector arithmetic is the
    parameters' arithmetic.  A parameter belongs to the last one built
    over it: binding is never cached on a model, and a deep copy of a bound
    parameter owns its arrays.
    """

    def __init__(self, parameters):
        self.parameters = list(parameters)
        self.sizes = np.array([p.size for p in self.parameters], dtype=np.intp)
        self.data, self.grad = mapped_zeros(2, int(self.sizes.sum()))
        if self.parameters:
            np.concatenate([p.data.reshape(-1) for p in self.parameters],
                           out=self.data)
        self.touched = np.zeros(len(self.parameters), dtype=bool)
        ends = np.cumsum(self.sizes)
        for i, (p, end) in enumerate(zip(self.parameters, ends)):
            start = end - self.sizes[i]
            p._bind(self.data[start:end], self.grad[start:end],
                    self.touched[i:i + 1])

    def mask(self) -> np.ndarray:
        """Per element, whether its parameter has a gradient (a ufunc
        ``where=``)."""
        return np.repeat(self.touched, self.sizes)

    def published_grad(self) -> np.ndarray:
        """:attr:`grad` with every parameter that has no gradient read as
        zero (its slice may still hold an earlier step's values)."""
        return np.where(self.mask(), self.grad, 0.0)


class Buffer:
    """Non-trainable state saved alongside parameters (e.g. running stats).

    Buffers participate in ``state_dict``/``load_state_dict`` so that
    checkpoint restore reproduces evaluation-time behaviour exactly, but they
    receive no gradients and are ignored by optimisers.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)


class Module:
    """Base class for all neural-network components."""

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------
    # Parameter and submodule discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            path = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{path}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, Buffer]]:
        for name, value in vars(self).items():
            path = f"{prefix}{name}"
            if isinstance(value, Buffer):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_buffers(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Buffer):
                        yield f"{path}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_buffers(prefix=f"{path}.{i}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def num_parameters(self) -> int:
        """Total number of scalar weights (used by complexity tests)."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Train / eval modes
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    # ------------------------------------------------------------------
    # Gradient and state management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({f"{name}@buffer": b.value.copy()
                      for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        params = dict(self.named_parameters())
        buffers = {f"{name}@buffer": b for name, b in self.named_buffers()}
        own: dict[str, object] = {**params, **buffers}
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, array in state.items():
            if name not in own:
                continue
            target = own[name]
            if isinstance(target, Buffer):
                if target.value.shape != array.shape:
                    raise ValueError(
                        f"shape mismatch for buffer {name}: model "
                        f"{target.value.shape} vs state {array.shape}")
                target.value = np.array(array, dtype=np.float64)
            else:
                if target.shape != array.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: model {target.shape} vs "
                        f"state {array.shape}")
                # In place: an optimizer's vector keeps holding the values.
                target.data[...] = array

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ModuleList(Module):
    """An indexable container whose entries are registered submodules."""

    def __init__(self, modules=()):
        super().__init__()
        self.items = list(modules)

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]
