"""Adam, the one optimiser (the paper trains everything with it), and the
global-norm gradient clip."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .module import FlatParameters, Parameter, mapped_zeros

__all__ = ["Adam", "clip_grad_norm", "BETA1", "BETA2", "EPS"]

#: Adam's constants (Kingma & Ba, 2015), the paper's as well (§VI-A5).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction and L2 weight decay, stepped as
    whole-vector passes over :class:`~.module.FlatParameters`.

    A parameter with no gradient this step (``grad is None``) neither moves
    nor decays its moments: its lanes are not written back.  Each element's
    arithmetic is that of a per-parameter loop, bit for bit.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.flat = FlatParameters(parameters)
        self.parameters = self.flat.parameters
        self.lr = lr
        self.weight_decay = weight_decay
        self._m, self._v, *self._work = mapped_zeros(6, self.flat.data.size)
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - BETA1 ** self._t
        bias2 = 1.0 - BETA2 ** self._t
        where = self.flat.mask()
        data, grad = self.flat.data, self.flat.grad
        scratch, update, new_m, new_v = self._work
        # Every lane is computed and only touched ones are written back;
        # an untouched slice may hold an earlier step's values.
        np.copyto(grad, 0.0, where=~where)
        if self.weight_decay:
            grad = np.add(grad, np.multiply(self.weight_decay, data, out=update),
                          out=update)
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
        np.multiply(self._m, BETA1, out=new_m)
        new_m += np.multiply(1.0 - BETA1, grad, out=scratch)
        np.multiply(self._v, BETA2, out=new_v)
        np.multiply(1.0 - BETA2, grad, out=scratch)
        new_v += np.multiply(scratch, grad, out=scratch)
        # data -= lr (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(new_v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        np.divide(new_m, bias1, out=update)
        np.multiply(self.lr, update, out=update)
        update /= scratch
        np.copyto(self._m, new_m, where=where)
        np.copyto(self._v, new_v, where=where)
        np.copyto(data, np.subtract(data, update, out=update), where=where)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _slices(self, flat: np.ndarray) -> list[np.ndarray]:
        """``flat`` cut into per-parameter arrays (views)."""
        ends = np.cumsum(self.flat.sizes)
        return [flat[end - p.size:end].reshape(p.shape)
                for p, end in zip(self.parameters, ends)]

    def state_dict(self) -> dict:
        """Restorable snapshot: hyper-parameters + moment arrays (copies).

        Layout: scalar fields at the top level, every per-parameter moment
        under ``"arrays"`` keyed ``"m.<index>"`` / ``"v.<index>"`` — flat
        names so checkpoint stores can serialise them directly into an
        ``.npz``.  ``betas`` and ``eps`` are written for the reader's sake;
        they are constants.
        """
        arrays = {f"m.{i}": m.copy() for i, m in enumerate(self._slices(self._m))}
        arrays.update({f"v.{i}": v.copy()
                       for i, v in enumerate(self._slices(self._v))})
        return {"kind": "Adam", "lr": float(self.lr),
                "weight_decay": float(self.weight_decay),
                "betas": [BETA1, BETA2], "eps": EPS, "t": int(self._t),
                "arrays": arrays}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`; refuses one of
        another kind, with other constants, or with missing or misshapen
        moments."""
        kind = state.get("kind")
        if kind != "Adam":
            raise ValueError(f"optimizer state is for {kind!r}, not Adam")
        betas = tuple(float(b) for b in state.get("betas", (BETA1, BETA2)))
        eps = float(state.get("eps", EPS))
        if betas != (BETA1, BETA2) or eps != EPS:
            raise ValueError(f"optimizer state has betas={betas} eps={eps}; "
                             f"Adam's are ({BETA1}, {BETA2}) and {EPS}")
        self.lr = float(state["lr"])
        self.weight_decay = float(state["weight_decay"])
        self._t = int(state["t"])
        arrays = state.get("arrays", {})
        for name, moment in (("m", self._m), ("v", self._v)):
            for i, current in enumerate(self._slices(moment)):
                key = f"{name}.{i}"
                if key not in arrays:
                    raise ValueError(f"optimizer state missing array {key!r}")
                incoming = np.asarray(arrays[key])
                if incoming.shape != current.shape:
                    raise ValueError(
                        f"optimizer state shape mismatch for {key!r}: "
                        f"{incoming.shape} vs {current.shape}")
                current[...] = incoming


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Clip gradients in place to a global L2 norm; returns the pre-clip norm."""
    grads = [g for g in (p.grad for p in parameters) if g is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
