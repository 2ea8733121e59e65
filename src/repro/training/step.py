"""The one optimisation step, the one epoch policy, the one run state.

Every training loop — ``Trainer``, MISS-Pre stage one, the streaming
``IncrementalTrainer``, the data-parallel rank loop — is a driver over this
module (DESIGN.md §7b "The training step").  Local loops run
:func:`forward_backward` and :func:`clip_and_step` back to back through
:func:`train_step`; the rank loop puts the gradient allreduce between the
two.  It is the only module outside :mod:`repro.nn` that calls
``backward()`` or ``clip_grad_norm``; ``tests/test_step.py`` keeps it so.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ..nn import clip_grad_norm
from ..obs import AnomalyDetectedEvent, CheckpointRestoredEvent, ObserverList, phase
from ..resilience import (
    AnomalySignal,
    NumericalAnomalyError,
    RunCheckpoint,
    anomaly,
    named_rng_states,
    restore_rng_states,
    rng_state,
    set_rng_state,
)
from .metrics import EvalResult

__all__ = [
    "forward_backward",
    "clip_and_step",
    "train_step",
    "improvement",
    "Selection",
    "RunState",
]


def forward_backward(model, batch, params, objective=None, guard=None) -> float:
    """Clear ``params``' gradients, run the objective, back-propagate.

    ``objective`` defaults to ``model.training_loss`` (Eq. 17's joint loss
    for a MISS-enhanced model); MISS-Pre stage one passes
    ``model.ssl_loss``.  With a guard, the loss is checked *before*
    ``backward()`` so an anomaly never reaches the gradients.  Returns the
    loss value.
    """
    for p in params:
        p.grad = None
    with phase("train.forward"):
        loss = (objective or model.training_loss)(batch)
    value = loss.item()
    if guard is not None:
        kind = guard.check_loss(value)
        if kind is not None:
            raise AnomalySignal(kind, value)
    with phase("train.backward"):
        loss.backward()
    return value


def clip_and_step(optimizer, grad_clip: float, guard=None) -> float:
    """Clip the gradients held by ``optimizer``'s parameters and apply the
    update; returns the pre-clip gradient norm.

    With a guard, a non-finite norm is caught before the update applies, so
    the weights stay finite; the rollback still rewinds to replay the
    stream.
    """
    with phase("train.optim"):
        grad_norm = clip_grad_norm(optimizer.parameters, grad_clip)
        if guard is not None:
            kind = guard.check_grad_norm(grad_norm)
            if kind is not None:
                raise AnomalySignal(kind, grad_norm)
        optimizer.step()
    return grad_norm


def train_step(model, batch, optimizer, grad_clip: float, objective=None, guard=None):
    """One local step: both halves back to back; returns ``(loss, grad_norm)``.

    A healthy step's loss is folded into the guard's spike-detection EMA.
    """
    loss = forward_backward(model, batch, optimizer.parameters, objective, guard)
    grad_norm = clip_and_step(optimizer, grad_clip, guard)
    if guard is not None:
        guard.record(loss)
    return loss, grad_norm


def improvement(auc: float, best_auc: float) -> bool:
    """Validation-selection rule: an epoch improves only on a *finite* AUC
    strictly above the best so far.  NaN must not silently win (``NaN > x``
    is ``False`` for every ``x``), so a NaN epoch counts as non-improving
    and the all-NaN case is rejected explicitly by
    :meth:`Selection.best_or_raise`.
    """
    return bool(np.isfinite(auc) and auc > best_auc)


class Selection:
    """Validation-driven model selection and early stopping."""

    def __init__(self):
        self.best_auc = -np.inf
        self.best_state: dict[str, np.ndarray] | None = None
        self.best_epoch = -1
        self.bad_epochs = 0
        self.history: list[EvalResult] = []  # one validation result per epoch

    def update(self, result: EvalResult, model) -> bool:
        """Record the finished epoch's validation ``result``; keeps a copy
        of ``model``'s weights and returns True when it is the new best."""
        epoch = len(self.history)
        self.history.append(result)
        improved = improvement(result.auc, self.best_auc)
        if improved:
            self.best_auc = result.auc
            self.best_state = model.state_dict()
            self.best_epoch = epoch
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return improved

    def should_stop(self, cfg) -> bool:
        """Epoch budget spent, or ``cfg.patience`` epochs without a new best."""
        return len(self.history) >= cfg.epochs or self.bad_epochs >= cfg.patience

    def best_or_raise(self) -> dict[str, np.ndarray]:
        """The best epoch's weights; refuses when no epoch ever validated."""
        if self.best_state is None:
            last = self.history[-1].auc if self.history else None
            raise RuntimeError(
                "training never produced a finite validation AUC "
                f"({len(self.history)} epoch(s), last={last!r}); "
                "refusing to silently select the final weights"
            )
        return self.best_state


#: Checkpoint fields taken from the model, optimizer or guard, or reshaped
#: (``history``).  Every other field lives on the run state or its selection
#: under its own name and is copied across as is.
_DERIVED = {
    "model_state",
    "optimizer_state",
    "module_rng_states",
    "history",
    "anomaly_retries",
    "anomaly_ema",
    "anomaly_steps_seen",
}

#: Checkpoint fields held by the run state's :class:`Selection`.
_SELECTION = {"best_auc", "best_epoch", "bad_epochs", "best_state"}


class RunState:
    """Mutable loop state of one run — exactly what a :class:`RunCheckpoint`
    serialises — bound to the live objects it snapshots.

    ``rng`` is the loader's generator; ``optimizer`` needs only
    ``state_dict()`` / ``load_state_dict()`` to be captured (plus ``lr`` for
    :meth:`recover`); ``config`` is stored verbatim in every checkpoint and
    never restored (a resumed run keeps its own).  Streaming reuses the
    epoch counters per window (``epoch`` is the next window to process).
    """

    def __init__(self, rng: np.random.Generator, model, optimizer, config, guard=None):
        self.rng = rng
        self.model = model
        self.optimizer = optimizer
        self.config = config
        self.guard = guard
        self.epoch = 0
        self.batches_done = 0  # batches completed in the current epoch
        self.loader_rng_state = rng_state(rng)  # loader RNG at epoch start
        self.step = 0
        self.selection = Selection()
        self.train_losses: list[float] = []  # mean training loss per epoch
        self.epoch_loss = 0.0
        self.num_batches = 0
        self.component_sums: dict[str, float] = {}
        self.epochs_run = 0
        self.completed = False

    def begin_epoch(self) -> int:
        """Open the current epoch; returns how many of its batches to skip.

        Non-zero only when resuming (or rolling back) mid-epoch: the loader
        RNG is rewound to the epoch start so the permutation replays
        identically and the batches already trained on are skipped.
        """
        self.epochs_run = self.epoch + 1
        if self.batches_done == 0:
            self.loader_rng_state = rng_state(self.rng)
            self.epoch_loss = 0.0
            self.num_batches = 0
            self.component_sums = {}
        else:
            set_rng_state(self.rng, self.loader_rng_state)
        return self.batches_done

    def record_step(self, loss: float) -> None:
        self.epoch_loss += loss
        self.num_batches += 1
        self.step += 1
        self.batches_done += 1

    def end_epoch(self) -> float:
        """Close the epoch; returns its mean training loss.

        The finished epoch's permutation has already been drawn from the
        loader RNG, so its state *now* is what the next epoch consumes.  The
        capture is refreshed here, before any epoch-end checkpoint — a resume
        from a stale capture would replay the finished epoch's permutation
        and diverge from the uninterrupted run.
        """
        mean_loss = self.epoch_loss / max(self.num_batches, 1)
        self.train_losses.append(mean_loss)
        self.epoch += 1
        self.batches_done = 0
        self.loader_rng_state = rng_state(self.rng)
        return mean_loss

    def _holder(self, name: str):
        """Where checkpoint field ``name`` lives."""
        return self.selection if name in _SELECTION else self

    def capture(self) -> RunCheckpoint:
        guard = self.guard
        derived = {
            "model_state": self.model.state_dict(),
            "optimizer_state": self.optimizer.state_dict(),
            "module_rng_states": named_rng_states(self.model),
            "history": [asdict(r) for r in self.selection.history],
            "anomaly_retries": guard.retries if guard is not None else 0,
            "anomaly_ema": guard.ema if guard is not None else None,
            "anomaly_steps_seen": guard.steps_seen if guard is not None else 0,
        }
        return RunCheckpoint(
            **derived,
            **{
                f.name: copy.deepcopy(getattr(self._holder(f.name), f.name))
                for f in fields(RunCheckpoint)
                if f.name not in _DERIVED
            },
        )

    def save(self, store, is_best: bool = False) -> Path | None:
        """Capture; persist when there is a ``store``; re-arm the guard's
        rollback target.  Returns the checkpoint path, if one was written."""
        ckpt = self.capture()
        path = store.save(ckpt, is_best=is_best) if store is not None else None
        if self.guard is not None:
            self.guard.snapshot(ckpt, path)
        return path

    def restore(self, ckpt: RunCheckpoint) -> None:
        self.model.load_state_dict(ckpt.model_state)
        self.optimizer.load_state_dict(ckpt.optimizer_state)
        restore_rng_states(self.model, ckpt.module_rng_states)
        set_rng_state(self.rng, ckpt.loader_rng_state)
        self.selection.history = [EvalResult(**row) for row in ckpt.history]
        if self.guard is not None:
            self.guard.retries = ckpt.anomaly_retries
            self.guard.ema = ckpt.anomaly_ema
            self.guard.steps_seen = ckpt.anomaly_steps_seen
        for f in fields(ckpt):
            if f.name not in _DERIVED and f.name != "config":
                holder = self._holder(f.name)
                setattr(holder, f.name, copy.deepcopy(getattr(ckpt, f.name)))

    def recover(self, signal_: AnomalySignal, observers=None) -> None:
        """Roll back to the guard's last good checkpoint with LR backoff, or
        give up with :class:`NumericalAnomalyError` once the retry budget is
        spent.  The anomalous step is the one after ``self.step``: signals
        are raised before the step is recorded."""
        guard, optimizer = self.guard, self.optimizer
        obs = ObserverList.build(observers)
        step = self.step + 1
        guard.retries += 1
        retries = guard.retries
        obs.emit(
            AnomalyDetectedEvent(
                step=step,
                epoch=self.epoch,
                anomaly=signal_.kind,
                value=signal_.value,
                lr=optimizer.lr,
                retries=retries,
                retries_remaining=guard.retries_remaining,
            )
        )
        ckpt = guard.last_good
        if retries > anomaly.MAX_RETRIES or ckpt is None:
            raise NumericalAnomalyError(
                f"{signal_.kind} at step {step} (value={signal_.value!r}); "
                f"retry budget of {anomaly.MAX_RETRIES} exhausted "
                f"(lr reached {optimizer.lr:g})"
            ) from signal_
        lr_at_failure = optimizer.lr
        self.restore(ckpt)
        guard.retries = max(retries, ckpt.anomaly_retries)
        # Back off from the lr in effect when the anomaly hit (not the
        # restored one) so repeated failures keep shrinking the step size.
        optimizer.lr = lr_at_failure * anomaly.BACKOFF_FACTOR
        guard.reset_stats()
        path = guard.last_good_path
        obs.emit(
            CheckpointRestoredEvent(
                step=ckpt.step,
                epoch=ckpt.epoch,
                reason="rollback",
                path=str(path) if path is not None else None,
            )
        )
