"""Incremental trainer: prequential validation over stream windows.

Online learning has no held-out split — the stream itself is the validator.
Each window is first *scored* by the current model (that is the prequential,
or progressive, evaluation: the model predicts rows it has never trained on),
and only then *trained on*.  The sequence of per-window AUC/logloss values is
therefore an honest estimate of live performance, and it is exactly what the
promotion controller compares between learner and production.

The trainer warm-starts from a registry artifact
(:meth:`IncrementalTrainer.from_artifact`), checkpoints its full state per
window through :class:`~repro.resilience.RunCheckpoint` (window index rides
in the checkpoint's ``epoch`` field), and reuses the offline
:class:`~repro.resilience.AnomalyGuard`: a NaN/spike during a window rolls
the model back to the last good window and retries with a reduced learning
rate, under the guard's bounded retry budget.

Windows are trained in arrival order without shuffling, so a resumed run
(restore checkpoint, fast-forward the stream) continues bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..data.batching import CTRDataset, DataLoader
from ..models.base import CTRModel
from ..nn import Adam
from ..resilience import AnomalyGuard, AnomalySignal, CheckpointStore
from ..serving.artifact import load_artifact
from ..training.metrics import EvalResult
from ..training.step import RunState, train_step
from ..training.trainer import evaluate

__all__ = ["IncrementalConfig", "WindowResult", "IncrementalTrainer"]


#: Optimiser and batching settings of the online learner; the
#: learning rate and seed are the only ones an :class:`IncrementalConfig`
#: varies.
WEIGHT_DECAY = 1e-5
GRAD_CLIP = 10.0
BATCH_SIZE = 64
EVAL_BATCH_SIZE = 512


@dataclass(frozen=True)
class IncrementalConfig:
    """Hyper-parameters of the online learner."""

    learning_rate: float = 5e-3
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be finite and positive")


@dataclass
class WindowResult:
    """Prequential outcome of one window: evaluate-then-train."""

    window: int
    rows: int
    auc: float          # pre-training AUC on the window
    logloss: float      # pre-training logloss on the window
    train_loss: float   # mean training loss after the prequential eval


class IncrementalTrainer:
    """Evaluate-then-train consumer of stream windows."""

    def __init__(self, model: CTRModel, config: IncrementalConfig, *,
                 checkpoint_dir: str | Path | None = None):
        self.model = model
        self.config = config
        self.optimizer = Adam(model.parameters(), lr=config.learning_rate,
                              weight_decay=WEIGHT_DECAY)
        self.store = (CheckpointStore(checkpoint_dir)
                      if checkpoint_dir is not None else None)
        self.guard = AnomalyGuard()
        # The run state counts windows in its epoch fields (``epoch`` is the
        # next window to process).  Its RNG is serialised alongside the run
        # so RunCheckpoint round-trips cleanly; window training itself is
        # order-preserving and draws nothing.
        self._state = RunState(
            np.random.default_rng(config.seed), model, self.optimizer,
            {"kind": "streaming", **config.__dict__}, self.guard)
        self.history: list[WindowResult] = []
        self.guard.snapshot(self._state.capture())

    @classmethod
    def from_artifact(cls, path: str | Path, config: IncrementalConfig,
                      **kwargs) -> "IncrementalTrainer":
        """Warm-start from an exported serving artifact (digest-verified)."""
        model, _ = load_artifact(path)
        model.train()
        return cls(model, config, **kwargs)

    # ------------------------------------------------------------------
    # Prequential step
    # ------------------------------------------------------------------
    def process_window(self, data: CTRDataset, window: int) -> WindowResult:
        """Evaluate the model on ``data``, then train on it.

        The evaluation runs through the deterministic tiled forward (the
        same path serving uses), so learner prequential metrics are directly
        comparable to production's scores of the same rows.
        """
        state = self._state
        pre = self.prequential_eval(data)
        while True:
            try:
                train_loss = self._train_on(data)
                break
            except AnomalySignal as signal_:
                state.recover(signal_)
                del self.history[state.epoch:]
        result = WindowResult(window=window, rows=len(data), auc=pre.auc,
                              logloss=pre.logloss, train_loss=train_loss)
        self.history.append(result)
        state.selection.history.append(pre)
        state.train_losses.append(train_loss)
        state.epoch = state.epochs_run = window + 1
        state.save(self.store)
        return result

    def prequential_eval(self, data: CTRDataset) -> EvalResult:
        return evaluate(self.model, data, batch_size=EVAL_BATCH_SIZE)

    def _train_on(self, data: CTRDataset) -> float:
        self.model.train()
        loader = DataLoader(data, batch_size=BATCH_SIZE, shuffle=False)
        total = 0.0
        batches = 0
        for batch in loader:
            loss, _ = train_step(self.model, batch, self.optimizer,
                                 GRAD_CLIP, guard=self.guard)
            total += loss
            batches += 1
            self._state.step += 1
        return total / max(batches, 1)

    def resume(self) -> int:
        """Restore the latest per-window checkpoint; returns the next window.

        The caller fast-forwards the stream with ``windows(start=...)`` and
        continues; weights, optimiser moments, and module RNG streams are all
        restored, so the continuation is bit-identical to an uninterrupted
        run over the same stream.
        """
        if self.store is None:
            raise ValueError("resume requires a checkpoint_dir")
        ckpt, _, _ = self.store.load_latest()
        if ckpt is None:
            return 0
        self._state.restore(ckpt)
        # History rows round-trip as (auc, logloss); train losses ride in
        # the parallel train_losses list.
        self.history = [
            WindowResult(window=i, rows=0, auc=row["auc"],
                         logloss=row["logloss"],
                         train_loss=ckpt.train_losses[i])
            for i, row in enumerate(ckpt.history)]
        self.guard.snapshot(ckpt)
        return self._state.epoch
