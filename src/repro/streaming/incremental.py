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


@dataclass(frozen=True)
class IncrementalConfig:
    """Hyper-parameters of the online learner."""

    learning_rate: float = 5e-3
    weight_decay: float = 1e-5
    grad_clip: float = 10.0
    batch_size: int = 64
    passes_per_window: int = 1
    eval_batch_size: int = 512
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be finite and positive")
        if not math.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ValueError("weight_decay must be finite and non-negative")
        if not math.isfinite(self.grad_clip) or self.grad_clip <= 0:
            raise ValueError("grad_clip must be finite and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.passes_per_window < 1:
            raise ValueError("passes_per_window must be >= 1")
        if self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be >= 1")


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
                 checkpoint_dir: str | Path | None = None,
                 keep_checkpoints: int = 3,
                 anomaly_guard=True):
        self.model = model
        self.config = config
        self.optimizer = Adam(model.parameters(), lr=config.learning_rate,
                              weight_decay=config.weight_decay)
        self.store = (CheckpointStore(checkpoint_dir,
                                      keep_last=keep_checkpoints)
                      if checkpoint_dir is not None else None)
        self.guard = AnomalyGuard.build(anomaly_guard)
        # The run state counts windows in its epoch fields (``epoch`` is the
        # next window to process).  Its RNG is serialised alongside the run
        # so RunCheckpoint round-trips cleanly; window training itself is
        # order-preserving and draws nothing.
        self._state = RunState(
            np.random.default_rng(config.seed), model, self.optimizer,
            {"kind": "streaming", **config.__dict__}, self.guard)
        self.history: list[WindowResult] = []
        if self.guard is not None:
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

        The evaluation runs through the deterministic blocked forward (the
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
        state.losses.append(train_loss)
        state.epoch = state.epochs_run = window + 1
        state.save(self.store)
        return result

    def prequential_eval(self, data: CTRDataset) -> EvalResult:
        return evaluate(self.model, data,
                        batch_size=self.config.eval_batch_size)

    def _train_on(self, data: CTRDataset) -> float:
        cfg = self.config
        self.model.train()
        loader = DataLoader(data, batch_size=cfg.batch_size, shuffle=False)
        total = 0.0
        batches = 0
        for _ in range(cfg.passes_per_window):
            for batch in loader:
                loss, _ = train_step(self.model, batch, self.optimizer,
                                     cfg.grad_clip, guard=self.guard)
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
        if self.guard is not None:
            self.guard.snapshot(ckpt)
        return self._state.epoch
