"""Mini-batch training loop with validation-based model selection.

Follows the paper's protocol (§VI-A5): Adam optimiser, batch size 128, the
validation split drives hyper-parameter/epoch selection, and reported numbers
come from the test split.

The loop narrates itself through the :mod:`repro.obs` event bus: pass
``observers=[...]`` to receive structured run/epoch/batch/eval events, with
per-phase wall-time (data assembly, forward, backward, optimiser step, eval)
and per-component losses when the model exposes them.  With no observers
attached the instrumentation is skipped entirely.

The step, the epoch-end selection rule and the checkpointed run state live
in :mod:`repro.training.step`; this is the single-process driver over them.

Crash safety (see :mod:`repro.resilience` and DESIGN.md §"Resilience"):
``fit(..., checkpoint_dir=...)`` writes atomic, checksummed
:class:`~repro.resilience.RunCheckpoint` files every ``checkpoint_every``
steps and at every epoch end; ``resume=True`` continues a killed run
bit-identically (same weights, same metrics) because the checkpoint carries
the optimiser moments, the loader RNG state at epoch start, and every
module-level RNG stream.  If *every* checkpoint on disk fails validation,
``resume=True`` raises instead of silently restarting from scratch.
SIGINT/SIGTERM finish the in-flight step (or the in-flight epoch-end eval),
write a final checkpoint, and raise
:class:`~repro.resilience.TrainingInterrupted`.
``anomaly_guard=True`` adds NaN/Inf/spike detection with rollback to the last
good checkpoint and learning-rate backoff under a bounded retry budget.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..data.batching import CTRDataset, DataLoader
from ..data.pipeline.loader import PrefetchLoader
from ..models.base import CTRModel
from ..nn import Adam, get_backend
from ..serving.forward import forward_probabilities
from ..obs import (
    BatchEndEvent,
    CheckpointRestoredEvent,
    CheckpointWrittenEvent,
    EpochStartEvent,
    EvalEndEvent,
    MetricRegistry,
    ObserverList,
    PhaseTimings,
    RunEndEvent,
    RunStartEvent,
    collect,
    phase,
)
from ..resilience import (
    AnomalyGuard,
    AnomalySignal,
    CheckpointCorruptError,
    CheckpointStore,
    GracefulInterrupt,
    TrainingInterrupted,
)
from .metrics import EvalResult, auc_score, logloss_score
from .step import RunState, improvement, train_step

__all__ = ["TrainConfig", "TrainResult", "Trainer", "evaluate",
           "improvement"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 10
    batch_size: int = 128
    eval_batch_size: int = 512  # memory granularity of eval forwards
    learning_rate: float = 1e-2
    weight_decay: float = 1e-5
    patience: int = 3          # early stopping on validation AUC
    grad_clip: float = 10.0
    seed: int = 0
    num_workers: int = 0       # 0 = in-line batch assembly (DataLoader)
    prefetch_depth: int = 2    # batches per worker window when prefetching

    def __post_init__(self):
        # Bad CLI input must fail here, at construction, not mid-run.
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be >= 1")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be finite and positive, "
                f"got {self.learning_rate!r}")
        if not math.isfinite(self.grad_clip) or self.grad_clip <= 0:
            raise ValueError(
                f"grad_clip must be finite and positive, got {self.grad_clip!r}")
        if not math.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ValueError(
                f"weight_decay must be finite and non-negative, "
                f"got {self.weight_decay!r}")


@dataclass
class TrainResult:
    """Outcome of a training run."""

    best_epoch: int
    validation: EvalResult
    history: list[EvalResult] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)
    #: JSON-safe telemetry snapshots; populated only when observers were
    #: attached to the run (metric registry dump and per-phase timings).
    metrics: dict | None = None
    timings: dict | None = None


def evaluate(model: CTRModel, dataset: CTRDataset, batch_size: int = 512) -> EvalResult:
    """AUC/Logloss of ``model`` on ``dataset`` in eval mode.

    ``batch_size`` only bounds how many rows are materialised at once; the
    actual forward runs through the fixed-block deterministic path shared
    with the serving subsystem, so metrics are bit-identical for any choice
    of ``batch_size`` (and to online scores of the same rows).
    """
    if len(dataset) == 0:
        raise ValueError(
            f"cannot evaluate on an empty split of dataset "
            f"{dataset.schema.name!r}: it contains no samples")
    was_training = model.training
    model.eval()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    probs = np.concatenate([forward_probabilities(model, batch)
                            for batch in loader])
    if was_training:
        model.train()
    return EvalResult(auc=auc_score(dataset.labels, probs),
                      logloss=logloss_score(dataset.labels, probs))


class Trainer:
    """Trains any :class:`CTRModel` via its ``training_loss`` hook.

    The same trainer drives plain baselines, MISS-enhanced models, and the
    SSL baselines — they only differ in what ``training_loss`` returns.
    """

    def __init__(self, config: TrainConfig):
        self.config = config

    # ``train`` may be any ``__len__`` + ``batch(indices)`` dataset — the
    # in-memory CTRDataset or a pipeline ShardedCTRDataset (duck-typed).
    def fit(self, model: CTRModel, train, validation: CTRDataset,
            observers=None, *,
            checkpoint_dir: str | Path | None = None,
            resume: bool = False,
            checkpoint_every: int | None = None,
            keep_checkpoints: int = 3,
            anomaly_guard=None,
            handle_signals: bool | None = None) -> TrainResult:
        cfg = self.config
        obs = ObserverList.build(observers)
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        store = (CheckpointStore(checkpoint_dir, keep_last=keep_checkpoints)
                 if checkpoint_dir is not None else None)
        if resume and store is None:
            raise ValueError("resume=True requires checkpoint_dir")
        guard = AnomalyGuard.build(anomaly_guard)
        if handle_signals is None:
            handle_signals = store is not None

        rng = np.random.default_rng(cfg.seed)
        # One loader for every worker count: same RNG stream, same epoch
        # order (DESIGN.md §11), so resume is bit-identical at any setting.
        loader = PrefetchLoader(train, batch_size=cfg.batch_size,
                                shuffle=True, rng=rng,
                                num_workers=cfg.num_workers,
                                prefetch_depth=cfg.prefetch_depth)
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate,
                         weight_decay=cfg.weight_decay)
        state = RunState(rng, model, optimizer, asdict(cfg), guard)
        selection = state.selection

        if resume:
            ckpt, path, skipped = store.load_latest()
            if ckpt is None and skipped:
                # Every checkpoint on disk failed validation.  Restarting from
                # scratch here would silently discard a (possibly multi-hour)
                # run and overwrite the corrupt-but-diagnostic files.
                reasons = "; ".join(f"{p}: {why}" for p, why in skipped)
                raise CheckpointCorruptError(
                    f"resume=True, but no checkpoint in {store.directory} "
                    f"passed validation; refusing to silently restart from "
                    f"scratch ({reasons})")
            if ckpt is not None:
                state.restore(ckpt)
                obs.emit(CheckpointRestoredEvent(
                    step=ckpt.step, epoch=ckpt.epoch, reason="resume",
                    path=str(path),
                    skipped=[str(p) for p, _ in skipped] or None))
                if ckpt.completed:
                    # The run already finished; the checkpointed model state
                    # is the best-epoch weights, so just report the result.
                    return TrainResult(
                        best_epoch=selection.best_epoch,
                        validation=selection.history[selection.best_epoch],
                        history=selection.history, train_losses=state.losses)

        # Instrumentation is armed only when someone is listening, so a bare
        # ``fit()`` pays nothing for the telemetry layer.
        instrument = bool(obs)
        registry = MetricRegistry() if instrument else None
        timings = PhaseTimings(registry=registry) if instrument else None
        run_start = time.perf_counter()
        if instrument:
            # Pipeline telemetry (queue-depth gauge, shard-cache counters,
            # shard_loaded events); the loader forwards the binding to its
            # dataset when that supports it.
            loader.bind_telemetry(registry=registry, observers=obs)
            obs.emit(RunStartEvent(
                model=type(model).__name__, num_train=len(train),
                num_validation=len(validation),
                config={**state.config, "backend": get_backend().name}))

        model.train()
        interrupt = GracefulInterrupt() if handle_signals else None
        with (interrupt if interrupt is not None else nullcontext()):
            if guard is not None and guard.last_good is None:
                # Arm rollback from step one: snapshot the initial state.
                guard.snapshot(state.capture())
            while True:
                try:
                    self._train_epochs(loader, validation, state, obs,
                                       registry, timings, store,
                                       checkpoint_every, interrupt)
                    break
                except AnomalySignal as signal_:
                    state.recover(signal_, obs)

        model.load_state_dict(selection.best_or_raise())
        state.completed = True
        if store is not None:
            # Final checkpoint: model holds the best-epoch weights and the
            # run is flagged complete, so a later --resume is a no-op.
            self._write_checkpoint(state, store, obs, is_best=True)
        telemetry_metrics = registry.snapshot() if instrument else None
        telemetry_timings = timings.snapshot() if instrument else None
        if instrument:
            obs.emit(RunEndEvent(
                best_epoch=selection.best_epoch, epochs_run=state.epochs_run,
                steps=state.step,
                wall_time_s=time.perf_counter() - run_start,
                timings=telemetry_timings, metrics=telemetry_metrics))
        return TrainResult(best_epoch=selection.best_epoch,
                           validation=selection.history[selection.best_epoch],
                           history=selection.history,
                           train_losses=state.losses,
                           metrics=telemetry_metrics,
                           timings=telemetry_timings)

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def _train_epochs(self, loader, validation, state: RunState, obs,
                      registry, timings, store, checkpoint_every,
                      interrupt) -> None:
        cfg = self.config
        instrument = registry is not None
        while not state.selection.should_stop(cfg):
            epoch = state.epoch
            skip = state.begin_epoch()
            if instrument and skip == 0:
                obs.emit(EpochStartEvent(epoch=epoch))
            with collect(timings) if instrument else nullcontext():
                for batch in loader.iter_batches(skip=skip):
                    self._train_step(batch, state, obs, registry)
                    if (checkpoint_every
                            and state.step % checkpoint_every == 0):
                        self._write_checkpoint(state, store, obs)
                    if interrupt is not None and interrupt.requested:
                        path = (self._write_checkpoint(state, store, obs)
                                if store is not None else None)
                        raise TrainingInterrupted(
                            signum=interrupt.signum, step=state.step,
                            checkpoint=path)
                with phase("train.eval"):
                    result = evaluate(state.model, validation,
                                      batch_size=cfg.eval_batch_size)
            train_loss = state.end_epoch()
            if instrument:
                means = ({name: total / max(state.num_batches, 1)
                          for name, total in state.component_sums.items()}
                         or None)
                obs.emit(EvalEndEvent(
                    epoch=epoch, split="validation", auc=result.auc,
                    logloss=result.logloss, train_loss=train_loss,
                    loss_components=means))
            improved = state.selection.update(result, state.model)
            path = None
            if store is not None or state.guard is not None:
                path = self._write_checkpoint(state, store, obs,
                                              is_best=improved)
            # A signal that landed during eval or the checkpoint write above
            # must not wait for the next epoch's first step — on the final
            # epoch there is none and the interrupt would be dropped.  The
            # epoch-end checkpoint has already made the stop durable.
            if interrupt is not None and interrupt.requested:
                raise TrainingInterrupted(signum=interrupt.signum,
                                          step=state.step, checkpoint=path)

    def _train_step(self, batch, state: RunState, obs, registry) -> None:
        model = state.model
        loss_value, grad_norm = train_step(
            model, batch, state.optimizer, self.config.grad_clip,
            guard=state.guard)
        state.record_step(loss_value)
        if registry is not None:
            components = getattr(model, "last_loss_components", None)
            registry.counter("train.steps").inc()
            registry.ema("train.loss.total").update(loss_value)
            registry.histogram("train.grad_norm").record(grad_norm)
            for name, value in (components or {}).items():
                registry.ema(f"train.loss.{name}").update(value)
                state.component_sums[name] = (
                    state.component_sums.get(name, 0.0) + value)
            obs.emit(BatchEndEvent(
                epoch=state.epoch, step=state.step, loss=loss_value,
                grad_norm=grad_norm, loss_components=components,
                model=model, batch=batch))

    @staticmethod
    def _write_checkpoint(state: RunState, store, obs,
                          is_best: bool = False) -> Path | None:
        path = state.save(store, is_best=is_best)
        obs.emit(CheckpointWrittenEvent(
            step=state.step, epoch=state.epoch,
            path=str(path) if path is not None else None,
            is_best=is_best, completed=state.completed))
        return path
