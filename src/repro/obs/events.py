"""Event bus for training telemetry: observer protocol and event payloads.

A training run is narrated as five lifecycle events — run start, epoch start,
batch end, eval end, run end — each carrying a structured payload.  Anything
that wants to watch a run (JSONL trace writers, console reporters, the
Figure-5 :class:`~repro.core.diagnostics.SimilarityTracker`) implements
:class:`RunObserver` and is handed to ``Trainer.fit(observers=[...])``.

Events keep live object references (``model``, ``batch``) for in-process
observers, but :meth:`payload` returns only the JSON-safe subset — that is
what sinks serialise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterable, Protocol, runtime_checkable

__all__ = [
    "SCHEMA_VERSION",
    "RunStartEvent", "EpochStartEvent", "BatchEndEvent", "EvalEndEvent",
    "RunEndEvent",
    "CheckpointWrittenEvent", "CheckpointRestoredEvent",
    "AnomalyDetectedEvent",
    "RequestReceivedEvent", "BatchFlushedEvent", "RequestCompletedEvent",
    "ModelSwappedEvent", "RequestShedEvent",
    "ShardLoadedEvent", "DistSyncEvent",
    "StreamWindowEvent", "DriftDetectedEvent", "PromotionEvent",
    "RunObserver", "BaseObserver", "ObserverList",
]

#: Version stamped on every serialised event; bump on payload shape changes.
SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars (and nested containers) to plain Python types."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class RunStartEvent:
    """Emitted once before the first epoch."""

    kind: ClassVar[str] = "run_start"

    model: str
    num_train: int
    num_validation: int
    config: dict[str, Any] = field(default_factory=dict)

    def payload(self) -> dict[str, Any]:
        return _jsonable({"model": self.model, "num_train": self.num_train,
                          "num_validation": self.num_validation,
                          "config": dict(self.config)})


@dataclass
class EpochStartEvent:
    """Emitted at the top of every epoch."""

    kind: ClassVar[str] = "epoch_start"

    epoch: int

    def payload(self) -> dict[str, Any]:
        return {"epoch": int(self.epoch)}


@dataclass
class BatchEndEvent:
    """Emitted after every optimiser step.

    ``model`` and ``batch`` are live references for in-process observers
    (e.g. the similarity tracker); they are never serialised.
    """

    kind: ClassVar[str] = "batch_end"

    epoch: int
    step: int
    loss: float
    grad_norm: float
    loss_components: dict[str, float] | None = None
    model: Any = None
    batch: Any = None

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {"epoch": int(self.epoch), "step": int(self.step),
                               "loss": float(self.loss),
                               "grad_norm": float(self.grad_norm)}
        if self.loss_components is not None:
            out["loss_components"] = {k: float(v)
                                      for k, v in self.loss_components.items()}
        return out


@dataclass
class EvalEndEvent:
    """Emitted after an evaluation pass (validation each epoch, test at end)."""

    kind: ClassVar[str] = "eval_end"

    epoch: int
    split: str
    auc: float
    logloss: float
    train_loss: float | None = None
    loss_components: dict[str, float] | None = None

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {"epoch": int(self.epoch), "split": self.split,
                               "auc": float(self.auc),
                               "logloss": float(self.logloss)}
        if self.train_loss is not None:
            out["train_loss"] = float(self.train_loss)
        if self.loss_components is not None:
            out["loss_components"] = {k: float(v)
                                      for k, v in self.loss_components.items()}
        return out


@dataclass
class RunEndEvent:
    """Emitted once after training finishes (post best-state restore)."""

    kind: ClassVar[str] = "run_end"

    best_epoch: int
    epochs_run: int
    steps: int
    wall_time_s: float
    timings: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    def payload(self) -> dict[str, Any]:
        return _jsonable({"best_epoch": int(self.best_epoch),
                          "epochs_run": int(self.epochs_run),
                          "steps": int(self.steps),
                          "wall_time_s": float(self.wall_time_s),
                          "timings": self.timings, "metrics": self.metrics})


@dataclass
class CheckpointWrittenEvent:
    """Emitted after a durable run checkpoint is committed to disk (or, with
    no checkpoint directory, after an in-memory rollback snapshot is taken —
    then ``path`` is None)."""

    kind: ClassVar[str] = "checkpoint_written"

    step: int
    epoch: int
    path: str | None = None
    is_best: bool = False
    completed: bool = False

    def payload(self) -> dict[str, Any]:
        return {"step": int(self.step), "epoch": int(self.epoch),
                "path": self.path, "is_best": bool(self.is_best),
                "completed": bool(self.completed)}


@dataclass
class CheckpointRestoredEvent:
    """Emitted when training state is restored from a checkpoint.

    ``reason`` is ``"resume"`` (continuing a killed run) or ``"rollback"``
    (anomaly recovery); ``skipped`` lists newer checkpoints that failed
    checksum validation and were passed over.
    """

    kind: ClassVar[str] = "checkpoint_restored"

    step: int
    epoch: int
    reason: str
    path: str | None = None
    skipped: list[str] | None = None

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {"step": int(self.step),
                               "epoch": int(self.epoch),
                               "reason": self.reason, "path": self.path}
        if self.skipped:
            out["skipped"] = list(self.skipped)
        return out


@dataclass
class AnomalyDetectedEvent:
    """Emitted when the anomaly guard flags a step (before any rollback)."""

    kind: ClassVar[str] = "anomaly_detected"

    step: int
    epoch: int
    anomaly: str          # non_finite_loss | non_finite_grad | loss_spike
    value: float
    lr: float
    retries: int
    retries_remaining: int

    def payload(self) -> dict[str, Any]:
        return {"step": int(self.step), "epoch": int(self.epoch),
                "anomaly": self.anomaly, "value": float(self.value),
                "lr": float(self.lr), "retries": int(self.retries),
                "retries_remaining": int(self.retries_remaining)}


@dataclass
class RequestReceivedEvent:
    """Emitted when the serving engine accepts a score request (pre-queue)."""

    kind: ClassVar[str] = "request_received"

    request_id: int
    cached: bool          # True when the LRU cache answered without queueing
    queue_depth: int
    trace_id: str | None = None   # set when tracing sampled this request

    def payload(self) -> dict[str, Any]:
        out = {"request_id": int(self.request_id), "cached": bool(self.cached),
               "queue_depth": int(self.queue_depth)}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out


@dataclass
class BatchFlushedEvent:
    """Emitted after a micro-batch forward completes.

    ``wait_ms`` is how long the oldest request in the batch sat in the queue
    before the flush started; ``forward_ms`` is the model forward alone.
    """

    kind: ClassVar[str] = "batch_flushed"

    batch_size: int
    queue_depth: int
    wait_ms: float
    forward_ms: float
    trace_id: str | None = None   # trace of the oldest request in the batch

    def payload(self) -> dict[str, Any]:
        out = {"batch_size": int(self.batch_size),
               "queue_depth": int(self.queue_depth),
               "wait_ms": float(self.wait_ms),
               "forward_ms": float(self.forward_ms)}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out


@dataclass
class RequestCompletedEvent:
    """Emitted when a request's response is resolved (served or failed)."""

    kind: ClassVar[str] = "request_completed"

    request_id: int
    latency_ms: float
    cached: bool
    batch_size: int       # 0 for cache hits (no forward ran)
    error: str | None = None
    trace_id: str | None = None   # set when tracing sampled this request

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {"request_id": int(self.request_id),
                               "latency_ms": float(self.latency_ms),
                               "cached": bool(self.cached),
                               "batch_size": int(self.batch_size)}
        if self.error is not None:
            out["error"] = self.error
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out


@dataclass
class ModelSwappedEvent:
    """Emitted after a hot-swap reload switched the production model.

    The swap is atomic from the request path's perspective: every request
    admitted to the old engine drained to completion before this event is
    emitted.
    """

    kind: ClassVar[str] = "model_swapped"

    old_version: str | None
    new_version: str
    digest: str           # artifact digest of the newly serving model
    swap_ms: float

    def payload(self) -> dict[str, Any]:
        return {"old_version": self.old_version,
                "new_version": self.new_version,
                "digest": self.digest,
                "swap_ms": float(self.swap_ms)}


@dataclass
class RequestShedEvent:
    """Emitted when admission control rejects a request unscored.

    ``reason`` names the gate that refused it: ``queue_full`` (bounded
    in-flight budget, HTTP 429) or ``breaker_open`` (circuit breaker
    fast-fail, HTTP 503).
    """

    kind: ClassVar[str] = "request_shed"

    reason: str
    queue_depth: int
    retry_after_s: float | None = None

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {"reason": self.reason,
                               "queue_depth": int(self.queue_depth)}
        if self.retry_after_s is not None:
            out["retry_after_s"] = float(self.retry_after_s)
        return out


@dataclass
class ShardLoadedEvent:
    """Emitted when the sharded data pipeline reads a shard from disk.

    Only actual disk loads are narrated (cache hits are counted, not
    evented); ``load_ms`` covers read + checksum + decompress.  May be
    emitted from prefetch worker threads — the emitting dataset serialises
    the fan-out, so sinks never see interleaved records.
    """

    kind: ClassVar[str] = "shard_loaded"

    shard: int
    rows: int
    load_ms: float
    source: str

    def payload(self) -> dict[str, Any]:
        return {"shard": int(self.shard), "rows": int(self.rows),
                "load_ms": float(self.load_ms), "source": self.source}


@dataclass
class DistSyncEvent:
    """Emitted by a data-parallel worker after each allreduce step.

    ``wait_ms`` is the time the rank spent blocked on the gradient barrier
    (straggler diagnosis: a rank with near-zero wait is the straggler);
    ``loss`` is the *reduced* mean loss every rank agreed on for the step.
    Each rank writes its own trace file, so records never interleave.
    """

    kind: ClassVar[str] = "dist_sync"

    rank: int
    world_size: int
    step: int
    epoch: int
    wait_ms: float
    loss: float

    def payload(self) -> dict[str, Any]:
        return {"rank": int(self.rank), "world_size": int(self.world_size),
                "step": int(self.step), "epoch": int(self.epoch),
                "wait_ms": float(self.wait_ms), "loss": float(self.loss)}


@dataclass
class StreamWindowEvent:
    """Emitted once per processed stream window (online-learning loop).

    ``production_auc``/``production_logloss`` are the prequential metrics of
    the *serving* model on the window (scored through the live router before
    the learner trained on it); ``learner_auc``/``learner_logloss`` are the
    incremental learner's own prequential metrics.
    """

    kind: ClassVar[str] = "stream_window"

    window: int
    timestamp: float
    rows: int
    production_version: str
    production_auc: float
    production_logloss: float
    learner_auc: float
    learner_logloss: float
    train_loss: float | None = None
    new_users: int = 0

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "window": int(self.window), "timestamp": float(self.timestamp),
            "rows": int(self.rows),
            "production_version": self.production_version,
            "production_auc": float(self.production_auc),
            "production_logloss": float(self.production_logloss),
            "learner_auc": float(self.learner_auc),
            "learner_logloss": float(self.learner_logloss),
            "new_users": int(self.new_users)}
        if self.train_loss is not None:
            out["train_loss"] = float(self.train_loss)
        return out


@dataclass
class DriftDetectedEvent:
    """Emitted when a drift detector fires on a served window.

    ``detector`` names the test (``score_psi`` | ``label_kl`` |
    ``logloss_shift``); ``value`` is its statistic, ``threshold`` the level
    it exceeded.
    """

    kind: ClassVar[str] = "drift_detected"

    window: int
    detector: str
    value: float
    threshold: float

    def payload(self) -> dict[str, Any]:
        return {"window": int(self.window), "detector": self.detector,
                "value": float(self.value),
                "threshold": float(self.threshold)}


@dataclass
class PromotionEvent:
    """Emitted on every promotion-controller state change.

    ``action`` is one of ``published`` (candidate entered the registry and
    shadow), ``promoted`` (challenger became production), ``rejected``
    (guardrails blocked it) or ``rollback`` (post-promotion regression
    reverted production to the previous version).
    """

    kind: ClassVar[str] = "promotion"

    window: int
    action: str
    version: str
    reason: str | None = None
    previous_version: str | None = None
    challenger_auc: float | None = None
    production_auc: float | None = None

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {"window": int(self.window),
                               "action": self.action,
                               "version": self.version}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.previous_version is not None:
            out["previous_version"] = self.previous_version
        if self.challenger_auc is not None:
            out["challenger_auc"] = float(self.challenger_auc)
        if self.production_auc is not None:
            out["production_auc"] = float(self.production_auc)
        return out


@runtime_checkable
class RunObserver(Protocol):
    """The observer protocol; implement any subset of the five hooks."""

    def on_run_start(self, event: RunStartEvent) -> None: ...
    def on_epoch_start(self, event: EpochStartEvent) -> None: ...
    def on_batch_end(self, event: BatchEndEvent) -> None: ...
    def on_eval_end(self, event: EvalEndEvent) -> None: ...
    def on_run_end(self, event: RunEndEvent) -> None: ...


class BaseObserver:
    """No-op implementation of :class:`RunObserver`; subclass and override."""

    def on_run_start(self, event: RunStartEvent) -> None:
        pass

    def on_epoch_start(self, event: EpochStartEvent) -> None:
        pass

    def on_batch_end(self, event: BatchEndEvent) -> None:
        pass

    def on_eval_end(self, event: EvalEndEvent) -> None:
        pass

    def on_run_end(self, event: RunEndEvent) -> None:
        pass

    def on_checkpoint_written(self, event: CheckpointWrittenEvent) -> None:
        pass

    def on_checkpoint_restored(self, event: CheckpointRestoredEvent) -> None:
        pass

    def on_anomaly_detected(self, event: AnomalyDetectedEvent) -> None:
        pass

    def on_request_received(self, event: RequestReceivedEvent) -> None:
        pass

    def on_batch_flushed(self, event: BatchFlushedEvent) -> None:
        pass

    def on_request_completed(self, event: RequestCompletedEvent) -> None:
        pass

    def on_model_swapped(self, event: ModelSwappedEvent) -> None:
        pass

    def on_request_shed(self, event: RequestShedEvent) -> None:
        pass

    def on_shard_loaded(self, event: ShardLoadedEvent) -> None:
        pass

    def on_dist_sync(self, event: DistSyncEvent) -> None:
        pass

    def on_stream_window(self, event: StreamWindowEvent) -> None:
        pass

    def on_drift_detected(self, event: DriftDetectedEvent) -> None:
        pass

    def on_promotion(self, event: PromotionEvent) -> None:
        pass


class ObserverList(BaseObserver):
    """Composite observer that fans events out to its children in order."""

    def __init__(self, observers: Iterable[RunObserver] = ()):
        self.observers: list[RunObserver] = list(observers)

    @classmethod
    def build(cls, observers: "RunObserver | Iterable[RunObserver] | None"
              ) -> "ObserverList":
        """Normalise a trainer's ``observers`` argument."""
        if observers is None:
            children: list[RunObserver] = []
        elif isinstance(observers, ObserverList):
            children = list(observers.observers)
        elif isinstance(observers, (list, tuple)):
            children = list(observers)
        else:
            children = [observers]
        return cls(children)

    def append(self, observer: RunObserver) -> None:
        self.observers.append(observer)

    def __len__(self) -> int:
        return len(self.observers)

    def __bool__(self) -> bool:
        return bool(self.observers)

    def on_run_start(self, event: RunStartEvent) -> None:
        for obs in self.observers:
            obs.on_run_start(event)

    def on_epoch_start(self, event: EpochStartEvent) -> None:
        for obs in self.observers:
            obs.on_epoch_start(event)

    def on_batch_end(self, event: BatchEndEvent) -> None:
        for obs in self.observers:
            obs.on_batch_end(event)

    def on_eval_end(self, event: EvalEndEvent) -> None:
        for obs in self.observers:
            obs.on_eval_end(event)

    def on_run_end(self, event: RunEndEvent) -> None:
        for obs in self.observers:
            obs.on_run_end(event)

    # The resilience hooks fan out via getattr so that pre-existing
    # duck-typed observers implementing only the original five hooks keep
    # working unchanged.
    def on_checkpoint_written(self, event: CheckpointWrittenEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_checkpoint_written", None)
            if hook is not None:
                hook(event)

    def on_checkpoint_restored(self, event: CheckpointRestoredEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_checkpoint_restored", None)
            if hook is not None:
                hook(event)

    def on_anomaly_detected(self, event: AnomalyDetectedEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_anomaly_detected", None)
            if hook is not None:
                hook(event)

    # Serving hooks (additive, schema v1): same getattr fan-out so training
    # observers that predate the serving subsystem keep working unchanged.
    def on_request_received(self, event: RequestReceivedEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_request_received", None)
            if hook is not None:
                hook(event)

    def on_batch_flushed(self, event: BatchFlushedEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_batch_flushed", None)
            if hook is not None:
                hook(event)

    def on_request_completed(self, event: RequestCompletedEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_request_completed", None)
            if hook is not None:
                hook(event)

    def on_model_swapped(self, event: ModelSwappedEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_model_swapped", None)
            if hook is not None:
                hook(event)

    def on_request_shed(self, event: RequestShedEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_request_shed", None)
            if hook is not None:
                hook(event)

    # Data-pipeline hook (additive, schema v1): same getattr fan-out.
    def on_shard_loaded(self, event: ShardLoadedEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_shard_loaded", None)
            if hook is not None:
                hook(event)

    # Distributed-training hook (additive, schema v1).
    def on_dist_sync(self, event: DistSyncEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_dist_sync", None)
            if hook is not None:
                hook(event)

    # Streaming / online-learning hooks (additive, schema v1).
    def on_stream_window(self, event: StreamWindowEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_stream_window", None)
            if hook is not None:
                hook(event)

    def on_drift_detected(self, event: DriftDetectedEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_drift_detected", None)
            if hook is not None:
                hook(event)

    def on_promotion(self, event: PromotionEvent) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_promotion", None)
            if hook is not None:
                hook(event)
