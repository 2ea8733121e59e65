"""Event bus for run telemetry: event declarations and observer dispatch.

A run is narrated as typed events — ``run_start`` → ``epoch_start`` →
``batch_end``* → ``eval_end`` → ... → ``run_end`` for training, plus the
resilience, serving, data-pipeline, distributed and streaming kinds below.
Each kind is declared exactly once, as a ``@dataclass`` subclass of
:class:`Event`: its fields are the JSONL record (:meth:`Event.payload`), its
``kind`` names the hook observers implement (``on_<kind>``), and the same
field table backs :func:`repro.obs.check_record`.  Anything that wants to
watch a run (JSONL trace writers, console reporters, the Figure-5
:class:`~repro.core.diagnostics.SimilarityTracker`) defines ``on_<kind>``
methods and/or a catch-all ``on_event`` and is handed to
``Trainer.fit(observers=[...])``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Callable,
    ClassVar,
    Iterable,
    Protocol,
    runtime_checkable,
)

__all__ = [
    "SCHEMA_VERSION", "Event",
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


def _float_dict(value: dict) -> dict[str, float]:
    return {k: float(v) for k, v in value.items()}


#: Declared field type -> coercion applied on serialisation, so a numpy scalar
#: or an ``int`` in a float field is written as the declared JSON type.  Any
#: other annotation (``str``, ``dict[str, Any]``, ``list[str]``) goes through
#: :func:`_jsonable`.
_COERCE: dict[str, Callable[[Any], Any]] = {
    "int": int, "float": float, "bool": bool, "dict[str, float]": _float_dict}


def _coercer(hint: Any) -> Callable[[Any], Any]:
    """Coercion for one field annotation (a string under ``from __future__
    import annotations``, else the type object); ``| None`` is ignored."""
    if not isinstance(hint, str):
        hint = hint.__name__ if isinstance(hint, type) else str(hint)
    return _COERCE.get(hint.split("|")[0].strip(), _jsonable)


def live() -> Any:
    """Field holding a live in-process reference; never serialised."""
    return field(default=None, metadata={"serialise": False})


def optional(omit: Callable[[Any], bool] = lambda value: value is None) -> Any:
    """Field left out of the record while ``omit(value)`` holds (default:
    while it is ``None``).  A plain ``= None`` default is always written."""
    return field(default=None, metadata={"omit": omit})


class Event:
    """Base of every event kind.

    Adding a kind is one ``@dataclass`` subclass with a ``kind`` class
    attribute; serialisation, dispatch and the trace schema all derive from
    its fields.  Per-field serialisation is declared on the field itself:
    :func:`live` (never written), :func:`optional` (dropped when unset), or
    nothing (always written, coerced to the annotated type).
    """

    kind: ClassVar[str]

    @classmethod
    def plan(cls) -> tuple[tuple[str, Callable, Callable | None], ...]:
        """``(name, coerce, omit)`` per serialised field.  Built once per
        class and cached on it — on first use, because ``@dataclass`` has not
        yet run when ``__init_subclass__`` fires."""
        plan = cls.__dict__.get("_plan")
        if plan is None:
            plan = tuple(
                (f.name, _coercer(f.type), f.metadata.get("omit"))
                for f in fields(cls) if f.metadata.get("serialise", True))
            cls._plan = plan
        return plan

    def payload(self) -> dict[str, Any]:
        """The JSON-safe record body (live references excluded)."""
        out: dict[str, Any] = {}
        for name, coerce, omit in self.plan():
            value = getattr(self, name)
            if omit is not None and omit(value):
                continue
            out[name] = value if value is None else coerce(value)
        return out


@dataclass
class RunStartEvent(Event):
    """Emitted once before the first epoch."""

    kind: ClassVar[str] = "run_start"

    model: str
    num_train: int
    num_validation: int
    config: dict[str, Any] = field(default_factory=dict)


@dataclass
class EpochStartEvent(Event):
    """Emitted at the top of every epoch."""

    kind: ClassVar[str] = "epoch_start"

    epoch: int


@dataclass
class BatchEndEvent(Event):
    """Emitted after every optimiser step.

    ``model`` and ``batch`` are live references for in-process observers
    (e.g. the similarity tracker); they are never serialised.
    """

    kind: ClassVar[str] = "batch_end"

    epoch: int
    step: int
    loss: float
    grad_norm: float
    loss_components: dict[str, float] | None = optional()
    model: Any = live()
    batch: Any = live()


@dataclass
class EvalEndEvent(Event):
    """Emitted after an evaluation pass (validation each epoch, test at end)."""

    kind: ClassVar[str] = "eval_end"

    epoch: int
    split: str
    auc: float
    logloss: float
    train_loss: float | None = optional()
    loss_components: dict[str, float] | None = optional()


@dataclass
class RunEndEvent(Event):
    """Emitted once after training finishes (post best-state restore)."""

    kind: ClassVar[str] = "run_end"

    best_epoch: int
    epochs_run: int
    steps: int
    wall_time_s: float
    timings: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)


@dataclass
class CheckpointWrittenEvent(Event):
    """Emitted after a durable run checkpoint is committed to disk (or, with
    no checkpoint directory, after an in-memory rollback snapshot is taken —
    then ``path`` is None)."""

    kind: ClassVar[str] = "checkpoint_written"

    step: int
    epoch: int
    path: str | None = None
    is_best: bool = False
    completed: bool = False


@dataclass
class CheckpointRestoredEvent(Event):
    """Emitted when training state is restored from a checkpoint.

    ``reason`` is ``"resume"`` (continuing a killed run) or ``"rollback"``
    (anomaly recovery); ``skipped`` lists newer checkpoints that failed
    checksum validation and were passed over (left out when there are none).
    """

    kind: ClassVar[str] = "checkpoint_restored"

    step: int
    epoch: int
    reason: str
    path: str | None = None
    skipped: list[str] | None = optional(omit=operator.not_)


@dataclass
class AnomalyDetectedEvent(Event):
    """Emitted when the anomaly guard flags a step (before any rollback)."""

    kind: ClassVar[str] = "anomaly_detected"

    step: int
    epoch: int
    anomaly: str          # non_finite_loss | non_finite_grad | loss_spike
    value: float
    lr: float
    retries: int
    retries_remaining: int


@dataclass
class RequestReceivedEvent(Event):
    """Emitted when the serving engine accepts a score request (pre-queue)."""

    kind: ClassVar[str] = "request_received"

    request_id: int
    cached: bool          # True when the LRU cache answered without queueing
    queue_depth: int
    trace_id: str | None = optional()   # set when tracing sampled this request


@dataclass
class BatchFlushedEvent(Event):
    """Emitted after a micro-batch forward completes.

    ``wait_ms`` is how long the oldest request in the batch sat in the queue
    before the flush started; ``forward_ms`` is the model forward alone.
    """

    kind: ClassVar[str] = "batch_flushed"

    batch_size: int
    queue_depth: int
    wait_ms: float
    forward_ms: float
    trace_id: str | None = optional()   # trace of the batch's oldest request


@dataclass
class RequestCompletedEvent(Event):
    """Emitted when a request's response is resolved (served or failed)."""

    kind: ClassVar[str] = "request_completed"

    request_id: int
    latency_ms: float
    cached: bool
    batch_size: int       # 0 for cache hits (no forward ran)
    error: str | None = optional()
    trace_id: str | None = optional()   # set when tracing sampled this request


@dataclass
class ModelSwappedEvent(Event):
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


@dataclass
class RequestShedEvent(Event):
    """Emitted when admission control rejects a request unscored.

    ``reason`` names the gate that refused it: ``queue_full`` (bounded
    in-flight budget, HTTP 429) or ``breaker_open`` (circuit breaker
    fast-fail, HTTP 503).
    """

    kind: ClassVar[str] = "request_shed"

    reason: str
    queue_depth: int
    retry_after_s: float | None = optional()


@dataclass
class ShardLoadedEvent(Event):
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


@dataclass
class DistSyncEvent(Event):
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


@dataclass
class StreamWindowEvent(Event):
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
    train_loss: float | None = optional()
    new_users: int = 0


@dataclass
class DriftDetectedEvent(Event):
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


@dataclass
class PromotionEvent(Event):
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
    reason: str | None = optional()
    previous_version: str | None = optional()
    challenger_auc: float | None = optional()
    production_auc: float | None = optional()


@runtime_checkable
class RunObserver(Protocol):
    """The training-lifecycle hooks.  Purely descriptive: dispatch is by
    name, so an observer implements any subset of ``on_<kind>`` hooks (for
    any declared kind) and/or ``on_event``."""

    def on_run_start(self, event: RunStartEvent) -> None: ...
    def on_epoch_start(self, event: EpochStartEvent) -> None: ...
    def on_batch_end(self, event: BatchEndEvent) -> None: ...
    def on_eval_end(self, event: EvalEndEvent) -> None: ...
    def on_run_end(self, event: RunEndEvent) -> None: ...


def _deliver(observer: Any, event: Event) -> None:
    """Call ``observer.on_<kind>(event)`` if it has one, else its catch-all
    ``on_event(event)`` if it has one, else nothing."""
    hook = (getattr(observer, "on_" + event.kind, None)
            or getattr(observer, "on_event", None))
    if hook is not None:
        hook(event)


class BaseObserver:
    """Convenience base: define ``on_<kind>(event)`` for the kinds you care
    about and/or a catch-all ``on_event(event)``; everything else is
    ignored.  Duck-typed observers need not subclass it."""

    def emit(self, event: Event) -> None:
        """Deliver one event to this observer."""
        _deliver(self, event)


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

    def emit(self, event: Event) -> None:
        for obs in self.observers:
            _deliver(obs, event)

    on_event = emit  # a list nested inside another list fans out too
