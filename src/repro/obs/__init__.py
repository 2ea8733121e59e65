"""Observability: event bus, metric registry, phase timers, and trace sinks.

The training stack emits structured lifecycle events (``run_start`` →
``epoch_start`` → ``batch_end``* → ``eval_end`` → ... → ``run_end``) to any
observer defining ``on_<kind>`` or ``on_event``; hot paths are wrapped in
:func:`phase` scopes that cost nothing unless a collector is active.  See
DESIGN.md §"Observability".
"""

from .events import (
    SCHEMA_VERSION,
    AnomalyDetectedEvent,
    BaseObserver,
    BatchEndEvent,
    BatchFlushedEvent,
    CheckpointRestoredEvent,
    CheckpointWrittenEvent,
    DriftDetectedEvent,
    EpochStartEvent,
    EvalEndEvent,
    Event,
    ModelSwappedEvent,
    ObserverList,
    PromotionEvent,
    RequestCompletedEvent,
    RequestReceivedEvent,
    RequestShedEvent,
    RunEndEvent,
    RunObserver,
    RunStartEvent,
    DistSyncEvent,
    ShardLoadedEvent,
    StreamWindowEvent,
)
from .inspect import (
    SpanTree,
    TraceSummary,
    check_record,
    read_trace,
    render_summary,
    render_spans,
    summarize_spans,
    summarize_trace,
)
from .metrics import Counter, EMAMeter, Gauge, Histogram, MetricRegistry
from .profiler import SamplingProfiler
from .sinks import ConsoleReporter, JsonlTraceWriter
from .timers import PhaseStat, PhaseTimings, active_timings, collect, phase
from .trace import (
    SpanContext,
    SpanRecorder,
    Tracer,
    current_span,
    get_tracer,
    set_tracer,
    span,
    use_tracer,
)

__all__ = [
    "SCHEMA_VERSION",
    "RunObserver", "BaseObserver", "ObserverList", "Event",
    "RunStartEvent", "EpochStartEvent", "BatchEndEvent", "EvalEndEvent",
    "RunEndEvent",
    "CheckpointWrittenEvent", "CheckpointRestoredEvent",
    "AnomalyDetectedEvent",
    "RequestReceivedEvent", "BatchFlushedEvent", "RequestCompletedEvent",
    "ModelSwappedEvent", "RequestShedEvent",
    "ShardLoadedEvent", "DistSyncEvent",
    "StreamWindowEvent", "DriftDetectedEvent", "PromotionEvent",
    "Counter", "Gauge", "EMAMeter", "Histogram", "MetricRegistry",
    "PhaseStat", "PhaseTimings", "collect", "phase", "active_timings",
    "JsonlTraceWriter", "ConsoleReporter",
    "TraceSummary", "read_trace", "check_record", "summarize_trace",
    "render_summary",
    "SpanTree", "summarize_spans", "render_spans",
    "SpanContext", "SpanRecorder", "Tracer", "current_span", "get_tracer",
    "set_tracer", "span", "use_tracer",
    "SamplingProfiler",
]
