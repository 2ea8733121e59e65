"""Span-based request tracing: decompose one request's latency into stages.

Where :mod:`repro.obs.timers` aggregates wall-time *per phase name*, this
module keeps *per-request* causality: every unit of work is a **span** with a
``trace_id`` shared by everything done on behalf of one request (or one
training epoch), a unique ``span_id``, and a ``parent_id`` linking it into a
tree.  A slow ``POST /score`` can then be decomposed into HTTP handling →
queue wait → micro-batch forward — across threads — and a slow epoch into
its window gathers.

Propagation has two modes, matching how work actually flows here:

* **Same-thread nesting** uses a :mod:`contextvars` variable, so
  ``with tracer.span("outer"):`` automatically parents any span opened
  inside the block (and is safe under thread pools — each thread sees its
  own context).
* **Queue boundaries** (the ScoringEngine request queue) and generators
  (the ``DataLoader`` epoch, which yields between its windows) cannot rely
  on ambient context: the code that *finishes* the work is not running in
  the scope that *started* it.  Producers capture an
  explicit :class:`SpanContext` and hand it across the queue; consumers
  emit spans against it retroactively with :meth:`Tracer.record_span`,
  which accepts explicit start/end timestamps (``time.monotonic`` values).

Sampling is **head-based**: the keep/drop decision is made once, when a
trace is created (:meth:`Tracer.make_context` with no parent), and is
inherited by every child context — so a trace is always complete or absent,
never partial.  Unsampled contexts make every downstream call a no-op.

When no tracer is installed, the module-level :func:`span` helper returns a
shared no-op scope — the same pattern as :func:`repro.obs.timers.phase` — so
instrumentation can live permanently on serving and pipeline hot paths.

Span records share the JSONL run-trace file format (additive ``span`` event,
same ``schema_version``): a verb's ``--log-jsonl`` file holds its events and
its spans, and ``repro inspect-run PATH`` renders both.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "SpanContext", "Tracer", "SpanRecorder",
    "set_tracer", "get_tracer", "use_tracer", "current_span", "span",
]

#: ``event`` value of serialised span records (additive to the run-trace
#: schema: readers that fold over known events skip spans untouched).
SPAN_EVENT = "span"

#: Keys of a span record (see :meth:`Tracer.record_span`): always present,
#: and present only when set.  :func:`repro.obs.check_record` checks these.
SPAN_REQUIRED = frozenset({"trace_id", "span_id", "parent_id", "name",
                           "start_s", "duration_ms", "thread"})
SPAN_OPTIONAL = frozenset({"attrs"})


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: everything a child needs to link up.

    Immutable and tiny by design — this is the object handed across queue
    boundaries (stored on engine requests, captured into worker closures).
    """

    trace_id: str
    span_id: str
    sampled: bool = True


class SpanRecorder:
    """In-memory span sink (tests, ad-hoc inspection)."""

    def __init__(self):
        self.records: list[dict] = []

    def write_span(self, record: dict) -> None:
        self.records.append(record)

    def by_name(self, name: str) -> list[dict]:
        return [r for r in self.records if r["name"] == name]

    def by_trace(self, trace_id: str) -> list[dict]:
        return [r for r in self.records if r["trace_id"] == trace_id]


# Ambient parent for same-thread nesting.  ContextVar (not thread-local)
# so asyncio-style frameworks would also propagate correctly; for plain
# threads each thread starts with the default (None).
_CURRENT: ContextVar[SpanContext | None] = ContextVar("repro_active_span",
                                                      default=None)


def current_span() -> SpanContext | None:
    """The ambient span context of the calling thread/task, if any."""
    return _CURRENT.get()


class Tracer:
    """Creates span contexts, applies head sampling, and emits span records.

    ``sink`` needs one method, ``write_span(record: dict)`` — satisfied by
    :class:`SpanRecorder` and :class:`repro.obs.sinks.JsonlTraceWriter`.
    Record emission is serialised under an internal lock, so spans may be
    finished from any number of threads concurrently.

    Timestamps: spans are measured on the ``time.monotonic`` clock (the one
    the serving engine already uses).  Each record carries ``start_s`` — the
    monotonic start mapped onto the wall clock via a base captured at
    tracer construction — plus ``duration_ms``, so spans from different
    threads line up on one timeline.
    """

    def __init__(self, sink=None, sample_rate: float = 1.0, seed: int = 0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], "
                             f"got {sample_rate}")
        self.sink = sink
        self.sample_rate = sample_rate
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._next = 0
        self._wall0 = time.time()
        self._mono0 = time.monotonic()
        self.spans_emitted = 0
        self.traces_started = 0
        self.traces_sampled = 0

    # ------------------------------------------------------------------
    # Context creation (head sampling happens here)
    # ------------------------------------------------------------------
    def _new_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"{self._next:08x}"

    def make_context(self, parent: SpanContext | None = None) -> SpanContext:
        """Allocate the context for a new span.

        With no ``parent`` this starts a **new trace** and rolls the head
        sampling decision; with a parent the trace id and decision are
        inherited, so traces are kept or dropped whole.
        """
        span_id = self._new_id()
        if parent is not None:
            return SpanContext(trace_id=parent.trace_id, span_id=span_id,
                               sampled=parent.sampled)
        with self._lock:
            self.traces_started += 1
            sampled = (self.sample_rate >= 1.0
                       or self._rng.random() < self.sample_rate)
            if sampled:
                self.traces_sampled += 1
        return SpanContext(trace_id=f"t{span_id}", span_id=span_id,
                           sampled=sampled)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def to_wall(self, monotonic_ts: float) -> float:
        """Map a ``time.monotonic`` timestamp onto the wall clock."""
        return self._wall0 + (monotonic_ts - self._mono0)

    def record_span(self, name: str, context: SpanContext,
                    start: float, end: float, *,
                    parent_id: str | None = None,
                    span_id: str | None = None,
                    attrs: dict[str, Any] | None = None) -> None:
        """Emit one finished span against ``context`` (retroactive form).

        ``start``/``end`` are ``time.monotonic`` values captured by the
        caller — this is the queue-boundary API: the worker that finished
        the work emits spans for stages that began on another thread.
        By default the span is a **child** of ``context``; pass
        ``span_id=context.span_id`` to emit the record *for* the context's
        own span (its parent then comes from ``parent_id``).
        """
        if not context.sampled:
            return
        record = {
            "trace_id": context.trace_id,
            "span_id": span_id if span_id is not None else self._new_id(),
            "parent_id": (parent_id if span_id is not None
                          else context.span_id),
            "name": name,
            "start_s": self.to_wall(start),
            "duration_ms": max(end - start, 0.0) * 1000.0,
            "thread": threading.current_thread().name,
        }
        if attrs:
            record["attrs"] = attrs
        sink = self.sink
        with self._lock:
            self.spans_emitted += 1
            if sink is not None:
                sink.write_span(record)

    # ------------------------------------------------------------------
    # Inline scopes (same-thread nesting via contextvars)
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, parent: SpanContext | None = None,
             attrs: dict[str, Any] | None = None) -> Iterator[SpanContext]:
        """Time a scope as a span; nested scopes become children.

        ``parent`` overrides the ambient context (explicit handoff across a
        queue); otherwise the ambient :func:`current_span` is used, and a
        brand-new trace is started when there is none.
        """
        ambient = parent if parent is not None else _CURRENT.get()
        context = self.make_context(ambient)
        parent_id = ambient.span_id if ambient is not None else None
        token = _CURRENT.set(context)
        start = time.monotonic()
        try:
            yield context
        finally:
            end = time.monotonic()
            _CURRENT.reset(token)
            self.record_span(name, context, start, end,
                             span_id=context.span_id, parent_id=parent_id,
                             attrs=attrs)


class _NoopSpan:
    """Shared do-nothing scope for the tracer-less fast path.

    Mirrors ``repro.obs.timers._NoopPhase``: a slotted singleton so
    permanently-instrumented hot paths cost two empty method calls and zero
    allocations when tracing is off.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()

# The process-wide tracer used by the module-level span() helper.  A plain
# global (not a stack): at most one tracing configuration is active at a
# time, and hot paths must pay only one load + None check when it is off.
_TRACER: Tracer | None = None


def set_tracer(tracer: Tracer | None) -> None:
    """Install (or clear, with ``None``) the process-wide tracer."""
    global _TRACER
    _TRACER = tracer


def get_tracer() -> Tracer | None:
    """The installed process-wide tracer, or ``None``."""
    return _TRACER


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of the block."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous


def span(name: str, parent: SpanContext | None = None,
         attrs: dict[str, Any] | None = None):
    """Scope helper for library code: a real span under the installed
    tracer, a shared no-op otherwise."""
    tracer = _TRACER
    if tracer is None:
        return _NOOP_SPAN
    return tracer.span(name, parent=parent, attrs=attrs)
