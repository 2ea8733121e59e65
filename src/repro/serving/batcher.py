"""Dynamic micro-batching: coalesce single-row requests into model forwards.

Online traffic arrives one row at a time, but the numpy substrate amortises
per-call overhead across rows, so the engine queues incoming requests and
flushes them as one forward under a classic dual-trigger policy: a batch goes
out when it reaches ``max_batch_size`` rows **or** when its oldest request
has waited ``max_wait_ms`` — whichever comes first.  ``num_workers`` threads
flush concurrently.

An LRU cache in front of the queue short-circuits repeated feature rows:
the key is a SHA-256 over the row's exact byte content (categorical ids,
sequence ids, and mask — everything the logit depends on), so a cache hit is
guaranteed to return the same logit the forward would have produced.  Thanks
to the deterministic tiled forward (:mod:`repro.serving.forward`), cached
and freshly-computed scores are bit-identical, so cache state can never
change a response.

Every request ends exactly once, in ``ScoringEngine._finish`` (DESIGN.md §9
tabulates the six endings).  ``close`` with ``drain=True`` — the SIGTERM
path — stops accepting new work, flushes the queue, and joins the workers;
nothing in flight is dropped.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import Iterable, Sequence

import numpy as np

from ..data.batching import Batch
from ..obs import (
    BatchFlushedEvent,
    MetricRegistry,
    ObserverList,
    RequestCompletedEvent,
    RequestReceivedEvent,
)
from ..obs.trace import SpanContext, Tracer
from .admission import DeadlineExceededError

__all__ = ["EngineClosedError", "ScoringEngine", "LRUCache", "row_key"]


class EngineClosedError(RuntimeError):
    """Raised when submitting to (or aborted by) a closed engine."""


def row_key(categorical: np.ndarray, sequences: np.ndarray,
            mask: np.ndarray) -> bytes:
    """Cache key: digest of the full feature row's canonical bytes.

    Hashing everything the model reads (not just the history) makes a hit
    sound by construction — two requests share a key only if their logits
    are provably identical.
    """
    h = hashlib.sha256()
    for array, dtype in ((categorical, np.int64), (sequences, np.int64),
                         (mask, np.bool_)):
        canonical = np.ascontiguousarray(array, dtype=dtype)
        h.update(str(canonical.shape).encode())
        h.update(canonical.tobytes())
    return h.digest()


class LRUCache:
    """Thread-safe bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[bytes, float] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: bytes) -> float | None:
        with self._lock:
            if key not in self._entries:
                return None
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key: bytes, value: float) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _Request:
    __slots__ = ("request_id", "categorical", "sequences", "mask", "key",
                 "future", "enqueued_at", "trace", "trace_parent_id",
                 "deadline")

    def __init__(self, request_id: int, categorical, sequences, mask,
                 key: bytes | None,
                 trace: SpanContext | None = None,
                 trace_parent_id: str | None = None,
                 deadline: float | None = None):
        self.request_id = request_id
        self.categorical = categorical
        self.sequences = sequences
        self.mask = mask
        self.key = key
        # Explicit span-context handoff across the queue boundary: the
        # worker that flushes this request emits its spans retroactively.
        self.trace = trace
        self.trace_parent_id = trace_parent_id
        self.future: Future = Future()
        self.enqueued_at = time.monotonic()
        # Absolute monotonic deadline; a request still queued past it is
        # rejected by the flushing worker instead of scored.
        self.deadline = deadline


class ScoringEngine:
    """Micro-batched scoring over an :class:`InferenceSession`-like scorer.

    ``session`` needs a single method, ``score_batch(Batch) -> np.ndarray``
    of per-row logits; tests substitute lightweight stubs.  Telemetry flows
    into an optional :class:`MetricRegistry` (latency / batch-size /
    queue-depth histograms, request and cache counters) and the optional
    observers receive the three serving events.
    """

    def __init__(self, session, *, max_batch_size: int = 64,
                 max_wait_ms: float = 2.0, num_workers: int = 1,
                 cache_size: int = 4096,
                 registry: MetricRegistry | None = None,
                 observers: Iterable | None = None,
                 tracer: Tracer | None = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.session = session
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1000.0
        self.cache = LRUCache(cache_size)
        self.registry = registry if registry is not None else MetricRegistry()
        # Optional request tracing; None keeps the hot path at a single
        # attribute load + None check per request.
        self.tracer = tracer
        self._observers = ObserverList.build(list(observers or []))
        self._obs_lock = threading.Lock()
        self._queue: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closing = False
        self._next_id = 0
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"scoring-worker-{i}", daemon=True)
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit_row(self, categorical: np.ndarray, sequences: np.ndarray,
                   mask: np.ndarray,
                   trace_parent: SpanContext | None = None,
                   deadline: float | None = None) -> Future:
        """Queue one feature row; the future resolves to its logit (float).

        ``trace_parent`` links the request's spans under an ingress span
        (the HTTP handler's); with a tracer but no parent, the request
        starts its own trace (head-sampled).

        ``deadline`` is an absolute ``time.monotonic()`` instant; if it
        passes while the row is still queued, the future fails with
        :class:`DeadlineExceededError` instead of being scored — expired
        work is shed, not computed.  Callers may also ``cancel()`` the
        future of a row they stopped waiting for; cancelled rows are
        dropped from the batch before the forward runs.
        """
        key = (row_key(categorical, sequences, mask)
               if self.cache.capacity else None)
        tracer = self.tracer
        trace = trace_parent_id = None
        if tracer is not None:
            context = tracer.make_context(trace_parent)
            if context.sampled:
                trace = context
                trace_parent_id = (trace_parent.span_id
                                   if trace_parent is not None else None)
        with self._cond:
            if self._closing:
                raise EngineClosedError("scoring engine is shut down")
            self._next_id += 1
            request = _Request(self._next_id, categorical, sequences, mask,
                               key, trace=trace,
                               trace_parent_id=trace_parent_id,
                               deadline=deadline)
            cached = self.cache.get(key) if key is not None else None
            depth = len(self._queue)
            if cached is None:
                self._queue.append(request)
                depth += 1
                self._cond.notify()
        trace_id = trace.trace_id if trace is not None else None
        self.registry.counter("serve.requests").inc()
        self._emit(RequestReceivedEvent(
            request_id=request.request_id, cached=cached is not None,
            queue_depth=depth, trace_id=trace_id))
        if cached is not None:
            self.registry.counter("serve.cache.hits").inc()
            self._set_hit_ratio()
            self._finish(request, time.monotonic(), value=cached, cached=True)
        else:
            self.registry.counter("serve.cache.misses").inc()
            self._set_hit_ratio()
        return request.future

    def score(self, rows: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
              timeout: float | None = None) -> np.ndarray:
        """Blocking convenience: submit rows, wait, return logits in order.

        ``timeout`` bounds the *whole call*, not each row (see
        :meth:`gather`).
        """
        futures = [self.submit_row(*row) for row in rows]
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        return np.array(self.gather(futures, deadline), dtype=np.float64)

    @staticmethod
    def gather(futures: Sequence[Future],
               deadline: float | None) -> list[float]:
        """Wait for every future under one shared deadline; logits in order.

        ``deadline`` is an absolute ``time.monotonic()`` instant (``None``
        waits forever): each future gets only the time remaining, so an
        N-row request can never wait N × timeout.  On the first timeout or
        failure the rest are abandoned, so no worker scores rows this
        caller stopped waiting for, and the exception propagates.
        """
        try:
            results = []
            for f in futures:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                results.append(f.result(timeout=remaining))
        except BaseException:
            ScoringEngine.abandon(futures)
            raise
        return results

    @staticmethod
    def abandon(futures: Iterable[Future]) -> None:
        """Release futures the caller no longer awaits.

        Pending ones are cancelled (the flushing worker drops them before
        the forward, so abandoned rows cost no model time); already-running
        or resolved ones are left to finish — their results are simply
        discarded.  Exceptions held by resolved futures are consumed so
        they are not logged as never-retrieved.
        """
        for f in futures:
            if not f.cancel() and f.done():
                f.exception()  # mark retrieved; discard

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._flush(batch)

    def _collect(self) -> list[_Request] | None:
        """Block until a batch is due under the size/wait policy."""
        with self._cond:
            while not self._queue:
                if self._closing:
                    return None
                self._cond.wait()
            first = self._queue.popleft()
            batch = [first]
            deadline = first.enqueued_at + self.max_wait_s
            while len(batch) < self.max_batch_size:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                remaining = deadline - time.monotonic()
                # Draining: ship what we have, don't wait out the window.
                if self._closing or remaining <= 0:
                    break
                self._cond.wait(remaining)
            return batch

    def _flush(self, batch: list[_Request]) -> None:
        flush_start = time.monotonic()
        wait_ms = (flush_start - batch[0].enqueued_at) * 1000.0
        depth = self.queue_depth()
        tracer = self.tracer
        batch = self._admit_batch(batch, flush_start)
        if not batch:
            return
        oldest_trace = batch[0].trace
        try:
            rows = Batch(
                categorical=np.stack([r.categorical for r in batch]),
                sequences=np.stack([r.sequences for r in batch]),
                mask=np.stack([r.mask for r in batch]),
                labels=np.zeros(len(batch), dtype=np.float64),
            )
            forward_start = time.monotonic()
            logits = np.asarray(self.session.score_batch(rows),
                                dtype=np.float64)
            forward_end = time.monotonic()
            forward_ms = (forward_end - forward_start) * 1000.0
            if logits.shape != (len(batch),):
                raise RuntimeError(
                    f"scorer returned shape {logits.shape} for a batch of "
                    f"{len(batch)} rows")
        except BaseException as exc:  # resolve every request, then continue
            failed_at = time.monotonic()
            for request in batch:
                self._finish(request, failed_at, error=exc,
                             batch_size=len(batch))
            self.registry.counter("serve.errors").inc(len(batch))
            return
        if oldest_trace is not None:
            # Micro-batch assembly is shared work; attribute it once, to
            # the trace of the request that triggered the flush.
            tracer.record_span("serve.batch_assemble", oldest_trace,
                               flush_start, forward_start,
                               attrs={"batch_size": len(batch)})
        self.registry.counter("serve.batches").inc()
        self.registry.histogram("serve.batch_size").record(len(batch))
        self.registry.histogram("serve.queue_depth").record(depth)
        self.registry.histogram("serve.forward_ms").record(forward_ms)
        self._emit(BatchFlushedEvent(
            batch_size=len(batch), queue_depth=depth, wait_ms=wait_ms,
            forward_ms=forward_ms,
            trace_id=(oldest_trace.trace_id if oldest_trace is not None
                      else None)))
        done = time.monotonic()
        queue_wait_hist = self.registry.histogram("serve.queue_wait_seconds")
        for request, logit in zip(batch, logits):
            value = float(logit)
            if request.key is not None:
                self.cache.put(request.key, value)
            queue_wait_hist.record(flush_start - request.enqueued_at)
            if request.trace is not None:
                tracer.record_span("serve.queue_wait", request.trace,
                                   request.enqueued_at, flush_start)
                tracer.record_span("serve.forward", request.trace,
                                   forward_start, forward_end,
                                   attrs={"batch_size": len(batch)})
            self._finish(request, done, value=value, batch_size=len(batch))

    def _admit_batch(self, batch: list[_Request],
                     now: float) -> list[_Request]:
        """End abandoned and expired rows before the forward; return the rest.

        Cancelled futures (caller gave up — HTTP timeout, closed
        connection) are dropped: scoring them would spend model time on
        answers nobody reads.  Rows whose deadline has passed fail with
        :class:`DeadlineExceededError` — rejected, not scored — so a
        backed-up queue sheds its stale tail instead of serving every
        request late.
        """
        live: list[_Request] = []
        for request in batch:
            if request.future.cancelled():
                self.registry.counter("serve.abandoned").inc()
                self._finish(request, now, label="abandoned")
            elif request.deadline is not None and now > request.deadline:
                self.registry.counter("serve.deadline_expired").inc()
                self._finish(request, now, label="deadline_exceeded",
                             error=DeadlineExceededError(
                                 f"deadline expired "
                                 f"{(now - request.deadline) * 1000.0:.1f}ms "
                                 f"before the batch flushed"))
            else:
                live.append(request)
        return live

    # ------------------------------------------------------------------
    # Lifecycle and stats
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the engine.  Idempotent.

        ``drain=True`` (the graceful path) lets the workers flush everything
        already accepted before they exit; ``drain=False`` fails pending
        requests with :class:`EngineClosedError` immediately.
        """
        with self._cond:
            self._closing = True
            abandoned = []
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        now = time.monotonic()
        for request in abandoned:
            self._finish(request, now, label="engine_closed",
                         error=EngineClosedError("engine closed before this "
                                                 "request was scored"))
        for worker in self._workers:
            worker.join(timeout)

    @property
    def closed(self) -> bool:
        return self._closing

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def stats(self) -> dict:
        """JSON-safe operational snapshot (cache + registry)."""
        snapshot = self.registry.snapshot()
        hits = snapshot.get("serve.cache.hits", {}).get("value", 0.0) or 0.0
        misses = (snapshot.get("serve.cache.misses", {}).get("value", 0.0)
                  or 0.0)
        total = hits + misses
        return {
            "cache": {"size": len(self.cache),
                      "capacity": self.cache.capacity,
                      "hits": int(hits), "misses": int(misses),
                      "hit_rate": (hits / total) if total else None},
            "queue_depth": self.queue_depth(),
            "metrics": snapshot,
        }

    def _finish(self, request: _Request, now: float, *,
                value: float | None = None,
                error: BaseException | None = None, label: str | None = None,
                batch_size: int = 0, cached: bool = False) -> None:
        """The one place a row ends (DESIGN.md §9 tabulates the six callers).

        Resolves the future with ``value`` or ``error`` (one the caller
        already cancelled is left alone), writes the ``serve.request`` span
        and emits ``request_completed``; ``label`` is what those two call a
        failed ending (default ``repr(error)``).  Counters stay with the
        caller, which knows which ending this is.  Runs once per row on the
        hot path: no lock of its own, and the span and event are built only
        when a trace was sampled / an observer is attached.
        """
        if error is not None and label is None:
            label = repr(error)
        latency_ms = (now - request.enqueued_at) * 1000.0
        if label is None:
            self.registry.histogram("serve.latency_seconds").record(
                now - request.enqueued_at)
        trace = request.trace
        if trace is not None:
            attrs: dict = {"request_id": request.request_id}
            if label is not None:
                attrs["error"] = label
            elif cached:
                attrs["cached"] = True
            else:
                attrs["batch_size"] = batch_size
            self.tracer.record_span(
                "serve.request", trace, request.enqueued_at, now,
                span_id=trace.span_id, parent_id=request.trace_parent_id,
                attrs=attrs)
        if request.future.set_running_or_notify_cancel():
            if error is None:
                request.future.set_result(value)
            else:
                request.future.set_exception(error)
        if self._observers:
            self._emit(RequestCompletedEvent(
                request_id=request.request_id, latency_ms=latency_ms,
                cached=cached, batch_size=batch_size, error=label,
                trace_id=trace.trace_id if trace is not None else None))

    def _set_hit_ratio(self) -> None:
        hits = self.registry.counter("serve.cache.hits").value
        misses = self.registry.counter("serve.cache.misses").value
        total = hits + misses
        if total:
            self.registry.gauge("serve.cache_hit_ratio").set(hits / total)

    def _emit(self, event) -> None:
        if not self._observers:
            return
        with self._obs_lock:
            self._observers.emit(event)

    def __enter__(self) -> "ScoringEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)
