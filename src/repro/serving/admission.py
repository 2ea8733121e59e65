"""Admission control: decide *whether* to score before deciding *how*.

An overloaded replica that accepts everything fails everyone: queues grow
without bound, every request times out, and the client sees worst-case
latency on 100% of traffic.  The admission layer keeps the failure mode
sharp instead — requests the server cannot finish in time are rejected
immediately with a retryable status, and the requests it does accept keep
their latency budget.

Three cooperating pieces:

:class:`AdmissionController`
    A bounded in-flight budget.  ``acquire`` either admits the request (the
    caller must ``release`` when it resolves) or raises :class:`ShedError`
    carrying a ``Retry-After`` hint; the HTTP layer turns that into a 429.

Deadlines (:func:`parse_deadline_ms`, :class:`DeadlineExceededError`)
    Clients send their remaining budget in an ``X-Deadline-Ms`` header.  The
    deadline travels with the request through the batcher, and a request
    whose deadline expires while queued is *rejected, not scored* — scoring
    a row nobody is still waiting for only steals capacity from rows whose
    callers are.

:class:`CircuitBreaker`
    A sliding-window failure-rate monitor.  Sustained scoring failure trips
    it OPEN: ``/score`` fast-fails with 503 and ``/healthz`` reports a
    degraded state so load balancers drain the replica.  After a cooldown
    it admits one probe (HALF_OPEN); a success closes it, a failure re-trips
    it, and a probe that ends without a verdict hands the slot to the next
    request.  All transitions are lock-protected and use an injectable clock
    so tests drive the state machine deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "ShedError",
    "parse_deadline_ms",
]


class ShedError(RuntimeError):
    """Request rejected by admission control (HTTP 429).

    ``retry_after_s`` is the client's backoff hint, surfaced as the
    ``Retry-After`` response header.
    """

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class DeadlineExceededError(TimeoutError):
    """A request's deadline expired before (or while) it could be scored."""


class CircuitOpenError(RuntimeError):
    """Fast-fail: the circuit breaker is open (HTTP 503)."""


def parse_deadline_ms(value: str | None) -> float | None:
    """Validate an ``X-Deadline-Ms`` header value; returns milliseconds.

    ``None``/empty means "no deadline".  Anything that is not a positive
    finite number raises ``ValueError`` — the HTTP layer maps that to 400
    rather than guessing at the client's intent.
    """
    if value is None or value == "":
        return None
    try:
        deadline_ms = float(value)
    except ValueError as exc:
        raise ValueError(f"X-Deadline-Ms {value!r} is not a number") from exc
    if not (deadline_ms > 0) or deadline_ms != deadline_ms \
            or deadline_ms == float("inf"):
        raise ValueError("X-Deadline-Ms must be a positive finite number "
                         f"of milliseconds, got {value!r}")
    return deadline_ms


class AdmissionController:
    """Bounded in-flight budget with explicit load shedding.

    ``max_inflight`` caps the number of admitted-but-unresolved requests
    (HTTP rows, not connections).  ``acquire(rows)`` admits all of a
    request's rows or none of them — partial scoring of a multi-row request
    is never useful to the caller.
    """

    def __init__(self, max_inflight: int, *, retry_after_s: float = 0.5):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        self.max_inflight = max_inflight
        self.retry_after_s = retry_after_s
        self._inflight = 0
        self._shed = 0
        self._admitted = 0
        self._lock = threading.Lock()

    def acquire(self, rows: int = 1) -> None:
        """Admit ``rows`` units of work or raise :class:`ShedError`."""
        if rows < 1:
            raise ValueError("rows must be >= 1")
        with self._lock:
            if self._inflight + rows > self.max_inflight:
                self._shed += 1
                raise ShedError(
                    f"overloaded: {self._inflight} rows in flight, admitting "
                    f"{rows} more would exceed the {self.max_inflight}-row "
                    f"budget", self.retry_after_s)
            self._inflight += rows
            self._admitted += 1

    def release(self, rows: int = 1) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - rows)

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def snapshot(self) -> dict:
        with self._lock:
            return {"inflight": self._inflight,
                    "max_inflight": self.max_inflight,
                    "admitted": self._admitted,
                    "shed": self._shed}


class CircuitBreaker:
    """Sliding-window failure-rate breaker: CLOSED → OPEN → HALF_OPEN.

    Outcomes are recorded into a ``window_s``-second sliding window.  Once
    at least ``min_requests`` outcomes are in the window and the failure
    fraction reaches ``failure_threshold``, the breaker opens for
    ``cooldown_s``.  While open every ``allow()`` is refused except that,
    after the cooldown, exactly one caller is admitted as a probe
    (HALF_OPEN); its outcome closes or re-opens the circuit.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, *, failure_threshold: float = 0.5,
                 min_requests: int = 10, window_s: float = 10.0,
                 cooldown_s: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if min_requests < 1:
            raise ValueError("min_requests must be >= 1")
        if window_s <= 0 or cooldown_s <= 0:
            raise ValueError("window_s and cooldown_s must be positive")
        self.failure_threshold = failure_threshold
        self.min_requests = min_requests
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._outcomes: deque[tuple[float, bool]] = deque()
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._probe_inflight = False
        self._trips = 0
        self._lock = threading.Lock()

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        while self._outcomes and self._outcomes[0][0] < horizon:
            self._outcomes.popleft()

    def allow(self) -> bool:
        """True if a request may proceed; False means fast-fail (503).

        In the OPEN state, the first call after the cooldown transitions to
        HALF_OPEN and is admitted as the probe; concurrent callers keep
        being refused until the probe's outcome is recorded.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            now = self._clock()
            if self._state == self.OPEN:
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._state = self.HALF_OPEN
                self._probe_inflight = True
                return True
            # HALF_OPEN: one probe at a time.
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record(self, ok: bool | None) -> None:
        """Feed one admitted request's outcome in; may trip or close.

        ``None`` is "no verdict about model health" — the request ended on
        its own input, on load shedding or on its deadline.  It only frees
        the probe slot, so the next request probes instead of the circuit
        staying half-open (503) forever; state and window are untouched.
        """
        with self._lock:
            if ok is None:
                self._probe_inflight = False
                return
            now = self._clock()
            if self._state == self.HALF_OPEN:
                self._probe_inflight = False
                if ok:
                    self._state = self.CLOSED
                    self._outcomes.clear()
                else:
                    self._state = self.OPEN
                    self._opened_at = now
                    self._trips += 1
                return
            if self._state == self.OPEN:
                return  # outcomes of already-admitted stragglers don't count
            self._outcomes.append((now, ok))
            self._prune(now)
            total = len(self._outcomes)
            if total < self.min_requests:
                return
            failures = sum(1 for _, outcome in self._outcomes if not outcome)
            if failures / total >= self.failure_threshold:
                self._state = self.OPEN
                self._opened_at = now
                self._trips += 1
                self._outcomes.clear()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def snapshot(self) -> dict:
        with self._lock:
            now = self._clock()
            self._prune(now)
            failures = sum(1 for _, ok in self._outcomes if not ok)
            return {"state": self._state,
                    "window_requests": len(self._outcomes),
                    "window_failures": failures,
                    "trips": self._trips,
                    "cooldown_remaining_s": (
                        max(0.0, self.cooldown_s - (now - self._opened_at))
                        if self._state == self.OPEN else 0.0)}
