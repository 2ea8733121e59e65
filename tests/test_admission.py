"""Unit tests for the admission-control layer: deadline parsing, the bounded
in-flight budget, and the circuit breaker's state machine (driven with a fake
clock — no sleeps, fully deterministic).
"""

import math
import threading

import pytest

from repro.serving import (
    AdmissionController,
    CircuitBreaker,
    ShedError,
    parse_deadline_ms,
)
from repro.serving.admission import (
    COOLDOWN_S,
    FAILURE_THRESHOLD,
    MIN_REQUESTS,
    WINDOW_S,
)


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestParseDeadlineMs:
    def test_absent_means_no_deadline(self):
        assert parse_deadline_ms(None) is None
        assert parse_deadline_ms("") is None

    @pytest.mark.parametrize("raw,expected", [
        ("250", 250.0), ("1.5", 1.5), ("1e3", 1000.0), ("  42 ", 42.0),
    ])
    def test_valid_values(self, raw, expected):
        assert parse_deadline_ms(raw) == expected

    @pytest.mark.parametrize("raw", [
        "0", "-5", "nan", "inf", "-inf", "abc", "12ms", "1,5",
    ])
    def test_invalid_values_raise(self, raw):
        with pytest.raises(ValueError):
            parse_deadline_ms(raw)


class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(4, retry_after_s=0.0)
        with pytest.raises(ValueError):
            AdmissionController(4).acquire(0)

    def test_acquire_release_cycle(self):
        admission = AdmissionController(3)
        admission.acquire(2)
        assert admission.inflight == 2
        admission.acquire(1)
        assert admission.inflight == 3
        admission.release(2)
        admission.release(1)
        assert admission.inflight == 0

    def test_shed_when_budget_exhausted(self):
        admission = AdmissionController(2, retry_after_s=1.25)
        admission.acquire(2)
        with pytest.raises(ShedError) as excinfo:
            admission.acquire(1)
        assert excinfo.value.retry_after_s == 1.25
        # A failed acquire must not leak budget.
        assert admission.inflight == 2

    def test_multi_row_is_all_or_nothing(self):
        admission = AdmissionController(4)
        admission.acquire(3)
        with pytest.raises(ShedError):
            admission.acquire(2)  # only 1 slot left; 2 rows need both
        admission.acquire(1)
        assert admission.inflight == 4

    def test_release_never_goes_negative(self):
        admission = AdmissionController(2)
        admission.release(5)
        assert admission.inflight == 0
        admission.acquire(2)  # full budget still available

    def test_snapshot_counts(self):
        admission = AdmissionController(1)
        admission.acquire()
        with pytest.raises(ShedError):
            admission.acquire()
        admission.release()
        snap = admission.snapshot()
        assert snap == {"inflight": 0, "max_inflight": 1,
                        "admitted": 1, "shed": 1}

    def test_thread_safety_budget_never_exceeded(self):
        admission = AdmissionController(8)
        peak = []
        barrier = threading.Barrier(16)

        def worker():
            barrier.wait()
            for _ in range(200):
                try:
                    admission.acquire()
                except ShedError:
                    continue
                peak.append(admission.inflight)
                admission.release()

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert admission.inflight == 0
        assert max(peak) <= 8


class TestCircuitBreaker:
    @staticmethod
    def _trip(breaker):
        for _ in range(MIN_REQUESTS):
            breaker.record(False)

    def test_validation(self):
        # The policy is module constants: only the clock is injectable, and
        # each constant sits in the range the retired arguments enforced.
        for policy in ("failure_threshold", "min_requests", "window_s",
                       "cooldown_s"):
            with pytest.raises(TypeError):
                CircuitBreaker(**{policy: 1})
        assert 0.0 < FAILURE_THRESHOLD <= 1.0
        assert MIN_REQUESTS >= 1
        assert WINDOW_S > 0 and COOLDOWN_S > 0

    def test_stays_closed_below_min_requests(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        for _ in range(MIN_REQUESTS - 1):
            breaker.record(False)  # 100% failure but too few outcomes
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_trips_at_failure_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        failures = math.ceil(FAILURE_THRESHOLD * MIN_REQUESTS)
        for _ in range(MIN_REQUESTS - failures):
            breaker.record(True)
        for _ in range(failures):  # failures / MIN_REQUESTS >= threshold
            breaker.record(False)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.snapshot()["trips"] == 1

    def test_old_outcomes_age_out_of_the_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        for _ in range(MIN_REQUESTS - 1):
            breaker.record(False)
        clock.advance(WINDOW_S + 1.0)
        for _ in range(MIN_REQUESTS - 1):
            breaker.record(True)
        breaker.record(False)  # 1 failure in the live window
        assert breaker.state == CircuitBreaker.CLOSED
        snap = breaker.snapshot()
        assert snap["window_requests"] == MIN_REQUESTS
        assert snap["window_failures"] == 1

    def test_cooldown_then_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        self._trip(breaker)
        assert not breaker.allow()          # still cooling down
        clock.advance(COOLDOWN_S)
        assert breaker.allow()              # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()          # concurrent callers refused
        assert not breaker.allow()

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        self._trip(breaker)
        clock.advance(COOLDOWN_S)
        assert breaker.allow()
        breaker.record(True)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        # The window was cleared: old failures cannot insta-trip it.
        breaker.record(False)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        self._trip(breaker)
        clock.advance(COOLDOWN_S)
        assert breaker.allow()
        breaker.record(False)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.snapshot()["trips"] == 2
        clock.advance(COOLDOWN_S - 0.1)
        assert not breaker.allow()          # new cooldown, not the old one
        clock.advance(0.2)
        assert breaker.allow()

    def test_probe_without_a_verdict_hands_the_slot_on(self):
        # A probe that ends on its own input, on shedding or on its
        # deadline says nothing about the model: the circuit must stay
        # half-open with the slot free, not refuse everyone forever.
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        self._trip(breaker)
        clock.advance(COOLDOWN_S)
        assert breaker.allow()
        breaker.record(None)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.snapshot()["trips"] == 1
        assert breaker.allow()              # the next request probes
        assert not breaker.allow()
        breaker.record(True)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_no_verdict_leaves_a_closed_window_alone(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        for ok in (True, False, False):
            breaker.record(ok)
        breaker.record(None)
        assert breaker.snapshot()["window_requests"] == 3
        assert breaker.state == CircuitBreaker.CLOSED

    def test_straggler_outcomes_ignored_while_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        self._trip(breaker)
        # In-flight requests admitted before the trip resolve afterwards;
        # their outcomes must not perturb the open state.
        breaker.record(True)
        breaker.record(False)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.snapshot()["window_requests"] == 0

    def test_snapshot_cooldown_remaining(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        self._trip(breaker)
        clock.advance(2.0)
        snap = breaker.snapshot()
        assert snap["state"] == CircuitBreaker.OPEN
        assert snap["cooldown_remaining_s"] == pytest.approx(COOLDOWN_S - 2.0)
