"""Scoped phase timers: attribute wall-time to named phases of a run.

Library code marks its hot paths with the module-level :func:`phase` context
manager::

    with phase("model.ssl.mie"):
        views = stack_views(pairs, whole_rows=True)

When no collector is active this is a near-free no-op, so instrumentation can
live permanently in the data loader, the trainer, and the MISS SSL branches.
The trainer activates a :class:`PhaseTimings` collector for the duration of a
run via :func:`collect`; nested phases are accounted hierarchically, i.e. a
parent's *self* time excludes the time spent in child phases, so time shares
sum to ~100% of the instrumented window.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .metrics import MetricRegistry

__all__ = ["PhaseStat", "PhaseTimings", "collect", "phase", "active_timings"]


@dataclass
class PhaseStat:
    """Accumulated wall-time of one named phase."""

    total_s: float = 0.0
    child_s: float = 0.0
    count: int = 0

    @property
    def self_s(self) -> float:
        """Time spent in this phase excluding nested child phases."""
        return self.total_s - self.child_s


class PhaseTimings:
    """Collector of per-phase wall-time with nesting support.

    When constructed with a :class:`MetricRegistry`, every observed duration
    is also recorded into a ``<name>_ms`` streaming histogram so traces get
    per-phase latency quantiles (e.g. ``data.batch_ms``).
    """

    def __init__(self, registry: MetricRegistry | None = None):
        self.stats: dict[str, PhaseStat] = {}
        self.registry = registry
        # The active-phase stack is *per thread*: ScoringEngine workers time
        # phases concurrently into one collector, and nesting only ever
        # exists within a single thread.
        # A shared stack would interleave push/pop across threads and
        # corrupt self-time accounting (negative self_s, misattributed
        # child time).
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        stack = self._stack()
        start = time.perf_counter()
        stack.append(0.0)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            self.observe(name, elapsed, child_seconds=child)

    def observe(self, name: str, seconds: float,
                child_seconds: float = 0.0, count: int = 1) -> None:
        with self._lock:
            stat = self.stats.setdefault(name, PhaseStat())
            stat.total_s += seconds
            stat.child_s += child_seconds
            stat.count += count
        if self.registry is not None:
            self.registry.histogram(f"{name}_ms").record(seconds * 1000.0)

    def observe_nested(self, name: str, seconds: float, count: int) -> None:
        """Record ``count`` runs of ``name``, ``seconds`` in all, that ran
        inside this thread's innermost open phase without a scope each
        (``Tensor.backward``'s per-op ledger): the open phase counts them
        as child time, as if each had been a nested :meth:`phase`."""
        stack = self._stack()
        if stack:
            stack[-1] += seconds
        self.observe(name, seconds, count=count)

    def shares(self) -> dict[str, float]:
        """Fraction of instrumented self-time per phase (sums to 1.0)."""
        total = sum(stat.self_s for stat in self.stats.values())
        if total <= 0.0:
            return {name: 0.0 for name in self.stats}
        return {name: stat.self_s / total for name, stat in self.stats.items()}

    def snapshot(self) -> dict[str, dict]:
        """JSON-safe dump: total/self seconds, call count, and time share."""
        shares = self.shares()
        return {name: {"total_s": stat.total_s, "self_s": stat.self_s,
                       "count": stat.count, "share": shares[name]}
                for name, stat in sorted(self.stats.items())}


# The active collector stack.  Single-threaded training loops push one
# collector for the duration of a run; an empty stack makes phase() a no-op.
_ACTIVE: list[PhaseTimings] = []


class _NoopPhase:
    """Shared do-nothing scope returned when no collector is active.

    A dedicated slotted singleton (rather than ``contextlib.nullcontext``)
    keeps the inactive path to two empty method calls with no attribute
    loads, so ``with phase(...)`` blocks can stay in library hot paths
    permanently.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoopPhase()


def active_timings() -> PhaseTimings | None:
    """The innermost active collector, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def collect(timings: PhaseTimings) -> Iterator[PhaseTimings]:
    """Route all :func:`phase` scopes to ``timings`` inside the block."""
    _ACTIVE.append(timings)
    try:
        yield timings
    finally:
        _ACTIVE.pop()


def phase(name: str):
    """Context manager timing one scope under the active collector (no-op
    when none is active)."""
    if not _ACTIVE:
        return _NOOP
    return _ACTIVE[-1].phase(name)
