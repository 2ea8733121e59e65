"""Model router: one serving front door, a fleet of model deployments.

The router owns up to three live deployments, each a (version, session,
engine) triple built by an injected ``engine_factory``:

``primary``
    Scores the critical path.  :meth:`deploy_primary` hot-swaps it with
    zero dropped requests.
``shadow``
    Receives a fire-and-forget copy of every primary-routed request.
    Shadow results are discarded and shadow failures are swallowed (and
    counted) — a broken challenger can never hurt production traffic.
``challenger``
    Percentage A/B: a deterministic hash of the feature row sends
    ``challenger_fraction`` of requests to the challenger *instead of*
    production.  Hash-based routing means a given row always sees the same
    model, so repeated requests stay cache-coherent and comparable.

Every role changes hands the same way (``ModelRouter._swap``): the
replacement engine is built first, the pointer switch happens under the
submit lock (so no request can observe a half-swapped router), and only then
is the old engine drained — every request it had already accepted still
resolves.

Per-model traffic is counted as ``serve.model.<version>.requests`` /
``.errors`` in the shared metric registry, alongside role counters
(``serve.shadow.requests``, ``serve.ab.challenger_requests``), so operators
can watch a challenger's error rate before promoting it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Callable

import numpy as np

from ..obs import MetricRegistry
from ..obs.trace import SpanContext
from .batcher import ScoringEngine, row_key
from .registry import check_version

__all__ = ["ModelRouter", "Deployment"]


class Deployment:
    """One live model: a version label, its session, and its engine."""

    __slots__ = ("version", "session", "engine")

    def __init__(self, version: str, session, engine: ScoringEngine):
        self.version = version
        self.session = session
        self.engine = engine


def _route_bucket(categorical: np.ndarray, sequences: np.ndarray,
                  mask: np.ndarray) -> int:
    """Deterministic bucket in [0, 10000) from the full feature row."""
    digest = row_key(categorical, sequences, mask)
    return int.from_bytes(digest[:8], "big") % 10_000


class ModelRouter:
    """Route score requests across primary / shadow / challenger engines."""

    def __init__(self, engine_factory: Callable[[Any], ScoringEngine], *,
                 metrics: MetricRegistry | None = None):
        self._factory = engine_factory
        self.metrics = metrics if metrics is not None else MetricRegistry()
        # Guards the deployment pointers AND spans each submit_row call, so
        # a swap can never close an engine between a request picking it and
        # enqueueing into it — the zero-drop invariant.
        self._lock = threading.Lock()
        self._roles: dict[str, Deployment | None] = dict.fromkeys(
            ("primary", "shadow", "challenger"))
        self._fraction = 0.0
        self._swaps = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Deployment management
    # ------------------------------------------------------------------
    def _swap(self, role: str, session, version: str | None,
              fraction: float = 0.0) -> tuple[Deployment | None, int]:
        """Put ``version`` (``None``: nothing) in ``role``; drain what it
        replaces.  Returns (old deployment, its queue depth at the switch).

        The label is checked here, once per deployment: it becomes part of
        the ``serve.model.<version>.*`` metric names, and a name the metric
        registry refuses must fail the deploy, not every request after it.
        """
        new = None
        if version is not None:
            check_version(version)
            new = Deployment(version, session, self._factory(session))
        with self._lock:
            if self._closed:
                if new is not None:
                    new.engine.close(drain=False)
                raise RuntimeError("router is closed")
            old, self._roles[role] = self._roles[role], new
            if role == "primary":
                self._swaps += 1
            elif role == "challenger":
                self._fraction = fraction
        drained = 0
        if old is not None:
            drained = old.engine.queue_depth()
            old.engine.close(drain=True)
        return old, drained

    def deploy_primary(self, session, version: str) -> dict[str, Any]:
        """Install (or hot-swap) the production model; returns swap info.

        Requests arriving during the swap land on whichever engine the
        pointer names — both of which score.  Nothing is dropped.
        """
        start = time.monotonic()
        old, drained = self._swap("primary", session, version)
        swap_ms = (time.monotonic() - start) * 1000.0
        self.metrics.counter("serve.model.swaps").inc()
        return {"old_version": old.version if old is not None else None,
                "new_version": version, "swap_ms": swap_ms,
                "drained_queue_depth": drained}

    def set_shadow(self, session, version: str | None) -> None:
        """Attach (or detach, with ``version=None``) the shadow model."""
        self._swap("shadow", session, version)

    def set_challenger(self, session, version: str | None,
                       fraction: float = 0.0) -> None:
        """Attach (or detach) the A/B challenger taking ``fraction``."""
        if version is None:
            fraction = 0.0
        elif not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self._swap("challenger", session, version, fraction)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    @property
    def primary(self) -> Deployment:
        with self._lock:
            if self._roles["primary"] is None:
                raise RuntimeError("router has no primary deployment")
            return self._roles["primary"]

    @property
    def primary_session(self):
        return self.primary.session

    @property
    def primary_engine(self) -> ScoringEngine:
        return self.primary.engine

    def submit(self, categorical: np.ndarray, sequences: np.ndarray,
               mask: np.ndarray, *,
               trace_parent: SpanContext | None = None,
               deadline: float | None = None) -> tuple[Future, str]:
        """Route one row; returns (future, version-that-scores-it).

        The hash split is evaluated per row, the shadow copy (if any) is
        dispatched fire-and-forget, and the row is enqueued while the
        router lock is held so a concurrent hot-swap cannot close the
        chosen engine out from under it.
        """
        with self._lock:
            target, shadow, challenger = self._roles.values()
            if target is None:
                raise RuntimeError("router has no primary deployment")
            if challenger is not None and \
                    _route_bucket(categorical, sequences, mask) < \
                    int(self._fraction * 10_000):
                target = challenger
                self.metrics.counter("serve.ab.challenger_requests").inc()
            future = target.engine.submit_row(
                categorical, sequences, mask, trace_parent=trace_parent,
                deadline=deadline)
            if shadow is not None and target is not shadow:
                self._submit_shadow(shadow, categorical, sequences, mask)
        self.metrics.counter(
            f"serve.model.{target.version}.requests").inc()
        version = target.version
        future.add_done_callback(
            lambda f, v=version: self._record_outcome(f, v))
        return future, version

    def _submit_shadow(self, shadow: Deployment, categorical, sequences,
                       mask) -> None:
        """Fire-and-forget shadow copy — never on the critical path."""
        self.metrics.counter("serve.shadow.requests").inc()
        self.metrics.counter(
            f"serve.model.{shadow.version}.requests").inc()
        try:
            future = shadow.engine.submit_row(categorical, sequences, mask)
        except Exception:
            self.metrics.counter("serve.shadow.errors").inc()
            return
        future.add_done_callback(
            lambda f, v=shadow.version: self._record_outcome(f, v, True))

    def _record_outcome(self, future: Future, version: str,
                        shadow: bool = False) -> None:
        if future.cancelled() or future.exception() is not None:
            if shadow:
                self.metrics.counter("serve.shadow.errors").inc()
            self.metrics.counter(f"serve.model.{version}.errors").inc()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """JSON-safe fleet state for ``/healthz``."""
        with self._lock:
            return {
                **{role: deployment.version if deployment is not None
                   else None for role, deployment in self._roles.items()},
                "challenger_fraction": self._fraction,
                "swaps": self._swaps,
            }

    def deployments(self) -> list[Deployment]:
        with self._lock:
            return [d for d in self._roles.values() if d is not None]

    def close(self, drain: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True     # from here on _swap refuses: roles are final
        for deployment in self.deployments():
            deployment.engine.close(drain=drain)
