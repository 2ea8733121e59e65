"""The online-learning loop: serve → detect → train → promote, per window.

One :meth:`OnlineLoop.run` call turns a :class:`~repro.streaming.ClickStream`
into a self-updating serving system.  Each window:

1. **serve** — every row is submitted through the live
   :class:`~repro.serving.router.ModelRouter` (so shadow routing, hot
   swaps, and the zero-drop invariant are all exercised by real traffic);
   resolved probabilities against the window's labels give production's
   prequential AUC/logloss;
2. **detect** — the :class:`~repro.streaming.DriftMonitor` compares the
   served window against its reference and raises ``drift_detected`` events;
   alarms are forwarded to the promotion controller (recovery export) and
   the trainer's anomaly guard stats are reset so a genuine regime change is
   not mistaken for a numerical spike;
3. **train** — the :class:`~repro.streaming.IncrementalTrainer` runs its
   evaluate-then-train step and checkpoints;
4. **promote** — the :class:`~repro.streaming.PromotionController` advances
   (shadow scoring, verdicts, probation); on a promotion or rollback the
   monitor is rebased to the new regime.

Everything is narrated: ``stream.*`` metrics in the shared registry,
``stream.window`` spans (with ``serve``/``drift``/``train``/``promote``
children), and the additive ``stream_window`` / ``drift_detected`` /
``promotion`` events — the JSONL trace is what ``inspect-run`` renders as
its streaming timeline and what the CI smoke job asserts over.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..obs import (
    DriftDetectedEvent,
    MetricRegistry,
    ObserverList,
    StreamWindowEvent,
)
from ..obs.trace import span
from ..serving.forward import sigmoid
from ..serving.router import ModelRouter
from ..training.metrics import EvalResult, auc_score, logloss_score
from .drift import DriftMonitor
from .incremental import IncrementalTrainer
from .promotion import PromotionController
from .stream import ClickStream

__all__ = ["StreamResult", "OnlineLoop"]


@dataclass
class StreamResult:
    """Aggregate outcome of one loop run (JSON-safe via ``summary()``)."""

    windows: list[dict] = field(default_factory=list)
    drift_signals: list[dict] = field(default_factory=list)
    promotions: list[dict] = field(default_factory=list)
    submitted: int = 0
    completed: int = 0
    dropped: int = 0
    final_production: str | None = None

    @property
    def production_auc(self) -> list[float]:
        return [w["production_auc"] for w in self.windows]

    @property
    def learner_auc(self) -> list[float]:
        return [w["learner_auc"] for w in self.windows]

    def summary(self) -> dict:
        aucs = self.production_auc
        return {
            "windows": len(self.windows),
            "rows": int(sum(w["rows"] for w in self.windows)),
            "submitted": self.submitted,
            "completed": self.completed,
            "dropped": self.dropped,
            "production_auc_mean": (float(np.mean(aucs)) if aucs else None),
            "learner_auc_mean": (float(np.mean(self.learner_auc))
                                 if self.windows else None),
            "drift_signals": len(self.drift_signals),
            "promotions": sum(1 for p in self.promotions
                              if p["action"] == "promoted"),
            "rollbacks": sum(1 for p in self.promotions
                             if p["action"] == "rollback"),
            "final_production": self.final_production,
        }


class OnlineLoop:
    """Wires stream, trainer, drift monitor, router, and controller."""

    def __init__(self, stream: ClickStream, trainer: IncrementalTrainer,
                 router: ModelRouter, controller: PromotionController,
                 monitor: DriftMonitor | None = None, *,
                 observers=None, metrics: MetricRegistry | None = None):
        self.stream = stream
        self.trainer = trainer
        self.router = router
        self.controller = controller
        self.monitor = monitor if monitor is not None else DriftMonitor()
        self.observers = ObserverList.build(observers)
        self.metrics = metrics if metrics is not None else MetricRegistry()

    # ------------------------------------------------------------------
    def _serve_window(self, data) -> tuple[np.ndarray, int, int]:
        """Score every row through the router; returns (probs, ok, dropped).

        Rows whose future resolves with an error (there should be none —
        the zero-drop contract) contribute a neutral 0.5 probability so one
        bad row cannot poison the window's metrics, and are counted.
        """
        futures: list[Future] = []
        for i in range(len(data)):
            future, _ = self.router.submit(
                data.categorical[i], data.sequences[i], data.mask[i])
            futures.append(future)
        probs = np.full(len(futures), 0.5)
        dropped = 0
        for i, future in enumerate(futures):
            try:
                probs[i] = float(sigmoid(np.float64(future.result())))
            except Exception:
                dropped += 1
        return probs, len(futures) - dropped, dropped

    def run(self, start_window: int = 0) -> StreamResult:
        """Consume the stream from ``start_window`` to its end."""
        result = StreamResult()
        for window in self.stream.windows(start=start_window):
            with span("stream.window", attrs={"window": window.index}):
                data = window.data
                with span("stream.serve"):
                    probs, ok, dropped = self._serve_window(data)
                prod_auc = auc_score(data.labels, probs)
                prod_ll = logloss_score(data.labels, probs)
                with span("stream.drift"):
                    signals = self.monitor.update(window.index, probs,
                                                  prod_ll)
                for name, value in self.monitor.last_stats.items():
                    self.metrics.gauge(f"stream.drift.{name}").set(value)
                for signal_ in signals:
                    event = DriftDetectedEvent(
                        window=signal_.window, detector=signal_.detector,
                        value=signal_.value, threshold=signal_.threshold)
                    self.observers.emit(event)
                    result.drift_signals.append(event.payload())
                    self.metrics.counter("stream.drift.signals").inc()
                    self.metrics.counter(
                        f"stream.drift.alarms.{signal_.detector}").inc()
                if signals:
                    self.controller.note_drift(window.index)
                    # A regime change legitimately moves the loss mean;
                    # don't let the spike detector fight the recovery.
                    self.trainer.guard.reset_stats()
                with span("stream.train"):
                    learner = self.trainer.process_window(data, window.index)
                with span("stream.promote"):
                    events = self.controller.step(
                        window.index, self.trainer.model, data,
                        EvalResult(auc=prod_auc, logloss=prod_ll))
                for event in events:
                    result.promotions.append(event.payload())
                    if event.action in ("promoted", "rollback"):
                        self.monitor.rebase()

                version = self.router.describe()["primary"]
                self._record_window(result, window, version, prod_auc,
                                    prod_ll, learner, ok, dropped)
        result.final_production = self.router.describe()["primary"]
        return result

    def _record_window(self, result: StreamResult, window, version,
                       prod_auc, prod_ll, learner, ok, dropped) -> None:
        result.submitted += len(window.data)
        result.completed += ok
        result.dropped += dropped
        event = StreamWindowEvent(
            window=window.index, timestamp=window.timestamp,
            rows=len(window.data), production_version=version,
            production_auc=prod_auc, production_logloss=prod_ll,
            learner_auc=learner.auc, learner_logloss=learner.logloss,
            train_loss=learner.train_loss, new_users=len(window.new_users))
        self.observers.emit(event)
        result.windows.append(event.payload())
        m = self.metrics
        m.counter("stream.windows").inc()
        m.counter("stream.rows").inc(len(window.data))
        m.counter("stream.dropped_requests").inc(dropped)
        m.gauge("stream.prequential.production_auc").set(prod_auc)
        m.gauge("stream.prequential.learner_auc").set(learner.auc)
        m.ema("stream.prequential.production_auc_ema").update(prod_auc)
        m.ema("stream.prequential.learner_auc_ema").update(learner.auc)
        m.histogram("stream.window.train_loss").record(learner.train_loss)
