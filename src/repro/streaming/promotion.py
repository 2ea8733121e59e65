"""Promotion controller: learner → registry → shadow → production.

Closes the train→serve cycle.  On schedule (every ``export_every`` windows)
or ``recovery_windows`` after a drift alarm, the controller exports the
incremental learner as a serving artifact, publishes it to the
:class:`~repro.serving.registry.ModelRegistry` (digest-verified, immutable),
and attaches it as the **shadow** on the live
:class:`~repro.serving.router.ModelRouter` — from that point every production
request is also scored by the candidate, off the critical path.

In parallel the controller scores each window with the candidate session
directly (the deterministic blocked forward, bit-identical to what the
shadow engine computes) to build the candidate's prequential record.  After
``shadow_windows`` windows the verdict is taken under guardrails:

* promote when the candidate's mean prequential AUC beats production's by at
  least ``min_auc_gain`` **and** its logloss is within ``max_logloss_ratio``
  of production's — ``registry.promote`` flips the state file atomically and
  ``router.deploy_primary`` hot-swaps the engine with zero dropped requests;
* reject otherwise — the version stays in the registry (immutable history)
  but leaves the shadow slot.

Every promotion opens a **probation** of ``rollback_windows`` windows: if the
new production's prequential AUC falls more than ``rollback_auc_drop`` below
the pre-promotion baseline, the controller demotes it and redeploys the
previous version — the rollback path a bad challenger takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from ..data.batching import CTRDataset
from ..obs import MetricRegistry, ObserverList, PromotionEvent
from ..serving.artifact import export_artifact
from ..serving.registry import ModelRegistry
from ..serving.router import ModelRouter
from ..serving.session import InferenceSession
from ..training.metrics import EvalResult, auc_score, logloss_score

__all__ = ["PromotionConfig", "PromotionController"]


@dataclass(frozen=True)
class PromotionConfig:
    """Cadence and guardrails of candidate promotion."""

    export_every: int = 10        # scheduled export cadence; 0 = drift-only
    recovery_windows: int = 3     # windows after a drift alarm before export
    shadow_windows: int = 3       # prequential windows before the verdict
    min_auc_gain: float = 0.0
    max_logloss_ratio: float = 1.10
    rollback_windows: int = 3
    rollback_auc_drop: float = 0.05

    def __post_init__(self):
        if self.export_every < 0:
            raise ValueError("export_every must be >= 0")
        if self.recovery_windows < 1:
            raise ValueError("recovery_windows must be >= 1")
        if self.shadow_windows < 1:
            raise ValueError("shadow_windows must be >= 1")
        if self.rollback_windows < 1:
            raise ValueError("rollback_windows must be >= 1")
        if not math.isfinite(self.min_auc_gain):
            raise ValueError("min_auc_gain must be finite")
        if self.max_logloss_ratio < 1.0:
            raise ValueError("max_logloss_ratio must be >= 1.0")
        if self.rollback_auc_drop < 0.0:
            raise ValueError("rollback_auc_drop must be >= 0")


@dataclass
class _Candidate:
    version: str
    session: InferenceSession
    published_window: int
    auc: list[float] = field(default_factory=list)
    logloss: list[float] = field(default_factory=list)


@dataclass
class _Probation:
    version: str
    previous_version: str | None
    promoted_window: int
    baseline_auc: float
    auc: list[float] = field(default_factory=list)


class PromotionController:
    """Drives export → publish → shadow → promote/reject → probation."""

    def __init__(self, registry: ModelRegistry, router: ModelRouter,
                 config: PromotionConfig, *,
                 export_dir: str | Path, model_name: str,
                 observers: ObserverList | None = None,
                 metrics: MetricRegistry | None = None):
        self.registry = registry
        self.router = router
        self.config = config
        self.export_dir = Path(export_dir)
        self.export_dir.mkdir(parents=True, exist_ok=True)
        self.model_name = model_name
        self.observers = observers if observers is not None else ObserverList()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.candidate: _Candidate | None = None
        self.probation: _Probation | None = None
        self._last_export = -1
        self._recovery_due: int | None = None
        self._production_auc: list[float] = []
        self._production_logloss: list[float] = []
        self.events: list[PromotionEvent] = []

    # ------------------------------------------------------------------
    # Signals from the loop
    # ------------------------------------------------------------------
    def note_drift(self, window: int) -> None:
        """A drift alarm fired; schedule a recovery export."""
        if self._recovery_due is None:
            self._recovery_due = window + self.config.recovery_windows

    def step(self, window: int, learner_model, data: CTRDataset,
             production: EvalResult) -> list[PromotionEvent]:
        """Advance the controller by one served window.

        Returns the promotion events emitted this window (the loop rebases
        the drift monitor on ``promoted``/``rollback``).
        """
        emitted: list[PromotionEvent] = []
        self._production_auc.append(production.auc)
        self._production_logloss.append(production.logloss)
        if self.probation is not None:
            emitted += self._watch_probation(window, production)
        if self.candidate is not None:
            emitted += self._shadow_step(window, data)
        if self.candidate is None and self.probation is None:
            if self._export_due(window):
                emitted += self._export(window, learner_model)
        self.events.extend(emitted)
        return emitted

    # ------------------------------------------------------------------
    # Export / publish / shadow
    # ------------------------------------------------------------------
    def _export_due(self, window: int) -> bool:
        if self._recovery_due is not None and window >= self._recovery_due:
            return True
        cfg = self.config
        if cfg.export_every > 0:
            anchor = self._last_export if self._last_export >= 0 else 0
            return window - anchor >= cfg.export_every
        return False

    def _export(self, window: int, learner_model) -> list[PromotionEvent]:
        reason = ("drift_recovery" if self._recovery_due is not None
                  else "schedule")
        path = self.export_dir / f"candidate-w{window}"
        export_artifact(learner_model, path, model_name=self.model_name,
                        metadata={"exported_at_window": window,
                                  "reason": reason})
        version = self.registry.publish(path)
        session = InferenceSession.load(self.registry.path(version))
        self.registry.set_shadow(version)
        self.router.set_shadow(session, version)
        self.candidate = _Candidate(version=version, session=session,
                                    published_window=window)
        self._last_export = window
        self._recovery_due = None
        self.metrics.counter("stream.candidates.published").inc()
        return [self._emit(PromotionEvent(window=window, action="published",
                                          version=version, reason=reason))]

    # ------------------------------------------------------------------
    # Shadow scoring and the verdict
    # ------------------------------------------------------------------
    def _shadow_step(self, window: int, data: CTRDataset
                     ) -> list[PromotionEvent]:
        cand = self.candidate
        probs = cand.session.probabilities(
            cand.session.score_batch(data.as_single_batch()))
        cand.auc.append(auc_score(data.labels, probs))
        cand.logloss.append(logloss_score(data.labels, probs))
        self.metrics.gauge("stream.candidate.auc").set(cand.auc[-1])
        if len(cand.auc) < self.config.shadow_windows:
            return []
        return self._verdict(window)

    def _verdict(self, window: int) -> list[PromotionEvent]:
        cfg = self.config
        cand = self.candidate
        k = len(cand.auc)
        cand_auc = sum(cand.auc) / k
        cand_ll = sum(cand.logloss) / k
        prod_auc = sum(self._production_auc[-k:]) / k
        prod_ll = sum(self._production_logloss[-k:]) / k
        beats_auc = cand_auc >= prod_auc + cfg.min_auc_gain
        within_ll = cand_ll <= prod_ll * cfg.max_logloss_ratio
        if beats_auc and within_ll:
            return [self._promote(window, cand, cand_auc, prod_auc)]
        self.registry.set_shadow(None)
        self.router.set_shadow(None, None)
        self.candidate = None
        self.metrics.counter("stream.candidates.rejected").inc()
        reason = (f"auc {cand_auc:.4f} vs production {prod_auc:.4f} "
                  f"(need +{cfg.min_auc_gain:g})" if not beats_auc else
                  f"logloss {cand_ll:.4f} exceeds "
                  f"{cfg.max_logloss_ratio:g}x production {prod_ll:.4f}")
        return [self._emit(PromotionEvent(
            window=window, action="rejected", version=cand.version,
            reason=reason, challenger_auc=cand_auc, production_auc=prod_auc))]

    def _promote(self, window: int, cand: _Candidate, cand_auc: float,
                 prod_auc: float) -> PromotionEvent:
        previous = self.registry.state().get("production")
        self.registry.promote(cand.version)   # atomic state flip
        self.router.set_shadow(None, None)
        self.router.deploy_primary(cand.session, cand.version)  # zero-drop
        self.candidate = None
        self.probation = _Probation(version=cand.version,
                                    previous_version=previous,
                                    promoted_window=window,
                                    baseline_auc=prod_auc)
        self.metrics.counter("stream.promotions").inc()
        return self._emit(PromotionEvent(
            window=window, action="promoted", version=cand.version,
            previous_version=previous, challenger_auc=cand_auc,
            production_auc=prod_auc))

    def force_promote(self, artifact: str | Path, window: int,
                      reason: str = "forced") -> PromotionEvent:
        """Publish and promote ``artifact`` bypassing every guardrail.

        Test/chaos hook: probation still opens, so a bad forced challenger is
        caught and rolled back by the regression monitor — the path the
        streaming smoke exercises.
        """
        baseline = self._recent_production_auc()
        version = self.registry.publish(artifact)
        session = InferenceSession.load(self.registry.path(version))
        previous = self.registry.state().get("production")
        self.registry.promote(version)
        self.router.deploy_primary(session, version)
        self.probation = _Probation(version=version,
                                    previous_version=previous,
                                    promoted_window=window,
                                    baseline_auc=baseline)
        self.metrics.counter("stream.promotions").inc()
        event = self._emit(PromotionEvent(
            window=window, action="promoted", version=version,
            reason=reason, previous_version=previous,
            production_auc=baseline))
        self.events.append(event)
        return event

    def _recent_production_auc(self) -> float:
        k = min(len(self._production_auc), self.config.shadow_windows)
        if k == 0:
            return 0.5
        return sum(self._production_auc[-k:]) / k

    # ------------------------------------------------------------------
    # Probation / rollback
    # ------------------------------------------------------------------
    def _watch_probation(self, window: int, production: EvalResult
                         ) -> list[PromotionEvent]:
        prob = self.probation
        prob.auc.append(production.auc)
        if len(prob.auc) < self.config.rollback_windows:
            return []
        mean_auc = sum(prob.auc) / len(prob.auc)
        self.probation = None
        if mean_auc >= prob.baseline_auc - self.config.rollback_auc_drop:
            return []   # probation passed quietly
        if prob.previous_version is None:
            return [self._emit(PromotionEvent(
                window=window, action="rejected", version=prob.version,
                reason="regressed on probation but no previous version "
                       "exists to roll back to"))]
        session = InferenceSession.load(
            self.registry.path(prob.previous_version))
        self.registry.promote(prob.previous_version)
        self.router.deploy_primary(session, prob.previous_version)
        self.metrics.counter("stream.rollbacks").inc()
        return [self._emit(PromotionEvent(
            window=window, action="rollback", version=prob.version,
            previous_version=prob.previous_version,
            reason=f"prequential auc {mean_auc:.4f} fell below baseline "
                   f"{prob.baseline_auc:.4f} - "
                   f"{self.config.rollback_auc_drop:g}",
            production_auc=mean_auc))]

    def _emit(self, event: PromotionEvent) -> PromotionEvent:
        self.observers.emit(event)
        return event
