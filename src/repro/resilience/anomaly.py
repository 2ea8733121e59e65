"""Numerical anomaly detection and recovery policy for training runs.

Long CTR runs die in one of three numerical ways: the loss goes NaN/Inf, a
gradient blows up to non-finite, or the loss spikes by orders of magnitude
(usually one step before the NaN).  :class:`AnomalyGuard` watches all three.
When one fires, the trainer rolls model + optimiser + RNG streams back to the
last good checkpoint, multiplies the learning rate by ``backoff_factor``, and
retries — up to ``max_retries`` times across the run before giving up with
:class:`NumericalAnomalyError`.  Every detection and rollback is narrated on
the ``repro.obs`` event bus (``anomaly_detected`` / ``checkpoint_restored``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .checkpoint import RunCheckpoint

__all__ = ["AnomalyGuardConfig", "AnomalyGuard", "AnomalySignal",
           "NumericalAnomalyError"]


class NumericalAnomalyError(RuntimeError):
    """Raised when the anomaly retry budget is exhausted."""


class AnomalySignal(Exception):
    """Internal control-flow signal: a training step hit an anomaly.

    Raised by :mod:`repro.training.step` *before* the optimiser applies a
    bad update and caught by the driving loop, which hands it to
    ``RunState.recover`` (the run state knows which step it was); never
    leaves the trainer.
    """

    def __init__(self, kind: str, value: float):
        super().__init__(f"{kind} (value={value!r})")
        self.kind = kind
        self.value = value


@dataclass(frozen=True)
class AnomalyGuardConfig:
    """Policy knobs for :class:`AnomalyGuard`."""

    #: Total anomalies tolerated per run before raising.
    max_retries: int = 3
    #: Learning-rate multiplier applied on every rollback.
    backoff_factor: float = 0.5
    #: Loss > ``spike_factor`` × its EMA counts as an anomaly; None disables.
    spike_factor: float | None = 25.0
    #: Steps of EMA warm-up before spike detection arms.
    spike_warmup: int = 20
    #: Also flag non-finite gradient norms (caught before the update applies).
    check_gradients: bool = True
    #: Decay of the loss EMA used by spike detection.
    ema_decay: float = 0.98

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 < self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be in (0, 1)")
        if self.spike_factor is not None and self.spike_factor <= 1.0:
            raise ValueError("spike_factor must be > 1")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must be in (0, 1)")


class AnomalyGuard:
    """Detects numerical anomalies and tracks the rollback target/budget."""

    def __init__(self, config: AnomalyGuardConfig | None = None):
        self.config = config or AnomalyGuardConfig()
        self.retries = 0
        self.last_good: RunCheckpoint | None = None
        self.last_good_path: Path | None = None
        self._ema: float | None = None
        self._steps_seen = 0

    @classmethod
    def build(cls, spec: "AnomalyGuard | AnomalyGuardConfig | bool | None"
              ) -> "AnomalyGuard | None":
        """Normalise the trainer's ``anomaly_guard`` argument."""
        if spec is None or spec is False:
            return None
        if isinstance(spec, AnomalyGuard):
            return spec
        if isinstance(spec, AnomalyGuardConfig):
            return cls(spec)
        if spec is True:
            return cls()
        raise TypeError(f"anomaly_guard must be a bool, AnomalyGuardConfig, "
                        f"or AnomalyGuard, got {type(spec).__name__}")

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def check_loss(self, value: float) -> str | None:
        """Anomaly kind for this loss value, or None if it looks healthy."""
        if not math.isfinite(value):
            return "non_finite_loss"
        cfg = self.config
        if (cfg.spike_factor is not None and self._ema is not None
                and self._steps_seen >= cfg.spike_warmup
                and value > cfg.spike_factor * max(self._ema, 1e-12)):
            return "loss_spike"
        return None

    def check_grad_norm(self, norm: float) -> str | None:
        if self.config.check_gradients and not math.isfinite(norm):
            return "non_finite_grad"
        return None

    def record(self, value: float) -> None:
        """Fold a healthy step's loss into the spike-detection EMA."""
        decay = self.config.ema_decay
        self._ema = value if self._ema is None else (
            decay * self._ema + (1.0 - decay) * value)
        self._steps_seen += 1

    def reset_stats(self) -> None:
        """Forget the EMA after a rollback (the loss scale may shift)."""
        self._ema = None
        self._steps_seen = 0

    # ------------------------------------------------------------------
    # Rollback target
    # ------------------------------------------------------------------
    def snapshot(self, ckpt: RunCheckpoint,
                 path: "Path | str | None" = None) -> None:
        """Remember ``ckpt`` as the rollback target (kept in memory)."""
        self.last_good = ckpt
        self.last_good_path = Path(path) if path is not None else None

    @property
    def retries_remaining(self) -> int:
        return max(self.config.max_retries - self.retries, 0)

    def state(self) -> dict[str, Any]:
        return {"retries": self.retries}
