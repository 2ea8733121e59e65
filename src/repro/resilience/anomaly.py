"""Numerical anomaly detection and recovery policy for training runs.

Long CTR runs die in one of three numerical ways: the loss goes NaN/Inf, a
gradient blows up to non-finite, or the loss spikes by orders of magnitude
(usually one step before the NaN).  :class:`AnomalyGuard` watches all three.
When one fires, the trainer rolls model + optimiser + RNG streams back to the
last good checkpoint, multiplies the learning rate by :data:`BACKOFF_FACTOR`,
and retries — up to :data:`MAX_RETRIES` times across the run before giving up
with :class:`NumericalAnomalyError`.  Every detection and rollback is narrated
on the ``repro.obs`` event bus (``anomaly_detected`` /
``checkpoint_restored``).

The policy is these module constants, read at call time; a run arms the
guard or does not (``anomaly_guard=True``), and sets nothing else.
"""

from __future__ import annotations

import math
from pathlib import Path

from .checkpoint import RunCheckpoint

__all__ = ["AnomalyGuard", "AnomalySignal", "NumericalAnomalyError"]

#: Total anomalies tolerated per run before raising.
MAX_RETRIES = 3
#: Learning-rate multiplier applied on every rollback.
BACKOFF_FACTOR = 0.5
#: A loss above ``SPIKE_FACTOR`` × its EMA counts as an anomaly.
SPIKE_FACTOR = 25.0
#: Healthy steps folded into the EMA before spike detection arms.
SPIKE_WARMUP = 20
#: Decay of the loss EMA that spike detection compares against.
EMA_DECAY = 0.98


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


class AnomalyGuard:
    """Detects numerical anomalies and tracks the rollback target/budget."""

    def __init__(self):
        self.retries = 0
        self.last_good: RunCheckpoint | None = None
        self.last_good_path: Path | None = None
        # Spike-detection state; checkpointed, so a resume keeps it.
        self.ema: float | None = None
        self.steps_seen = 0

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def check_loss(self, value: float) -> str | None:
        """Anomaly kind for this loss value, or None if it looks healthy."""
        if not math.isfinite(value):
            return "non_finite_loss"
        if (
            self.ema is not None
            and self.steps_seen >= SPIKE_WARMUP
            and value > SPIKE_FACTOR * max(self.ema, 1e-12)
        ):
            return "loss_spike"
        return None

    def check_grad_norm(self, norm: float) -> str | None:
        return None if math.isfinite(norm) else "non_finite_grad"

    def record(self, value: float) -> None:
        """Fold a healthy step's loss into the spike-detection EMA (seeded
        with the first loss, no bias correction)."""
        self.ema = (
            value
            if self.ema is None
            else EMA_DECAY * self.ema + (1.0 - EMA_DECAY) * value
        )
        self.steps_seen += 1

    def reset_stats(self) -> None:
        """Forget the EMA after a rollback (the loss scale may shift)."""
        self.ema = None
        self.steps_seen = 0

    # ------------------------------------------------------------------
    # Rollback target
    # ------------------------------------------------------------------
    def snapshot(self, ckpt: RunCheckpoint, path: "Path | str | None" = None) -> None:
        """Remember ``ckpt`` as the rollback target (kept in memory)."""
        self.last_good = ckpt
        self.last_good_path = Path(path) if path is not None else None

    @property
    def retries_remaining(self) -> int:
        return max(MAX_RETRIES - self.retries, 0)
