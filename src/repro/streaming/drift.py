"""Windowed drift detection: score PSI and Page-Hinkley on logloss.

The online loop watches each served window and compares it against a frozen
reference established over the first :data:`REFERENCE_WINDOWS` windows:

* the **score distribution** (production model probabilities) via PSI —
  interest drift and cold users move candidates into regions the model
  scores differently;
* the **prequential logloss** via a Page-Hinkley mean-shift test — the
  catch-all and in practice the fastest detector: any change that makes
  production predictions worse raises the mean per-window loss.

Score PSI is gated on :data:`PSI_CONSECUTIVE` windows above threshold before
alarming: with a few hundred rows per window a single-window PSI estimate is
noisy enough to spike spuriously, while genuine drift stays elevated window
after window.  Page-Hinkley needs no gating — its statistic is already
cumulative.

Detectors only see served traffic (scores and losses) — never the
simulator's ground-truth ``injected`` flags — so the detection latency
``tests/test_streaming.py`` pins per scenario is honest.  After the loop has
recovered (new model promoted), call :meth:`DriftMonitor.rebase` so the
reference tracks the new regime instead of alarming forever.

The thresholds are module constants, read at call time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["psi", "score_histogram", "PageHinkley", "DriftSignal", "DriftMonitor"]

_EPS = 1e-6

#: Fixed probability-bin edges shared by reference and candidate windows.
SCORE_BIN_EDGES = np.linspace(0.0, 1.0, 11)

#: Windows that build the frozen score reference; Page-Hinkley's mean
#: warms up over the same windows and cannot alarm before it has seen them.
REFERENCE_WINDOWS = 5
#: Score PSI above this counts a window toward an alarm.
SCORE_PSI_THRESHOLD = 0.2
#: Consecutive windows above the PSI threshold before a PSI alarm.
PSI_CONSECUTIVE = 2
#: Page-Hinkley's tolerated per-window logloss drift (its ``delta``).
PH_DELTA = 0.005
#: Page-Hinkley alarms when its statistic exceeds this.
PH_THRESHOLD = 0.1
#: Windows the monitor stays silent after an alarm.
COOLDOWN_WINDOWS = 5


def score_histogram(probabilities: np.ndarray) -> np.ndarray:
    """Normalised 10-bin histogram of probabilities over [0, 1]."""
    counts, _ = np.histogram(np.clip(probabilities, 0.0, 1.0), bins=SCORE_BIN_EDGES)
    total = counts.sum()
    if total == 0:
        return np.full(counts.size, 1.0 / counts.size)
    return counts / total


def psi(expected: np.ndarray, actual: np.ndarray) -> float:
    """Population stability index between two normalised histograms.

    Rule-of-thumb scale: < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 major
    shift.  Bins are epsilon-smoothed so an empty bin cannot blow up the sum.
    """
    e = np.asarray(expected, dtype=np.float64) + _EPS
    a = np.asarray(actual, dtype=np.float64) + _EPS
    e = e / e.sum()
    a = a / a.sum()
    return float(np.sum((a - e) * np.log(a / e)))


class PageHinkley:
    """Page-Hinkley test for an upward shift in a streaming mean.

    Tracks the cumulative deviation of observations from their running mean;
    alarms when the deviation climbs :data:`PH_THRESHOLD` above its historical
    minimum.  :data:`PH_DELTA` is the magnitude of change considered
    negligible; no alarm fires before :data:`REFERENCE_WINDOWS` observations,
    while the mean estimate settles.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0

    @property
    def statistic(self) -> float:
        """Current test statistic (cumulative deviation above its minimum)."""
        return self._cumulative - self._minimum

    def update(self, value: float) -> bool:
        """Feed one observation; True when an upward mean shift is detected."""
        self._count += 1
        self._mean += (value - self._mean) / self._count
        self._cumulative += value - self._mean - PH_DELTA
        self._minimum = min(self._minimum, self._cumulative)
        if self._count < REFERENCE_WINDOWS:
            return False
        return self.statistic > PH_THRESHOLD


@dataclass
class DriftSignal:
    """One detector firing on one window."""

    window: int
    detector: str  # score_psi | logloss_shift
    value: float
    threshold: float

    def payload(self) -> dict:
        return {
            "window": int(self.window),
            "detector": self.detector,
            "value": float(self.value),
            "threshold": float(self.threshold),
        }


class DriftMonitor:
    """Accumulates a frozen reference, then alarms on departures from it."""

    def __init__(self):
        self._page_hinkley = PageHinkley()
        #: Latest per-detector statistics (exported as ``stream.drift.*``
        #: gauges by the loop even when nothing alarms).
        self.last_stats: dict[str, float] = {}
        self._reset_reference()

    def _reset_reference(self) -> None:
        self._ref_scores: list[np.ndarray] = []
        self._score_ref: np.ndarray | None = None
        self._psi_streak = 0  # consecutive windows above the PSI threshold
        self._cooldown = 0

    @property
    def has_reference(self) -> bool:
        return self._score_ref is not None

    def rebase(self) -> None:
        """Forget the reference; the next :data:`REFERENCE_WINDOWS` rebuild it.

        Called after recovery (a new model promoted) so the monitor measures
        the *new* regime instead of alarming on the old one forever.
        """
        self._reset_reference()
        self._page_hinkley.reset()

    def update(
        self, window: int, probabilities: np.ndarray, logloss: float
    ) -> list[DriftSignal]:
        """Feed one served window; returns the signals that fired on it."""
        score_hist = score_histogram(probabilities)
        if self._score_ref is None:
            self._ref_scores.append(score_hist)
            if len(self._ref_scores) >= REFERENCE_WINDOWS:
                self._score_ref = np.mean(self._ref_scores, axis=0)
            # The mean tracker warms up alongside the reference.
            self._page_hinkley.update(logloss)
            return []
        score_psi = psi(self._score_ref, score_hist)
        ph_alarm = self._page_hinkley.update(logloss)
        self.last_stats = {
            "score_psi": score_psi,
            "logloss_shift": self._page_hinkley.statistic,
        }
        if score_psi > SCORE_PSI_THRESHOLD:
            self._psi_streak += 1
        else:
            self._psi_streak = 0
        candidates: list[DriftSignal] = []
        if self._psi_streak >= PSI_CONSECUTIVE:
            candidates.append(
                DriftSignal(window, "score_psi", score_psi, SCORE_PSI_THRESHOLD)
            )
        if ph_alarm:
            candidates.append(
                DriftSignal(
                    window,
                    "logloss_shift",
                    self.last_stats["logloss_shift"],
                    PH_THRESHOLD,
                )
            )
        if self._cooldown > 0:
            self._cooldown -= 1
            return []
        if candidates:
            self._cooldown = COOLDOWN_WINDOWS
        return candidates
