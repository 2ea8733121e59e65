"""Windowed drift detection: PSI / KL on distributions, Page-Hinkley on means.

The online loop watches each served window and compares it against a frozen
reference established over the first ``reference_windows`` windows:

* the **score distribution** (production model probabilities) via PSI —
  interest drift moves candidates into regions the model scores differently;
* the **label distribution** (click rate) via KL on the binary histogram —
  inert on artificially balanced pos/neg pairs, but the standard guard for
  real click logs whose base CTR moves;
* the **feature distribution** (candidate item ids, binned) via PSI —
  exported as a metric and alarmed only at a conservative threshold, because
  *per-user* interest drift is invisible in aggregate: when every user moves
  to a different topic, the aggregate item mix barely changes;
* the **prequential logloss** via a Page-Hinkley mean-shift test — the
  catch-all and in practice the fastest detector: any change that makes
  production predictions worse raises the mean per-window loss.

Histogram detectors (PSI/KL) are gated on ``consecutive`` windows above
threshold before alarming: with a few hundred rows per window a single-window
PSI estimate is noisy enough to spike spuriously, while genuine drift stays
elevated window after window.  Page-Hinkley needs no gating — its statistic
is already cumulative.

Detectors only see served traffic (scores, labels, losses) — never the
simulator's ground-truth ``injected`` flags — so the detection latency
``tests/test_streaming.py`` pins per scenario is honest.  After the loop has recovered (new model
promoted), call :meth:`DriftMonitor.rebase` so the reference tracks the new
regime instead of alarming forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["psi", "kl_divergence", "score_histogram", "feature_histogram",
           "PageHinkley", "DriftSignal", "DriftMonitorConfig", "DriftMonitor"]

_EPS = 1e-6

#: Fixed probability-bin edges shared by reference and candidate windows.
SCORE_BIN_EDGES = np.linspace(0.0, 1.0, 11)

#: Number of id-range buckets for feature (categorical id) histograms.
FEATURE_BINS = 16


def score_histogram(probabilities: np.ndarray) -> np.ndarray:
    """Normalised 10-bin histogram of probabilities over [0, 1]."""
    counts, _ = np.histogram(np.clip(probabilities, 0.0, 1.0),
                             bins=SCORE_BIN_EDGES)
    total = counts.sum()
    if total == 0:
        return np.full(counts.size, 1.0 / counts.size)
    return counts / total


def feature_histogram(ids: np.ndarray, vocab_size: int,
                      bins: int = FEATURE_BINS) -> np.ndarray:
    """Normalised histogram of categorical ids over equal-width id buckets."""
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    bins = min(bins, vocab_size)
    counts, _ = np.histogram(np.asarray(ids), bins=bins,
                             range=(0, vocab_size))
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


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) between two normalised histograms, epsilon-smoothed."""
    p = np.asarray(p, dtype=np.float64) + _EPS
    q = np.asarray(q, dtype=np.float64) + _EPS
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))


class PageHinkley:
    """Page-Hinkley test for an upward shift in a streaming mean.

    Tracks the cumulative deviation of observations from their running mean;
    alarms when the deviation climbs ``threshold`` above its historical
    minimum.  ``delta`` is the magnitude of change considered negligible,
    ``min_observations`` suppresses alarms before the mean estimate settles.
    """

    def __init__(self, delta: float = 0.005, threshold: float = 0.1,
                 min_observations: int = 5):
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        self.delta = delta
        self.threshold = threshold
        self.min_observations = min_observations
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
        self._cumulative += value - self._mean - self.delta
        self._minimum = min(self._minimum, self._cumulative)
        if self._count < self.min_observations:
            return False
        return self.statistic > self.threshold


@dataclass
class DriftSignal:
    """One detector firing on one window."""

    window: int
    detector: str   # score_psi | label_kl | feature_psi | logloss_shift
    value: float
    threshold: float

    def payload(self) -> dict:
        return {"window": int(self.window), "detector": self.detector,
                "value": float(self.value), "threshold": float(self.threshold)}


@dataclass(frozen=True)
class DriftMonitorConfig:
    """Thresholds and reference-window policy of the drift monitor."""

    reference_windows: int = 5
    score_psi_threshold: float = 0.2
    label_kl_threshold: float = 0.1
    feature_psi_threshold: float = 0.5
    consecutive: int = 2        # windows above threshold before a PSI/KL alarm
    ph_delta: float = 0.005
    ph_threshold: float = 0.1
    cooldown_windows: int = 5   # windows to stay silent after an alarm

    def __post_init__(self):
        if self.reference_windows < 1:
            raise ValueError("reference_windows must be >= 1")
        if self.consecutive < 1:
            raise ValueError("consecutive must be >= 1")
        if self.cooldown_windows < 0:
            raise ValueError("cooldown_windows must be >= 0")


class DriftMonitor:
    """Accumulates a frozen reference, then alarms on departures from it."""

    def __init__(self, config: DriftMonitorConfig | None = None):
        self.config = config or DriftMonitorConfig()
        self._page_hinkley = PageHinkley(
            delta=self.config.ph_delta, threshold=self.config.ph_threshold,
            min_observations=self.config.reference_windows)
        self.signals: list[DriftSignal] = []
        #: Latest per-detector statistics (exported as ``stream.drift.*``
        #: gauges by the loop even when nothing alarms).
        self.last_stats: dict[str, float] = {}
        self._reset_reference()

    def _reset_reference(self) -> None:
        self._ref_scores: list[np.ndarray] = []
        self._ref_labels: list[np.ndarray] = []
        self._ref_features: list[np.ndarray] = []
        self._score_ref: np.ndarray | None = None
        self._label_ref: np.ndarray | None = None
        self._feature_ref: np.ndarray | None = None
        self._streak: dict[str, int] = {}
        self._cooldown = 0

    @property
    def has_reference(self) -> bool:
        return self._score_ref is not None

    def rebase(self) -> None:
        """Forget the reference; the next ``reference_windows`` rebuild it.

        Called after recovery (a new model promoted) so the monitor measures
        the *new* regime instead of alarming on the old one forever.
        """
        self._reset_reference()
        self._page_hinkley.reset()

    @staticmethod
    def _label_histogram(labels: np.ndarray) -> np.ndarray:
        rate = float(np.mean(labels)) if labels.size else 0.5
        return np.array([1.0 - rate, rate])

    def _gated(self, window: int, detector: str, value: float,
               threshold: float) -> DriftSignal | None:
        """Alarm once ``value`` has topped ``threshold`` for ``consecutive``
        windows in a row."""
        if value > threshold:
            self._streak[detector] = self._streak.get(detector, 0) + 1
        else:
            self._streak[detector] = 0
        if self._streak[detector] >= self.config.consecutive:
            return DriftSignal(window, detector, value, threshold)
        return None

    def update(self, window: int, probabilities: np.ndarray,
               labels: np.ndarray, logloss: float,
               feature_histogram_: np.ndarray | None = None
               ) -> list[DriftSignal]:
        """Feed one served window; returns the signals that fired on it.

        ``feature_histogram_`` is an optional pre-binned categorical-feature
        histogram (see :func:`feature_histogram`); pass the same binning
        every window.
        """
        cfg = self.config
        score_hist = score_histogram(probabilities)
        label_hist = self._label_histogram(labels)
        if self._score_ref is None:
            self._ref_scores.append(score_hist)
            self._ref_labels.append(label_hist)
            if feature_histogram_ is not None:
                self._ref_features.append(feature_histogram_)
            if len(self._ref_scores) >= cfg.reference_windows:
                self._score_ref = np.mean(self._ref_scores, axis=0)
                self._label_ref = np.mean(self._ref_labels, axis=0)
                if self._ref_features:
                    self._feature_ref = np.mean(self._ref_features, axis=0)
            # The mean tracker warms up alongside the reference.
            self._page_hinkley.update(logloss)
            return []
        stats = {
            "score_psi": psi(self._score_ref, score_hist),
            "label_kl": kl_divergence(label_hist, self._label_ref),
        }
        if feature_histogram_ is not None and self._feature_ref is not None:
            stats["feature_psi"] = psi(self._feature_ref, feature_histogram_)
        ph_alarm = self._page_hinkley.update(logloss)
        stats["logloss_shift"] = self._page_hinkley.statistic
        self.last_stats = stats
        candidates: list[DriftSignal] = []
        for detector, threshold in (
                ("score_psi", cfg.score_psi_threshold),
                ("label_kl", cfg.label_kl_threshold),
                ("feature_psi", cfg.feature_psi_threshold)):
            if detector not in stats:
                continue
            signal_ = self._gated(window, detector, stats[detector],
                                  threshold)
            if signal_ is not None:
                candidates.append(signal_)
        if ph_alarm:
            candidates.append(DriftSignal(window, "logloss_shift",
                                          stats["logloss_shift"],
                                          cfg.ph_threshold))
        if self._cooldown > 0:
            self._cooldown -= 1
            return []
        if candidates:
            self._cooldown = cfg.cooldown_windows
            self.signals.extend(candidates)
        return candidates
