"""Streaming online learning: click stream → incremental training →
drift detection → automatic promotion into the serving registry.

See DESIGN.md §14.  The pieces compose left to right:

* :class:`ClickStream` — InterestWorld in temporal mode: timestamped
  micro-batch windows in the offline processed id space, with configurable
  interest drift, cold-user arrival, and window-invariant label-noise bursts;
* :class:`IncrementalTrainer` — prequential (evaluate-then-train) consumer,
  warm-started from a registry artifact, checkpointed per window;
* :class:`DriftMonitor` — PSI on the score distribution plus a
  Page-Hinkley mean-shift test on prequential logloss;
* :class:`PromotionController` — exports candidates, publishes to the
  :class:`~repro.serving.registry.ModelRegistry`, shadows them on the live
  :class:`~repro.serving.router.ModelRouter`, promotes under guardrails, and
  rolls back regressions caught on probation;
* :class:`OnlineLoop` — the per-window orchestration of all of the above.
"""

from .drift import (
    DriftMonitor,
    DriftMonitorConfig,
    DriftSignal,
    PageHinkley,
    psi,
    score_histogram,
)
from .incremental import IncrementalConfig, IncrementalTrainer, WindowResult
from .loop import OnlineLoop, StreamResult
from .promotion import PromotionConfig, PromotionController
from .stream import ClickStream, StreamConfig, StreamWindow

__all__ = [
    "ClickStream", "StreamConfig", "StreamWindow",
    "DriftMonitor", "DriftMonitorConfig", "DriftSignal", "PageHinkley",
    "psi", "score_histogram",
    "IncrementalConfig", "IncrementalTrainer", "WindowResult",
    "PromotionConfig", "PromotionController",
    "OnlineLoop", "StreamResult",
]
