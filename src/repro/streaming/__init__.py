"""Streaming online learning: click stream → incremental training →
drift detection → automatic promotion into the serving registry.

See DESIGN.md §14.  The pieces compose left to right:

* :class:`ClickStream` — InterestWorld in temporal mode: timestamped
  micro-batch windows in the offline processed id space, with the interest
  drift, cold-user arrival, and window-invariant label-noise bursts
  scheduled by its :class:`StreamConfig`;
* :class:`IncrementalTrainer` — prequential (evaluate-then-train) consumer,
  warm-started from a registry artifact, checkpointed per window; its
  :class:`IncrementalConfig` sets the learning rate and seed only;
* :class:`DriftMonitor` — PSI on the score distribution plus a
  Page-Hinkley mean-shift test on prequential logloss, thresholds as
  :mod:`.drift` module constants;
* :class:`PromotionController` — exports candidates every ``export_every``
  windows or after a drift alarm, publishes them to the
  :class:`~repro.serving.registry.ModelRegistry`, shadows them on the live
  :class:`~repro.serving.router.ModelRouter`, promotes under fixed
  guardrails, and rolls back regressions caught on probation;
* :class:`OnlineLoop` — the per-window orchestration of all of the above.
"""

from .drift import (
    DriftMonitor,
    DriftSignal,
    PageHinkley,
    psi,
    score_histogram,
)
from .incremental import IncrementalConfig, IncrementalTrainer, WindowResult
from .loop import OnlineLoop, StreamResult
from .promotion import PromotionController
from .stream import ClickStream, StreamConfig, StreamWindow

__all__ = [
    "ClickStream", "StreamConfig", "StreamWindow",
    "DriftMonitor", "DriftSignal", "PageHinkley",
    "psi", "score_histogram",
    "IncrementalConfig", "IncrementalTrainer", "WindowResult",
    "PromotionController",
    "OnlineLoop", "StreamResult",
]
