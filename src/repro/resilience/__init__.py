"""Crash-safe training: durable checkpoints, exact resume, anomaly recovery.

Three cooperating pieces (see DESIGN.md §"Resilience"):

* :mod:`.atomic` / :mod:`.sealed` / :mod:`.checkpoint` — atomic
  temp+fsync+rename writes; the sealed archive (arrays, then a record with a
  per-array SHA-256 seal and a digest of itself) that every durable format in
  the repo is written and read through; and the :class:`RunCheckpoint` (model,
  optimiser, RNG streams, loop counters) stored that way, which
  :class:`CheckpointStore` verifies on load, falling back past corrupt files.
* :mod:`.signals` — SIGINT/SIGTERM become "finish the step, checkpoint, exit
  cleanly" via :class:`GracefulInterrupt` / :class:`TrainingInterrupted`.
* :mod:`.anomaly` — :class:`AnomalyGuard` detects NaN/Inf losses and
  gradients and loss spikes, driving rollback + learning-rate backoff with a
  bounded retry budget.

``Trainer.fit(..., checkpoint_dir=..., resume=True, anomaly_guard=True)``
wires them together; a resumed run continues bit-identically to an
uninterrupted one.
"""

from .anomaly import (
    AnomalyGuard,
    AnomalyGuardConfig,
    AnomalySignal,
    NumericalAnomalyError,
)
from .atomic import (
    atomic_write,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
)
from .checkpoint import (
    FORMAT_VERSION,
    CheckpointCorruptError,
    CheckpointStore,
    RunCheckpoint,
)
from .rngstate import (
    named_rng_states,
    restore_rng_states,
    rng_state,
    set_rng_state,
)
from .sealed import SealError, array_digest
from .signals import GracefulInterrupt, TrainingInterrupted

__all__ = [
    "atomic_write", "atomic_write_bytes", "atomic_write_json",
    "atomic_write_npz",
    "RunCheckpoint", "CheckpointStore", "CheckpointCorruptError",
    "FORMAT_VERSION", "SealError", "array_digest",
    "named_rng_states", "restore_rng_states", "rng_state", "set_rng_state",
    "AnomalyGuard", "AnomalyGuardConfig", "AnomalySignal",
    "NumericalAnomalyError",
    "GracefulInterrupt", "TrainingInterrupted",
]
