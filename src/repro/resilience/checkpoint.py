"""Durable run checkpoints: full training state, checksummed and atomic.

A :class:`RunCheckpoint` captures everything ``Trainer.fit`` needs to continue
a run bit-identically: model weights, best-so-far weights, optimiser moments,
the data-loader RNG state at the start of the current epoch, every module-level
RNG state, all loop counters (epoch, step, early stopping, loss
accumulators) and the anomaly guard's retry count and spike EMA.
:class:`CheckpointStore` persists a checkpoint as a sealed archive
(:mod:`.sealed`; formats in DESIGN.md §8): ``ckpt-<step>.npz`` first, then
``ckpt-<step>.json``, the commit record that seals every array and digests
itself.  An ``.npz`` without its record is an unfinished write and is
ignored; a checkpoint that fails any check on load is rejected with
:class:`CheckpointCorruptError` and ``load_latest`` falls back to the previous
valid one.  Retention keeps the last *K* checkpoints plus the most recent one
flagged as best.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .sealed import SealError, fields_of, read_arrays, read_record, write_sealed

__all__ = ["RunCheckpoint", "CheckpointStore", "CheckpointCorruptError",
           "FORMAT_VERSION"]

FORMAT_VERSION = 1


class CheckpointCorruptError(ValueError):
    """A checkpoint on disk failed checksum/structure validation."""


@dataclass
class RunCheckpoint:
    """Complete, restorable snapshot of one point in a training run.

    The fields are the one declaration of a run's durable state.  Every
    field outside :data:`_CONVERTED` is written to the record under its own
    name and read back the same way; a field without a default is required
    on disk, a field with one falls back to it when an older record lacks
    the key.  Adding state is adding a field here, plus a conversion only
    when its disk form or its place in ``RunState`` differs.
    """

    model_state: dict[str, np.ndarray]
    optimizer_state: dict[str, Any]
    loader_rng_state: dict[str, Any]
    epoch: int
    batches_done: int
    step: int
    best_auc: float
    best_epoch: int
    bad_epochs: int
    module_rng_states: dict[str, dict[str, Any]] = field(default_factory=dict)
    best_state: dict[str, np.ndarray] | None = None
    history: list[dict[str, float]] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)
    epoch_loss: float = 0.0
    num_batches: int = 0
    component_sums: dict[str, float] = field(default_factory=dict)
    epochs_run: int = 0
    anomaly_retries: int = 0
    anomaly_ema: float | None = None
    anomaly_steps_seen: int = 0
    config: dict[str, Any] = field(default_factory=dict)
    completed: bool = False

    def arrays(self) -> dict[str, np.ndarray]:
        """Flatten all array payloads under ``model/``, ``best/``, ``optim/``."""
        out = {f"model/{name}": arr for name, arr in self.model_state.items()}
        if self.best_state is not None:
            out.update({f"best/{name}": arr
                        for name, arr in self.best_state.items()})
        out.update({f"optim/{name}": arr
                    for name, arr in self.optimizer_state.get("arrays", {}).items()})
        return out

    def meta(self) -> dict[str, Any]:
        """JSON-safe scalar state (everything except the arrays)."""
        best_auc = float(self.best_auc)
        return {
            "format_version": FORMAT_VERSION,
            **{name: _plain(getattr(self, name)) for name, _ in _RECORD_FIELDS},
            "best_auc": best_auc if np.isfinite(best_auc) else None,
            "has_best": self.best_state is not None,
            "optimizer": {k: v for k, v in self.optimizer_state.items()
                          if k != "arrays"},
        }


#: Fields not stored under their own name: the arrays ride in the ``.npz``
#: (with ``has_best`` and the ``optimizer`` entry in the record), and
#: ``best_auc``'s -inf is JSON ``null``.
_CONVERTED = {"model_state", "optimizer_state", "best_state", "best_auc"}

#: ``(name, required)`` of every field stored under its own name; required
#: means no default, so a record without the key is corrupt.
_RECORD_FIELDS = [
    (f.name, f.default is MISSING and f.default_factory is MISSING)
    for f in fields(RunCheckpoint) if f.name not in _CONVERTED]


def _plain(value: Any) -> Any:
    """``value`` with numpy scalars turned into Python ones, for JSON."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class CheckpointStore:
    """Atomic, checksummed, retention-managed checkpoint directory."""

    def __init__(self, directory: str | Path, keep_last: int = 3):
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------
    def manifests(self) -> list[Path]:
        """Committed checkpoint manifests, sorted by ascending step."""
        return sorted(self.directory.glob("ckpt-*.json"))

    def _paths(self, step: int) -> tuple[Path, Path]:
        base = f"ckpt-{step:010d}"
        return (self.directory / f"{base}.npz",
                self.directory / f"{base}.json")

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, ckpt: RunCheckpoint, is_best: bool = False) -> Path:
        """Write ``ckpt`` durably; returns the manifest path."""
        npz_path, json_path = self._paths(ckpt.step)
        write_sealed(npz_path, json_path, ckpt.arrays(),
                     {**ckpt.meta(), "is_best": bool(is_best)},
                     seal_key="manifest")
        self._apply_retention()
        return json_path

    def _apply_retention(self) -> None:
        manifests = self.manifests()
        if len(manifests) <= self.keep_last:
            return
        keep = set(manifests[-self.keep_last:])
        # Never drop the newest checkpoint flagged best: it holds the weights
        # the run would ship if it ended now.  The scan stops at the newest
        # best even when it already sits inside the keep-last window — older
        # best-flagged checkpoints are superseded and age out with the rest.
        for path in reversed(manifests):
            try:
                is_best = bool(read_record(path, FORMAT_VERSION).get("is_best"))
            except SealError:
                continue
            if is_best:
                keep.add(path)
                break
        for path in manifests:
            if path not in keep:
                path.unlink(missing_ok=True)
                path.with_suffix(".npz").unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self, manifest_path: str | Path) -> RunCheckpoint:
        """Load and fully verify one checkpoint; raises on any corruption."""
        manifest_path = Path(manifest_path)
        try:
            meta = read_record(manifest_path, FORMAT_VERSION,
                               seal_key="manifest")
            arrays = read_arrays(manifest_path.with_suffix(".npz"),
                                 meta["manifest"])
            with fields_of(manifest_path):
                return self._rebuild(meta, arrays)
        except SealError as exc:
            raise CheckpointCorruptError(str(exc)) from exc

    @staticmethod
    def _rebuild(meta: dict[str, Any],
                 arrays: dict[str, np.ndarray]) -> RunCheckpoint:
        def split(prefix: str) -> dict[str, np.ndarray]:
            plen = len(prefix)
            return {name[plen:]: arr for name, arr in arrays.items()
                    if name.startswith(prefix)}

        best_auc = meta.get("best_auc")
        return RunCheckpoint(
            model_state=split("model/"),
            optimizer_state={**meta.get("optimizer", {}),
                             "arrays": split("optim/")},
            best_auc=float("-inf") if best_auc is None else float(best_auc),
            best_state=split("best/") if meta.get("has_best") else None,
            **{name: meta[name] for name, required in _RECORD_FIELDS
               if required or name in meta},
        )

    def load_step(self, step: int) -> RunCheckpoint:
        """Load (and fully verify) the checkpoint written at exactly ``step``.

        Distributed resume needs this: every rank must restore the *same
        committed* global step named by the rank-0 manifest, not whatever
        its own newest file happens to be — a rank that checkpointed one
        step further before the crash would otherwise silently diverge.
        """
        _, manifest_path = self._paths(step)
        if not manifest_path.exists():
            raise CheckpointCorruptError(
                f"{self.directory}: no checkpoint manifest for step {step} "
                f"({manifest_path.name} missing)")
        return self.load(manifest_path)

    def has_step(self, step: int) -> bool:
        """Whether a committed manifest exists for ``step`` (no validation)."""
        return self._paths(step)[1].exists()

    def load_latest(self) -> tuple[RunCheckpoint | None, Path | None,
                                   list[tuple[Path, str]]]:
        """Newest valid checkpoint, skipping corrupt ones.

        Returns ``(checkpoint, manifest_path, skipped)`` where ``skipped``
        lists ``(path, reason)`` for every newer checkpoint that failed
        validation; ``(None, None, skipped)`` if nothing valid exists.
        """
        skipped: list[tuple[Path, str]] = []
        for manifest_path in reversed(self.manifests()):
            try:
                return self.load(manifest_path), manifest_path, skipped
            except CheckpointCorruptError as exc:
                skipped.append((manifest_path, str(exc)))
        return None, None, skipped
