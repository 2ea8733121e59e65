"""Inference sessions: a frozen model plus everything needed to score rows.

:class:`InferenceSession` is the only way serving code touches a model.  It
loads an exported artifact (digest-verified), pins the model in eval mode,
and scores strictly under ``no_grad`` through the deterministic tiled
forward — so a session's logits are bit-identical to offline
``training.evaluate`` on the same rows, regardless of how requests were
batched.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..data.batching import Batch
from ..data.schema import DatasetSchema
from ..models.base import CTRModel
from ..nn import get_backend
from .artifact import ArtifactError, load_artifact
from .forward import PARITY_BLOCK, forward_logits, sigmoid
from .registry import manifest_digest

__all__ = ["InferenceSession", "rows_to_batch"]

#: ``"backend"`` values any export has ever written.
_EXPORTED_BACKENDS = ("reference", "fused")


def rows_to_batch(schema: DatasetSchema,
                  rows: Sequence[Mapping[str, Any]]) -> Batch:
    """Assemble request rows into a :class:`Batch`, validating shapes.

    Each row is a mapping with ``categorical`` (I ids), ``sequences``
    (J × L ids, front-padded with 0 like the training pipeline), and
    ``mask`` (L booleans).  Labels are unknown at serving time and filled
    with zeros; nothing on the inference path reads them.
    """
    if not rows:
        raise ValueError("rows must be non-empty")
    n = len(rows)
    i, j, t = schema.num_categorical, schema.num_sequential, schema.max_seq_len
    categorical = np.zeros((n, i), dtype=np.int64)
    sequences = np.zeros((n, j, t), dtype=np.int64)
    mask = np.zeros((n, t), dtype=bool)
    for r, row in enumerate(rows):
        try:
            cat = np.asarray(row["categorical"], dtype=np.int64)
            seq = np.asarray(row["sequences"], dtype=np.int64)
            msk = np.asarray(row["mask"]).astype(bool)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"row {r}: expected keys categorical/sequences/"
                             f"mask with integer content ({exc})") from exc
        if cat.shape != (i,):
            raise ValueError(f"row {r}: categorical has shape {cat.shape}, "
                             f"schema {schema.name!r} needs ({i},)")
        if seq.shape != (j, t):
            raise ValueError(f"row {r}: sequences has shape {seq.shape}, "
                             f"schema {schema.name!r} needs ({j}, {t})")
        if msk.shape != (t,):
            raise ValueError(f"row {r}: mask has shape {msk.shape}, "
                             f"schema {schema.name!r} needs ({t},)")
        for col, spec in enumerate(schema.categorical):
            if not 0 <= cat[col] < spec.vocab_size:
                raise ValueError(
                    f"row {r}: categorical field {spec.name!r} id "
                    f"{int(cat[col])} outside vocab [0, {spec.vocab_size})")
        for fld, spec in enumerate(schema.sequential):
            ids = seq[fld]
            if ids.min() < 0 or ids.max() >= spec.vocab_size:
                raise ValueError(
                    f"row {r}: sequential field {spec.name!r} contains ids "
                    f"outside vocab [0, {spec.vocab_size})")
        categorical[r], sequences[r], mask[r] = cat, seq, msk
    return Batch(categorical=categorical, sequences=sequences, mask=mask,
                 labels=np.zeros(n, dtype=np.float64))


class InferenceSession:
    """A loaded artifact ready to score batches.

    Thread-safety: scoring is read-only over frozen weights (``no_grad``
    forwards never mutate parameters), so concurrent ``score_batch`` calls
    from the engine's worker threads are safe.
    """

    def __init__(self, model: CTRModel, manifest: dict[str, Any]):
        self.model = model
        self.manifest = manifest
        self.schema = model.schema
        # Offline evaluation tiles its gemms in PARITY_BLOCK rows; any other
        # tile (or a bool, which Python counts as an int) breaks parity.
        block_size = manifest.get("block_size")
        if type(block_size) is not int or block_size != PARITY_BLOCK:
            raise ArtifactError(
                f"manifest block_size {block_size!r} is not {PARITY_BLOCK}; "
                f"parity with offline evaluation cannot be guaranteed")
        self.block_size = block_size
        # Every artifact is scored on the one array-math implementation.  An
        # export written while a second one existed may say "fused"; its
        # weights are the same numbers.  Any other name is a manifest this
        # library cannot vouch for.
        pinned = manifest["backend"]
        if pinned not in _EXPORTED_BACKENDS:
            raise ArtifactError(
                f"manifest pins unknown backend {pinned!r}: this library "
                f"scores with {get_backend().name!r} only")
        self.backend = get_backend().name
        model.eval()

    @classmethod
    def load(cls, path: str | Path) -> "InferenceSession":
        """Reconstruct the model from an artifact directory (digest-checked)."""
        model, manifest = load_artifact(path)
        return cls(model, manifest)

    @property
    def model_name(self) -> str:
        return str(self.manifest["model"])

    def artifact_digest(self) -> str:
        """Stable identity of the loaded weights (``manifest_digest``).
        Fleet probes compare this across replicas to confirm they serve
        the same artifact."""
        return manifest_digest(self.manifest)

    def score_batch(self, batch: Batch) -> np.ndarray:
        """Logits for ``batch`` — deterministic, eval-mode, gradient-free."""
        return forward_logits(self.model, batch, block_size=self.block_size)

    def score_rows(self, rows: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Logits for request-dict rows (see :func:`rows_to_batch`)."""
        return self.score_batch(rows_to_batch(self.schema, rows))

    @staticmethod
    def probabilities(logits: np.ndarray) -> np.ndarray:
        return sigmoid(np.asarray(logits, dtype=np.float64))

    def describe(self) -> dict[str, Any]:
        """JSON-safe identity block (used by /healthz and ``predict``)."""
        return {
            "model": self.model_name,
            "miss": self.manifest.get("miss") is not None,
            "dataset": self.manifest.get("metadata", {}).get("dataset"),
            "schema": self.schema.name,
            "num_categorical": self.schema.num_categorical,
            "num_sequential": self.schema.num_sequential,
            "max_seq_len": self.schema.max_seq_len,
            "block_size": self.block_size,
            "backend": self.backend,
        }
