"""Frozen model artifacts: the on-disk unit shipped from training to serving.

An artifact is a directory with exactly two files::

    artifact/
      manifest.json   # identity, schema, config, per-array SHA-256 digests
      weights.npz     # flat state dict, compressed (atomic write)

The manifest pins everything needed to reconstruct the model without the
training pipeline: the registry name, the embedding dimension, the full
feature schema, the MISS configuration (when the SSL plug-in was attached),
the backend, and the seal of every weight array.  The pair is a sealed
archive (:mod:`repro.resilience.sealed`; formats in DESIGN.md §8), and
:func:`load_artifact` refuses whatever does not verify with
:class:`ArtifactError` — a truncated copy, a bit-flipped weight or a mangled
manifest fails loudly at load time, never as silently wrong scores.

``format_version`` governs the manifest layout; bump it on breaking changes
and keep readers backward compatible where possible.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any

import numpy as np

from ..core.config import MISSConfig
from ..core.plugin import attach_miss
from ..data.schema import DatasetSchema
from ..models.base import CTRModel
from ..models.registry import MODEL_NAMES, create_model
from ..nn.backend import get_backend
from ..resilience.sealed import (
    SealError,
    fields_of,
    read_arrays,
    read_record,
    write_sealed,
)
from .forward import PARITY_BLOCK

__all__ = ["ArtifactError", "MANIFEST_NAME", "WEIGHTS_NAME", "FORMAT_VERSION",
           "export_artifact", "load_artifact", "load_manifest"]

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.npz"
FORMAT_VERSION = 1
#: Unsealed ``weights.npz`` member carrying the weights-format version; a
#: version newer than :data:`VERSION` is refused at load.
VERSION_KEY = "__repro_checkpoint_version__"
VERSION = 1


class ArtifactError(ValueError):
    """A serving artifact is missing, malformed, or fails verification."""


#: ``miss`` keys written by older exports for options that no longer exist:
#: key → (the one value that is still what the library does, what any other
#: value asked for).
_REMOVED_MISS_KEYS = {
    "interest_encoder": ("mlp", "the Transformer view encoder"),
    "distance_distribution": ("uniform", "non-uniform augmentation distances"),
}


def _miss_config_from_dict(payload: Any, manifest_path: Path) -> MISSConfig:
    """Rebuild the ``miss`` block one key at a time, so whatever is wrong
    with it is an :class:`ArtifactError` naming the manifest and the key."""
    if not isinstance(payload, dict):
        raise ArtifactError(f"{manifest_path}: 'miss' must be an object or null")
    config = MISSConfig()
    for key, value in payload.items():
        if key in _REMOVED_MISS_KEYS:
            kept, feature = _REMOVED_MISS_KEYS[key]
            if value != kept:
                raise ArtifactError(
                    f"{manifest_path}: 'miss' key {key!r}={value!r} needs "
                    f"{feature}, which this library no longer has")
            continue
        if isinstance(value, list):
            # JSON has no tuples; the encoder sizes must come back hashable.
            value = tuple(value)
        try:
            config = dataclasses.replace(config, **{key: value})
        except (TypeError, ValueError) as exc:
            raise ArtifactError(
                f"{manifest_path}: 'miss' key {key!r}: {exc}") from exc
    return config


def export_artifact(model: CTRModel, path: str | Path, *,
                    model_name: str,
                    miss_config: MISSConfig | None = None,
                    metadata: dict[str, Any] | None = None) -> Path:
    """Freeze ``model`` into an artifact directory at ``path``.

    ``model_name`` must be a registry name so the serving process can rebuild
    the architecture; pass ``miss_config`` when ``model`` is the
    MISS-enhanced wrapper (its SSL tower is part of the state dict and must
    be reconstructed to load it).  ``metadata`` is free-form JSON-safe
    context (dataset, eval metrics, training settings) carried along for
    humans and ops tooling; it does not affect loading.

    Returns the artifact directory.  Both files are written atomically; the
    manifest is written last so a crash mid-export leaves a directory that
    fails loading cleanly instead of one that loads stale weights.
    """
    if model_name not in MODEL_NAMES:
        raise ArtifactError(
            f"model_name {model_name!r} is not in the registry; artifacts "
            f"must be reconstructible — choose from {MODEL_NAMES}")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "model": model_name,
        "embedding_dim": int(getattr(model, "embedding_dim", 10)),
        "schema": model.schema.to_dict(),
        "miss": (dataclasses.asdict(miss_config)
                 if miss_config is not None else None),
        "block_size": PARITY_BLOCK,
        # Always "reference", the one array-math implementation's name:
        # servers from when there were two refuse any other value.
        "backend": get_backend().name,
        "metadata": metadata or {},
    }
    # The weights-format version rides along in weights.npz unsealed.
    write_sealed(path / WEIGHTS_NAME, path / MANIFEST_NAME,
                 model.state_dict(), manifest, compressed=True,
                 unsealed={VERSION_KEY: np.array(VERSION)})
    return path


_REQUIRED_KEYS = ("model", "embedding_dim", "schema", "arrays", "block_size",
                  "backend")


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read and structurally validate an artifact's manifest."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise ArtifactError(
            f"{path} is not a serving artifact: missing {MANIFEST_NAME}")
    try:
        manifest = read_record(manifest_path, FORMAT_VERSION,
                               seal_key="arrays")
    except SealError as exc:
        raise ArtifactError(str(exc)) from exc
    for key in _REQUIRED_KEYS:
        if key not in manifest:
            raise ArtifactError(f"{manifest_path}: missing required key "
                                f"{key!r}")
    return manifest


def load_artifact(path: str | Path) -> tuple[CTRModel, dict[str, Any]]:
    """Rebuild the frozen model; returns ``(model, manifest)``.

    Every weight array is digest-verified against the manifest *before* it
    is loaded into the model.  The model comes back in eval mode.
    """
    path = Path(path)
    manifest = load_manifest(path)
    manifest_path = path / MANIFEST_NAME
    weights_path = path / WEIGHTS_NAME
    try:
        with fields_of(manifest_path):
            schema = DatasetSchema.from_dict(manifest["schema"])
            model = create_model(manifest["model"], schema,
                                 embedding_dim=int(manifest["embedding_dim"]),
                                 seed=0)
        state = read_arrays(weights_path, manifest["arrays"],
                            unsealed=(VERSION_KEY,))
    except SealError as exc:
        raise ArtifactError(str(exc)) from exc
    if manifest.get("miss") is not None:
        model = attach_miss(
            model, _miss_config_from_dict(manifest["miss"], manifest_path))
    version = state.pop(VERSION_KEY, np.array(0))
    if (version.shape != () or version.dtype.kind not in "iu"
            or version > VERSION):
        raise ArtifactError(
            f"{weights_path}: weights format version {version.tolist()!r} is "
            f"not one this library reads (it supports up to {VERSION}); "
            f"upgrade the library")
    try:
        model.load_state_dict(state, strict=True)
    except (KeyError, ValueError) as exc:
        raise ArtifactError(
            f"{path}: weights do not fit the reconstructed "
            f"{manifest['model']!r} model: "
            f"{exc.args[0] if exc.args else exc}") from exc
    model.eval()
    return model, manifest
