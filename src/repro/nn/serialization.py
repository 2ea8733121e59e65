"""Checkpointing: save/load a module's state dict as a compressed ``.npz``.

Used for the pre-training workflow of Table IX (pre-train once, fine-tune
many configurations) and for shipping trained models between processes.
Parameters and buffers are stored flat under their dotted names; loading is
strict by default so silent architecture drift cannot go unnoticed.

Writes go through :func:`repro.resilience.atomic.atomic_write_npz` (temp file
+ fsync + rename), so a crash mid-save can never leave a truncated archive in
place of a previous good one.  Full training-run state (optimiser, RNG,
counters) lives in :class:`repro.resilience.CheckpointStore`; this module
remains the thin weights-only format.

Load failures carry enough context to act on from a serving process: a shape
mismatch names the offending parameter and both shapes, and a key mismatch
lists the missing/unexpected names — each prefixed with the checkpoint path.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..resilience.atomic import atomic_write_npz
from .module import Module

__all__ = ["save_checkpoint", "load_checkpoint", "read_state", "VERSION_KEY",
           "VERSION"]

#: Archive member carrying the weights-format version.  A serving artifact's
#: ``weights.npz`` is this format too (``serving.artifact`` seals the state
#: arrays and lets this member ride along).
VERSION_KEY = "__repro_checkpoint_version__"
VERSION = 1


def save_checkpoint(module: Module, path: str | Path) -> Path:
    """Write ``module.state_dict()`` to ``path`` (``.npz`` appended if absent).

    Returns the resolved path actually written.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    state = module.state_dict()
    if VERSION_KEY in state:
        raise ValueError(f"state dict may not use the reserved key {VERSION_KEY}")
    atomic_write_npz(path, {**state, VERSION_KEY: np.array(VERSION)},
                     compressed=True)
    return path


def read_state(path: str | Path) -> dict[str, np.ndarray]:
    """Load the raw named arrays of a checkpoint without touching a module.

    Resolves the same ``.npz`` suffix convention as :func:`load_checkpoint`
    and strips the version metadata.  These files carry no digests: anything
    that must be verified before it is trusted goes through
    :mod:`repro.resilience.sealed` instead.
    """
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as archive:
        version = int(archive[VERSION_KEY]) if VERSION_KEY in archive else 0
        if version > VERSION:
            raise ValueError(
                f"checkpoint {path}: version {version} is newer than "
                f"supported ({VERSION}); upgrade the library")
        return {name: archive[name] for name in archive.files
                if name != VERSION_KEY}


def load_checkpoint(module: Module, path: str | Path, strict: bool = True) -> None:
    """Restore a checkpoint written by :func:`save_checkpoint` into ``module``.

    On mismatch the error names the checkpoint file and the offending
    parameter (with the model-side and checkpoint-side shapes), so a failed
    load in a serving context points straight at the drifted weight.
    """
    state = read_state(path)
    try:
        module.load_state_dict(state, strict=strict)
    except (KeyError, ValueError) as exc:
        # KeyError wraps its message in quotes when rendered; re-raise both
        # kinds as ValueError so the path + parameter detail reads cleanly.
        raise ValueError(
            f"checkpoint {path} does not match {type(module).__name__}: "
            f"{exc.args[0] if exc.args else exc}") from exc
