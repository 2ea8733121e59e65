"""Shared-memory gradient buffers for data-parallel workers.

The transport is a handful of file-backed ``np.memmap`` buffers (the
launcher places them under ``/dev/shm`` when available, so "file" means
tmpfs pages, not disk).  ``MAP_SHARED`` mappings of one file are coherent
across processes — a rank's write is visible to every peer as soon as the
barrier orders it — and unlike ``multiprocessing.shared_memory`` there is
no resource-tracker to fight over unlink ownership: the launcher owns the
run directory and removes it when the run ends.

Only what a step reduces crosses the process boundary: each rank's
gradient vector, touched flags and loss, plus rank 0's stop word.
Parameters never do — every rank takes the same step from the same
slots.  Everything is float64, so a copy between a rank's
:class:`~repro.nn.FlatParameters` gradient vector (the layout) and its
slot is bit-exact and process-mode training can be replayed bitwise by
the single-process emulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["SharedArena", "CTL_STOP", "CTL_SLOTS"]

#: Control-word slots (float64 each) rank 0 publishes at each epoch end.
CTL_STOP = 0        # 1.0 => early stop / epoch budget reached, ranks exit
CTL_SLOTS = 1


@dataclass(frozen=True)
class _ArenaSpec:
    """Picklable description a child process reopens the arena from."""

    directory: str
    world_size: int
    param_size: int
    param_count: int


class SharedArena:
    """The run's shared buffers: grads (W×P), touched (W×N), losses (W),
    ctl — P weights in N parameters.  ``touched[r, i]`` is 1.0
    when rank ``r``'s step gave parameter ``i`` a gradient.

    Created once by the launcher (``create``), reopened read-write by every
    worker from the picklable :meth:`spec`.  All buffers are float64
    memmaps over files in the run directory.
    """

    _FILES = ("grads", "touched", "losses", "ctl")

    def __init__(self, spec: _ArenaSpec, mode: str):
        if spec.world_size < 1:
            raise ValueError("world_size must be >= 1")
        if spec.param_size < 1 or spec.param_count < 1:
            raise ValueError("param_size and param_count must be >= 1")
        self._spec = spec
        directory = Path(spec.directory)
        shapes = {
            "grads": (spec.world_size, spec.param_size),
            "touched": (spec.world_size, spec.param_count),
            "losses": (spec.world_size,),
            "ctl": (CTL_SLOTS,),
        }
        self._maps = {
            name: np.memmap(directory / f"{name}.buf", dtype=np.float64,
                            mode=mode, shape=shapes[name])
            for name in self._FILES
        }
        if mode == "w+":
            for buf in self._maps.values():
                buf[...] = 0.0

    @classmethod
    def create(cls, directory: str | Path, world_size: int, param_size: int,
               param_count: int) -> "SharedArena":
        spec = _ArenaSpec(str(directory), int(world_size), int(param_size),
                          int(param_count))
        return cls(spec, mode="w+")

    @classmethod
    def attach(cls, spec: _ArenaSpec) -> "SharedArena":
        return cls(spec, mode="r+")

    def spec(self) -> _ArenaSpec:
        return self._spec

    @property
    def world_size(self) -> int:
        return self._spec.world_size

    def grad_slot(self, rank: int) -> np.ndarray:
        return self._maps["grads"][rank]

    def grad_slots(self) -> list[np.ndarray]:
        return [self._maps["grads"][r] for r in range(self.world_size)]

    @property
    def touched(self) -> np.ndarray:
        return self._maps["touched"]

    @property
    def losses(self) -> np.ndarray:
        return self._maps["losses"]

    @property
    def ctl(self) -> np.ndarray:
        return self._maps["ctl"]
