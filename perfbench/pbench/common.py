"""Pieces every workload shares: the run context, the outcome record, and
the world / model builders."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import MISSConfig, attach_miss
from repro.data import CTRDataset
from repro.models.registry import create_model

from .sizes import Sizes
from .spans import SpanRecorder
from .speed import SpeedReference

__all__ = ["Ctx", "Outcome", "SLICES", "pin_to_one_core", "tile",
           "build_din", "miss_config", "quantile", "RateSampler",
           "slice_quantiles", "median_over_slices"]

#: Serving windows are cut into this many equal slices and report the
#: median over slices of each slice's statistic: a stall (the box pauses
#: for 0.1-0.5 s now and then) has to hit half the slices to move it.
SLICES = 10


@dataclass
class Ctx:
    workload: str
    sizes: Sizes
    seed: int
    seconds: float
    work_dir: Path
    speed: SpeedReference
    #: present on a traced run only
    recorder: SpanRecorder | None = None

    @property
    def traced(self) -> bool:
        return self.recorder is not None


@dataclass
class Outcome:
    """What one pass measured.  ``problems`` lists every failed correctness
    check; a non-empty list fails the run."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def pin_to_one_core() -> None:
    """Keep this thread, and every thread it starts from now on, on one
    core.  For a workload that computes on one thread at a time (training;
    generator and engine worker under the GIL) the second core adds nothing
    but the scheduler's choice of where to run it, and that choice shows:
    side by side, pinned runs are steadier (and the engine faster)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def tile(dataset: CTRDataset, rows: int) -> CTRDataset:
    """``rows`` rows cycling through ``dataset`` in order."""
    return dataset.subset(np.arange(rows) % len(dataset))


def miss_config(seed: int) -> MISSConfig:
    # α1 = α2 = 0.5; M=3, N=2, H=3, τ=0.1, P=Q=8 are MISSConfig's defaults.
    return MISSConfig(alpha_interest=0.5, alpha_feature=0.5, seed=seed + 2)


def build_din(schema, seed: int, miss: bool):
    model = create_model("DIN", schema, seed=seed + 1)
    return attach_miss(model, miss_config(seed)) if miss else model


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class RateSampler:
    """Times calls of pure computation, each next to its own speed
    samples, and reports rows per second from the median call.  Callers
    sample in two stretches, before and after their measuring window, so
    that one bad stretch of the box cannot own the median."""

    def __init__(self, speed: SpeedReference):
        self.speed = speed
        self.scaled: list[float] = []   # seconds per row, reference speed
        self.raw: list[float] = []      # seconds per row, as measured

    def time(self, fn: Callable[[], object], rows: int):
        scale = self.speed.scale()
        start = time.perf_counter()
        result = fn()
        per_row = (time.perf_counter() - start) / rows
        self.raw.append(per_row)
        self.scaled.append(per_row * scale)
        return result

    def rows_per_s(self) -> tuple[float, float]:
        """(at reference speed, raw)."""
        return (1.0 / float(np.median(self.scaled)),
                1.0 / float(np.median(self.raw)))


def slice_quantiles(edges, stamps, values, q: float) -> list[float]:
    """The ``q``-quantile of ``values`` inside each slice that ``edges``
    cuts ``stamps`` into; empty slices are skipped."""
    stamps, values = np.asarray(stamps), np.asarray(values)
    which = np.searchsorted(edges, stamps, side="right") - 1
    return [quantile(values[which == i], q)
            for i in range(len(edges) - 1) if (which == i).any()]


def median_over_slices(edges, stamps, values, q: float) -> float:
    return float(np.median(slice_quantiles(edges, stamps, values, q)))
