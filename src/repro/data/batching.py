"""Dataset containers and mini-batch iteration."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs.timers import phase
from ..obs.trace import get_tracer
from .schema import DatasetSchema

__all__ = ["CTRDataset", "Batch", "DataLoader", "WINDOW_BATCHES"]

#: Batches a dataset with ``gather_batches`` assembles per window gather.
#: Windows start at the first unskipped batch; any size yields the same
#: batches, a larger one fewer shard loads (DESIGN.md §11).
WINDOW_BATCHES = 8


@dataclass
class Batch:
    """One mini-batch of CTR samples.

    Attributes:
        categorical: ``(B, I)`` int64 ids, one column per categorical field.
        sequences: ``(B, J, L)`` int64 ids, 0-padded at the front.
        mask: ``(B, L)`` bool validity mask shared by all J sequences.
        labels: ``(B,)`` float click labels in {0, 1}.
    """

    categorical: np.ndarray
    sequences: np.ndarray
    mask: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass
class CTRDataset:
    """A full split (train/validation/test) in array form."""

    schema: DatasetSchema
    categorical: np.ndarray
    sequences: np.ndarray
    mask: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        n = self.labels.shape[0]
        if self.categorical.shape != (n, self.schema.num_categorical):
            raise ValueError(
                f"categorical shape {self.categorical.shape} "
                f"inconsistent with {n} samples"
            )
        expected_seq = (n, self.schema.num_sequential, self.schema.max_seq_len)
        if self.sequences.shape != expected_seq:
            raise ValueError(
                f"sequences shape {self.sequences.shape} != {expected_seq}"
            )
        if self.mask.shape != (n, self.schema.max_seq_len):
            raise ValueError(f"mask shape {self.mask.shape} inconsistent")

    def __len__(self) -> int:
        return self.labels.shape[0]

    def subset(self, indices: np.ndarray) -> "CTRDataset":
        """A new dataset restricted to ``indices`` (used for down-sampling)."""
        return CTRDataset(
            schema=self.schema,
            categorical=self.categorical[indices],
            sequences=self.sequences[indices],
            mask=self.mask[indices],
            labels=self.labels[indices],
        )

    def batch(self, indices: np.ndarray) -> Batch:
        return Batch(
            categorical=self.categorical[indices],
            sequences=self.sequences[indices],
            mask=self.mask[indices],
            labels=self.labels[indices],
        )

    def as_single_batch(self) -> Batch:
        return self.batch(np.arange(len(self)))


class DataLoader:
    """Shuffling mini-batch iterator over any ``__len__`` + ``batch(indices)``
    dataset: the in-memory :class:`CTRDataset` or a sharded one.

    The paper fixes batch size 128; the loader keeps the final short batch so
    every sample is seen each epoch.

    A dataset that also has ``gather_batches`` (the shard-backed ones) is
    read :data:`WINDOW_BATCHES` batches at a time: one window gather loads
    each shard the window touches at most once, where a per-batch gather
    reloads every touched shard its LRU could not keep.  Batches are
    bit-identical on either path (DESIGN.md §11).
    """

    def __init__(
        self,
        dataset,
        batch_size: int = 128,
        shuffle: bool = True,
        rng: np.random.Generator | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = rng or np.random.default_rng(0)

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self):
        yield from self.iter_batches()

    def bind_telemetry(self, registry=None, observers=None) -> None:
        """Forward a metric registry and observers to the dataset when it
        takes them (shard-cache counters, ``shard_loaded`` events)."""
        bind = getattr(self.dataset, "bind_telemetry", None)
        if bind is not None:
            bind(registry=registry, observers=observers)

    def iter_batches(self, skip: int = 0):
        """Iterate the epoch, optionally skipping the first ``skip`` batches.

        The permutation is drawn exactly as a full epoch would draw it, and
        skipped batches are never materialised — this is how a resumed run
        replays a partially completed epoch bit-identically: restore the
        loader RNG to its epoch-start state and skip the batches already
        trained on.  With a tracer installed the epoch is one
        ``pipeline.epoch`` span, each window gather a ``pipeline.window``
        child.
        """
        if skip < 0:
            raise ValueError("skip must be >= 0")
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        # Start at the first unskipped batch instead of slicing (and
        # discarding) every skipped chunk: resume cost is O(1) in the skip
        # count, and skip >= len(self) cleanly yields nothing.
        num_batches = len(self)
        gather = getattr(self.dataset, "gather_batches", None)
        tracer = get_tracer()
        epoch = tracer.make_context() if tracer is not None else None
        epoch_start = time.monotonic()
        try:
            if gather is None:
                for index in range(skip, num_batches):
                    with phase("data.batch"):
                        batch = self.dataset.batch(self._chunk(order, index))
                    yield batch
                return
            for first in range(skip, num_batches, WINDOW_BATCHES):
                indices = range(first, min(first + WINDOW_BATCHES, num_batches))
                window_start = time.monotonic()
                with phase("data.batch"):
                    batches = gather([self._chunk(order, k) for k in indices])
                if tracer is not None:
                    tracer.record_span(
                        "pipeline.window",
                        epoch,
                        window_start,
                        time.monotonic(),
                        attrs={"batches": len(indices)},
                    )
                yield from batches
        finally:
            if tracer is not None:
                tracer.record_span(
                    "pipeline.epoch",
                    epoch,
                    epoch_start,
                    time.monotonic(),
                    span_id=epoch.span_id,
                    attrs={"batches": max(num_batches - skip, 0)},
                )

    def _chunk(self, order: np.ndarray, index: int) -> np.ndarray:
        start = index * self.batch_size
        return order[start : start + self.batch_size]
