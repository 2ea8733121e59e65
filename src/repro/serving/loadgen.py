"""Request rows for load: a split's feature rows and a seeded request
stream over them.  ``perfbench``'s serving workloads drive the engine and
the HTTP server with these."""

from __future__ import annotations

import numpy as np

from ..data.batching import CTRDataset

__all__ = ["dataset_rows", "build_request_stream"]

Row = tuple[np.ndarray, np.ndarray, np.ndarray]


def dataset_rows(dataset: CTRDataset, limit: int | None = None) -> list[Row]:
    """Feature rows of a split in (categorical, sequences, mask) form."""
    n = len(dataset)
    if limit is not None:
        n = min(n, limit)
    return [(dataset.categorical[i], dataset.sequences[i], dataset.mask[i])
            for i in range(n)]


def build_request_stream(num_rows: int, num_requests: int,
                         repeat_fraction: float = 0.0,
                         seed: int = 0) -> list[int]:
    """Row index per request; repeats exercise the engine's LRU cache.

    Each request is, with probability ``repeat_fraction``, a re-send of a
    previously requested row (uniform over the history); otherwise the next
    row in a round-robin over the pool.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if num_rows < 1:
        raise ValueError("num_rows must be >= 1")
    if not 0.0 <= repeat_fraction < 1.0:
        raise ValueError("repeat_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    stream: list[int] = []
    fresh = 0
    for _ in range(num_requests):
        if stream and rng.random() < repeat_fraction:
            stream.append(stream[int(rng.integers(0, len(stream)))])
        else:
            stream.append(fresh % num_rows)
            fresh += 1
    return stream
