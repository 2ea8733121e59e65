"""Training-set corruptions for the case studies of §VI-E, offline and
streaming.

Offline (Table X/XI — whole-split, stateful RNG):

* :func:`downsample` — the label-sparsity study (Table X): keep a random
  ``rate`` fraction of training samples, validation/test untouched.
* :func:`flip_labels` — the label-noise study (Table XI): randomly swap the
  labels of a ``rate`` fraction of training samples.

Streaming (window-invariant, stateless): the online-learning loop applies
corruption window by window as micro-batches arrive, and reproducibility
demands that the result not depend on how the stream was windowed.
:func:`flip_labels_stream` therefore derives each row's decision from a
counter-mode hash of ``(seed, global row index)`` (:func:`row_uniform`)
instead of a sequential RNG stream: corrupting windows ``[0, k)``, ``[k, n)``
separately is bit-identical to corrupting ``[0, n)`` at once, for every cut
point ``k``.
"""

from __future__ import annotations

import numpy as np

from .batching import CTRDataset

__all__ = ["downsample", "flip_labels", "row_uniform", "flip_labels_stream"]


def downsample(dataset: CTRDataset, rate: float, seed: int = 0) -> CTRDataset:
    """Keep a uniformly random ``rate`` fraction of samples.

    ``rate=1.0`` returns the dataset unchanged (the paper's SR=100% row).
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
    if rate == 1.0:
        return dataset
    rng = np.random.default_rng(seed)
    n = len(dataset)
    keep = max(1, int(round(n * rate)))
    indices = rng.choice(n, size=keep, replace=False)
    indices.sort()
    return dataset.subset(indices)


def flip_labels(dataset: CTRDataset, rate: float, seed: int = 0) -> CTRDataset:
    """Swap labels on a random ``rate`` fraction of samples (0 keeps all)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise rate must be in [0, 1], got {rate}")
    if rate == 0.0:
        return dataset
    rng = np.random.default_rng(seed)
    n = len(dataset)
    flip = rng.random(n) < rate
    labels = dataset.labels.copy()
    labels[flip] = 1.0 - labels[flip]
    return CTRDataset(
        schema=dataset.schema,
        categorical=dataset.categorical,
        sequences=dataset.sequences,
        mask=dataset.mask,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# Streaming (window-invariant) corruption
# ---------------------------------------------------------------------------
def row_uniform(seed: int, indices: np.ndarray) -> np.ndarray:
    """Deterministic uniform in [0, 1) per global row index, vectorised.

    Counter-mode construction: each value is a function of ``(seed, index)``
    alone — no sequential RNG state — so any windowing of an index range
    produces exactly the values the full range would.  The mixer is the
    SplitMix64 finaliser, whose avalanche behaviour makes consecutive indices
    statistically independent.
    """
    seed_mix = ((int(seed) * 0x9E3779B97F4A7C15) + 0x9E3779B97F4A7C15) \
        & 0xFFFFFFFFFFFFFFFF
    x = np.asarray(indices, dtype=np.uint64) + np.uint64(seed_mix)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    # Top 53 bits → float64 in [0, 1) with full mantissa resolution.
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def flip_labels_stream(dataset: CTRDataset, rate: float, seed: int = 0,
                       offset: int = 0) -> CTRDataset:
    """Window-invariant label noise: flip rows whose hash falls under ``rate``.

    ``offset`` is the global index of the window's first row in the stream.
    Applying this to consecutive windows (with their offsets) is bit-identical
    to applying it once to the concatenated stream.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise rate must be in [0, 1], got {rate}")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if rate == 0.0:
        return dataset
    indices = np.arange(offset, offset + len(dataset), dtype=np.uint64)
    flip = row_uniform(seed, indices) < rate
    labels = dataset.labels.copy()
    labels[flip] = 1.0 - labels[flip]
    return CTRDataset(
        schema=dataset.schema,
        categorical=dataset.categorical,
        sequences=dataset.sequences,
        mask=dataset.mask,
        labels=labels,
    )
