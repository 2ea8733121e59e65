"""Weight initialisation schemes.

All initialisers take an explicit ``numpy.random.Generator`` so that every
experiment in the benchmark harness is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "normal", "zeros", "uniform"]


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot uniform initialisation, the default for dense layers."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def normal(shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.01) -> np.ndarray:
    """Small-variance Gaussian, the conventional embedding-table init."""
    return rng.normal(0.0, std, size=shape)


def uniform(shape: tuple[int, ...], rng: np.random.Generator, limit: float = 0.05) -> np.ndarray:
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    return np.zeros(shape)
