"""Shared test utilities: numerical gradient checking and tiny fixtures."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.nn import Tensor
from repro.resilience.sealed import DIGEST_KEY, record_digest


def numeric_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray,
                     eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check_gradients(build: Callable[[Sequence[Tensor]], Tensor],
                    arrays: Sequence[np.ndarray],
                    rtol: float = 1e-4, atol: float = 1e-6) -> None:
    """Assert autograd gradients of ``build`` match central differences.

    ``build`` receives tensors wrapping copies of ``arrays`` and must return a
    scalar tensor.
    """
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(tensors)
    assert out.size == 1, "gradient check requires a scalar output"
    out.backward()

    for idx, array in enumerate(arrays):
        def scalar_fn(x: np.ndarray, idx=idx) -> float:
            probes = [Tensor(a.copy()) for a in arrays]
            probes[idx] = Tensor(x.copy())
            return float(build(probes).data)

        expected = numeric_gradient(scalar_fn, array.copy())
        actual = tensors[idx].grad
        assert actual is not None, f"input {idx} received no gradient"
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol,
                                   err_msg=f"gradient mismatch for input {idx}")


def edit_record(path: str | Path, mutate: Callable[[dict], Any], *,
                digest_key: str = DIGEST_KEY, restamp: bool = True) -> None:
    """Hand-edit a sealed JSON record through ``mutate`` and write it back.

    With ``restamp`` the self-digest is recomputed, so the reader gets as far
    as the edit itself; ``restamp=False`` drops the digest, which is the
    layout records had before they carried one (still accepted).  To tamper
    *without* either, write the file directly.
    """
    path = Path(path)
    record = json.loads(path.read_text())
    mutate(record)
    record.pop(digest_key, None)
    if restamp:
        record[digest_key] = record_digest(record, digest_key)
    path.write_text(json.dumps(record))


def bit_rot(path: str | Path, raises: type[BaseException]) -> int:
    """Damage one byte of the ``.npz`` at ``path`` so that plain ``np.load``
    of its members raises ``raises``; returns the offset.

    Which byte does it depends on the arrays, so the file is searched rather
    than an offset pinned.  ``zlib.error`` is the one to ask for in a
    compressed archive: no reader expected it before ``resilience.sealed``.
    """
    path = Path(path)
    pristine = path.read_bytes()
    for offset in range(40, len(pristine)):
        damaged = bytearray(pristine)
        damaged[offset] ^= 0xFF
        path.write_bytes(bytes(damaged))
        try:
            with np.load(path) as archive:
                for name in archive.files:
                    archive[name]
        except raises:
            return offset
        except Exception:
            continue
    path.write_bytes(pristine)
    raise AssertionError(f"no single-byte flip of {path} raises {raises}")
