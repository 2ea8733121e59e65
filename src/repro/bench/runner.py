"""Benchmark cell runner with a persistent on-disk result cache.

Several tables share cells (Table V reuses the DIN/IPNN/FiGNN rows of
Table IV; Tables X and XI reuse the DIN and DIN-MISS baselines), so results
are cached under ``.bench_cache/`` keyed by the cell description, the
harness settings and a digest of the package's own source
(:func:`source_digest`), so any edit to ``src/repro`` re-runs every cell.
Delete the directory (or set ``REPRO_BENCH_CACHE=0``) to force re-runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.plugin import attach_miss
from ..data.processing import ProcessedData
from ..models.base import CTRModel
from ..models.registry import create_model
from ..ssl_baselines import attach_ssl_baseline
from ..training.experiment import run_experiment
from .configs import (
    BENCH_EPOCHS,
    BENCH_SCALE,
    BENCH_SEEDS,
    bench_dataset,
    bench_miss_config,
    bench_seeds,
    bench_train_config,
)

__all__ = ["CellResult", "run_cell", "miss_model_factory", "baseline_factory",
           "ssl_factory"]

_PACKAGE_DIR = Path(__file__).resolve().parents[1]
_CACHE_DIR = Path(__file__).resolve().parents[3] / ".bench_cache"
_CACHE_ENABLED = os.environ.get("REPRO_BENCH_CACHE", "1") != "0"

ModelFactory = Callable[[ProcessedData, int], CTRModel]


@dataclass(frozen=True)
class CellResult:
    """Mean AUC/Logloss of one (model, dataset) cell over the bench seeds."""

    model_name: str
    dataset_name: str
    auc: float
    logloss: float
    auc_std: float
    num_seeds: int

    def row(self) -> tuple[str, float, float]:
        return self.model_name, self.auc, self.logloss


def source_digest(package_dir: Path) -> str:
    """sha256 over every ``*.py`` under ``package_dir``: each file's path
    relative to it and its bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        relative = path.relative_to(package_dir).as_posix().encode()
        data = path.read_bytes()
        for part in (relative, data):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _package_digest() -> str:
    """:func:`source_digest` of this package, computed once per process."""
    return source_digest(_PACKAGE_DIR)


def _cache_path(key: str) -> Path:
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    return _CACHE_DIR / f"{digest}.json"


def _cache_key(model_key: str, dataset: str, extra: str = "") -> str:
    return json.dumps({
        "source": _package_digest(),
        "model": model_key,
        "dataset": dataset,
        "scale": BENCH_SCALE,
        "seeds": BENCH_SEEDS,
        "epochs": BENCH_EPOCHS,
        "extra": extra,
    }, sort_keys=True)


def baseline_factory(name: str, **kwargs) -> ModelFactory:
    """Factory for a plain baseline from the model registry."""
    def make(data: ProcessedData, seed: int) -> CTRModel:
        return create_model(name, data.schema, seed=seed + 1, **kwargs)
    return make


def miss_model_factory(backbone: str = "DIN",
                       config_overrides: dict | None = None) -> ModelFactory:
    """Factory for ``<backbone>-MISS`` with the tuned bench MISS config."""
    def make(data: ProcessedData, seed: int) -> CTRModel:
        base = create_model(backbone, data.schema, seed=seed + 1)
        return attach_miss(base, bench_miss_config(seed, **(config_overrides or {})))
    return make


def ssl_factory(method: str, backbone: str = "DIN", alpha: float = 0.5
                ) -> ModelFactory:
    """Factory for ``<backbone>-<ssl method>`` (Table VI)."""
    def make(data: ProcessedData, seed: int) -> CTRModel:
        base = create_model(backbone, data.schema, seed=seed + 1)
        return attach_ssl_baseline(method, base, alpha=alpha, seed=seed + 101)
    return make


def run_cell(model_key: str, factory: ModelFactory, dataset_name: str,
             train_transform=None, extra_key: str = "",
             dataset_override: ProcessedData | None = None) -> CellResult:
    """Run one cell averaged over the bench seeds, with disk caching.

    ``train_transform(train_split, seed)`` lets the corruption studies
    down-sample or label-flip the training split while leaving
    validation/test untouched.
    """
    key = _cache_key(model_key, dataset_name, extra_key)
    path = _cache_path(key)
    if _CACHE_ENABLED and path.exists():
        payload = json.loads(path.read_text())
        return CellResult(**payload)

    aucs, loglosses = [], []
    for seed in bench_seeds():
        data = dataset_override or bench_dataset(dataset_name, seed)
        train = data.train
        if train_transform is not None:
            train = train_transform(train, seed)
        model = factory(data, seed)
        result = run_experiment(model, data, bench_train_config(seed),
                                model_name=model_key, train=train)
        aucs.append(result.test.auc)
        loglosses.append(result.test.logloss)

    cell = CellResult(
        model_name=model_key,
        dataset_name=dataset_name,
        auc=float(np.mean(aucs)),
        logloss=float(np.mean(loglosses)),
        auc_std=float(np.std(aucs)),
        num_seeds=len(aucs),
    )
    if _CACHE_ENABLED:
        _CACHE_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(cell.__dict__))
    return cell
