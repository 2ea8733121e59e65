"""Paper-table harness: configs, cached cell runner, and table rendering.

The repo's performance benchmark lives in ``perfbench/``, not here."""

from .configs import (
    BENCH_EPOCHS,
    BENCH_SCALE,
    BENCH_SEEDS,
    DATASET_SCALES,
    bench_dataset,
    bench_miss_config,
    bench_seeds,
    bench_train_config,
)
from .runner import (
    CellResult,
    baseline_factory,
    miss_model_factory,
    run_cell,
    ssl_factory,
)
from .tables import render_metric_table, render_series

__all__ = [
    "BENCH_SCALE", "BENCH_SEEDS", "BENCH_EPOCHS", "DATASET_SCALES",
    "bench_dataset", "bench_miss_config", "bench_seeds", "bench_train_config",
    "CellResult", "run_cell", "baseline_factory", "miss_model_factory",
    "ssl_factory", "render_metric_table", "render_series",
]
