"""Tests for the paper-table harness: rendering, factories, and caching;
plus the guard that the repo keeps one benchmark system (``perfbench/``)."""

import re
from pathlib import Path

import numpy as np
import pytest

import repro.bench
from repro.bench import configs, runner, tables
from repro.bench import (
    DATASET_SCALES,
    baseline_factory,
    bench_miss_config,
    bench_train_config,
    miss_model_factory,
    render_metric_table,
    render_series,
    ssl_factory,
)
from repro.cli import build_parser
from repro.core import MISSEnhancedModel
from repro.data import DATASET_NAMES, InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import DINModel
from repro.ssl_baselines import CL4SRecModel


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=25, num_items=70, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=2)
    return build_ctr_data(InterestWorld(config), max_seq_len=8, seed=3)


class TestConfigs:
    def test_every_dataset_has_a_scale(self):
        assert set(DATASET_SCALES) == set(DATASET_NAMES)

    def test_train_config_uses_paper_batch_size(self):
        config = bench_train_config(0)
        assert config.batch_size == 128

    def test_miss_config_overrides(self):
        config = bench_miss_config(0, temperature=0.5)
        assert config.temperature == 0.5
        assert config.alpha_interest == 0.5


class TestFactories:
    def test_baseline_factory(self, data):
        model = baseline_factory("DIN")(data, seed=0)
        assert isinstance(model, DINModel)

    def test_miss_factory_wraps_backbone(self, data):
        model = miss_model_factory("DIN")(data, seed=0)
        assert isinstance(model, MISSEnhancedModel)
        assert isinstance(model.base, DINModel)

    def test_miss_factory_applies_overrides(self, data):
        model = miss_model_factory("DIN", {"use_fine_grained": False})(data, 0)
        assert model.config.use_fine_grained is False

    def test_ssl_factory(self, data):
        model = ssl_factory("CL4SRec")(data, seed=0)
        assert isinstance(model, CL4SRecModel)

    def test_factories_seeded_deterministically(self, data):
        a = baseline_factory("DIN")(data, seed=3)
        b = baseline_factory("DIN")(data, seed=3)
        np.testing.assert_allclose(a.tower.layers[0].weight.data,
                                   b.tower.layers[0].weight.data)


class TestRendering:
    def test_metric_table_marks_best(self):
        rows = [("A", {"d1": (0.8, 0.5)}), ("B", {"d1": (0.9, 0.4)})]
        text = render_metric_table("T", ["d1"], rows)
        assert "0.9000*" in text
        assert "0.8000 " in text

    def test_metric_table_handles_missing_cells(self):
        rows = [("A", {"d1": (0.8, 0.5)}), ("B", {})]
        text = render_metric_table("T", ["d1"], rows, highlight_best=False)
        assert "-" in text

    def test_series_rendering(self):
        text = render_series("F", "x", [1, 2], {"s1": [0.1, 0.2],
                                                "s2": [0.3, 0.4]})
        lines = text.splitlines()
        assert lines[0] == "F"
        assert "0.1000" in text and "0.4000" in text
        assert len([ln for ln in lines if ln.startswith(("1", "2"))]) == 2


# ----------------------------------------------------------------------
# Structure guard: the repo measures itself once, with perfbench/
# ----------------------------------------------------------------------
REPO = Path(__file__).resolve().parent.parent

#: The retired second benchmark system.  ``BENCH_`` only counts when a
#: report name follows (``BENCH_stream.json``, ``BENCH_*.json``); the
#: paper harness's ``BENCH_SCALE``-style settings are not it.
LEGACY_BENCH = re.compile(r"bench-serve|bench-pipeline|bench-distributed|"
                          r"bench-stream|check_bench|BENCH_(?![A-Z])|"
                          r"run_load|run_http_load|RetryPolicy")


def test_the_second_benchmark_system_stays_gone():
    """No legacy bench verb, report, guard script or load client under the
    library, the scripts or CI; nine verbs; ``repro.bench`` is only the
    paper harness."""
    files = [path for directory, pattern in (("src", "*.py"),
                                             ("scripts", "*.py"),
                                             (".github", "*.yml"))
             for path in sorted((REPO / directory).rglob(pattern))]
    assert any(path.suffix == ".yml" for path in files)
    named = sorted(f"{path.relative_to(REPO).as_posix()}: {match}"
                   for path in files
                   for match in LEGACY_BENCH.findall(
                       path.read_text(encoding="utf-8")))
    assert named == []
    assert not list(REPO.glob("BENCH_*.json"))

    verbs = build_parser()._subparsers._group_actions[0].choices
    assert sorted(verbs) == sorted([
        "datasets", "train", "compare", "inspect-run", "export", "serve",
        "predict", "registry", "stream-train"])

    assert sorted(repro.bench.__all__) == sorted(
        configs.__all__ + runner.__all__ + tables.__all__)
