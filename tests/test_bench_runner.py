"""Tests for the cached benchmark cell runner (isolated from the real cache)."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro.bench.runner as runner_module
from repro.bench.runner import baseline_factory, run_cell
from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data


@pytest.fixture()
def tiny_data():
    config = InterestWorldConfig(num_users=25, num_items=70, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=2)
    return build_ctr_data(InterestWorld(config), max_seq_len=8, seed=3)


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_module, "_CACHE_DIR", tmp_path)
    monkeypatch.setattr(runner_module, "_CACHE_ENABLED", True)
    monkeypatch.setattr(runner_module, "BENCH_EPOCHS", 2)
    return tmp_path


def _quick_train_config(seed):
    from repro.training import TrainConfig
    return TrainConfig(epochs=1, seed=seed)


@pytest.fixture(autouse=True)
def fast_training(monkeypatch):
    monkeypatch.setattr(runner_module, "bench_train_config", _quick_train_config)
    monkeypatch.setattr(runner_module, "bench_seeds", lambda: [0])


class TestRunCell:
    def test_returns_cell_result(self, tiny_data, isolated_cache):
        cell = run_cell("LR", baseline_factory("LR"), "amazon-cds",
                        dataset_override=tiny_data)
        assert cell.model_name == "LR"
        assert 0.0 <= cell.auc <= 1.0
        assert cell.num_seeds == 1

    def test_result_is_cached_on_disk(self, tiny_data, isolated_cache):
        run_cell("LR", baseline_factory("LR"), "amazon-cds",
                 dataset_override=tiny_data)
        files = list(isolated_cache.glob("*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["model_name"] == "LR"

    def test_cache_hit_skips_training(self, tiny_data, isolated_cache,
                                      monkeypatch):
        first = run_cell("LR", baseline_factory("LR"), "amazon-cds",
                         dataset_override=tiny_data)

        def exploding_factory(data, seed):
            raise AssertionError("cache miss: training re-ran")

        second = run_cell("LR", exploding_factory, "amazon-cds",
                          dataset_override=tiny_data)
        assert second.auc == first.auc

    def test_extra_key_separates_cells(self, tiny_data, isolated_cache):
        run_cell("LR", baseline_factory("LR"), "amazon-cds",
                 dataset_override=tiny_data)
        run_cell("LR", baseline_factory("LR"), "amazon-cds",
                 dataset_override=tiny_data, extra_key="sr=0.8")
        assert len(list(isolated_cache.glob("*.json"))) == 2

    def test_train_transform_applied(self, tiny_data, isolated_cache):
        captured = {}

        def transform(train, seed):
            captured["size"] = len(train)
            return train.subset(np.arange(10))

        run_cell("LR", baseline_factory("LR"), "amazon-cds",
                 dataset_override=tiny_data, train_transform=transform,
                 extra_key="subset")
        assert captured["size"] == len(tiny_data.train)


class TestSourceKey:
    """The cache key carries a digest of the package's source, so a cell
    re-runs whenever any ``src/repro/**/*.py`` byte moves."""

    PACKAGE = Path(runner_module.__file__).resolve().parents[1]

    def test_one_source_byte_moves_the_key_and_nothing_else_does(self,
                                                                 tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(self.PACKAGE, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        digest = runner_module.source_digest
        want = digest(self.PACKAGE)
        assert digest(copy) == want
        (copy / "notes.txt").write_text("not source")
        (copy / "__pycache__").mkdir()
        (copy / "__pycache__" / "stale.pyc").write_bytes(b"\0")
        assert digest(copy) == want

        target = copy / "core" / "losses.py"
        original = target.read_bytes()
        target.write_bytes(original[:-1] + bytes([original[-1] ^ 1]))
        assert digest(copy) != want
        target.write_bytes(original)
        assert digest(copy) == want
        target.rename(copy / "core" / "losses_renamed.py")
        assert digest(copy) != want

    def test_the_cell_key_is_keyed_on_this_package(self):
        key = json.loads(runner_module._cache_key("LR", "amazon-cds"))
        assert key["source"] == runner_module.source_digest(self.PACKAGE)
        assert "version" not in key
