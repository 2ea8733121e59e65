"""Tests for state-dict round trips, world diagnostics, the CLI, and the
harness-choice switches of the MISS module."""

import json

import numpy as np
import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.core import MISSConfig, MISSModule
from repro.core.encoders import FieldAwareViewEncoder, ViewEncoder
from repro.data import (
    InterestWorld,
    InterestWorldConfig,
    build_ctr_data,
    diagnose_world,
    topic_adjacency_curve,
)
from repro.models import FeatureEmbedder, create_model
from repro.obs import check_record, get_tracer, read_trace


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=5)
    return build_ctr_data(InterestWorld(config), max_seq_len=10, seed=6)


@pytest.fixture(scope="module")
def batch(data):
    return data.train.batch(np.arange(16))


class TestSerialization:
    def test_buffers_roundtrip(self, data, batch):
        model = create_model("DIN", data.schema, seed=1)
        model.training_loss(batch)  # populate Dice running stats
        other = create_model("DIN", data.schema, seed=2)
        other.load_state_dict(model.state_dict())
        model.eval()
        other.eval()
        np.testing.assert_allclose(other.predict_logits(batch).data,
                                   model.predict_logits(batch).data)


class TestHarnessSwitches:
    def test_field_aware_encoder_switch(self, data):
        aware = MISSModule(data.schema, 8, MISSConfig(seed=0),
                           np.random.default_rng(0))
        assert isinstance(aware.feature_encoder, FieldAwareViewEncoder)
        plain = MISSModule(data.schema, 8,
                           MISSConfig(seed=0, field_aware_encoder=False),
                           np.random.default_rng(0))
        assert isinstance(plain.feature_encoder, ViewEncoder)

    def test_dedup_switch_changes_loss(self, data, batch):
        emb = FeatureEmbedder(data.schema, 8, np.random.default_rng(1))
        c = emb.sequence_embeddings(batch)
        on = MISSModule(data.schema, 8,
                        MISSConfig(seed=0, dedup_false_negatives=True),
                        np.random.default_rng(0))
        off = MISSModule(data.schema, 8,
                         MISSConfig(seed=0, dedup_false_negatives=False),
                         np.random.default_rng(0))
        # Same parameters (same init seed), same rng stream → difference, if
        # any, comes purely from the denominator masking.
        off.load_state_dict(on.state_dict())
        loss_on = sum(t.item() for t in on.ssl_losses(c, batch.mask,
                                                      batch.sequences))
        loss_off = sum(t.item() for t in off.ssl_losses(c, batch.mask,
                                                        batch.sequences))
        assert loss_on <= loss_off + 1e-9


class TestWorldDiagnostics:
    @pytest.fixture(scope="class")
    def world(self):
        return InterestWorld(InterestWorldConfig(
            num_users=80, num_items=150, num_topics=8, num_categories=4,
            interests_per_user=(3, 5), seed=1))

    def test_closeness_above_chance(self, world):
        diag = diagnose_world(world)
        assert diag.closeness > 0.4
        assert 0 <= diag.recurrence <= 1
        assert diag.missclick_rate == pytest.approx(0.05, abs=0.03)

    def test_adjacency_curve_decays(self, world):
        curve = topic_adjacency_curve(world, max_lag=6)
        assert curve.shape == (6,)
        assert curve[0] > curve[-1]
        assert np.all((curve >= 0) & (curve <= 1))

    def test_adjacency_curve_validation(self, world):
        with pytest.raises(ValueError):
            topic_adjacency_curve(world, max_lag=0)

    def test_item_frequency_stats_ordered(self, world):
        diag = diagnose_world(world)
        assert diag.item_frequency_p90 >= diag.item_frequency_median >= 1


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--model", "LR", "--epochs", "2"])
        assert args.command == "train"
        assert args.model == "LR"

    def test_train_command_runs(self, capsys):
        code = main(["train", "--model", "LR", "--dataset", "amazon-cds",
                     "--scale", "0.08", "--epochs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LR on amazon-cds" in out and "AUC" in out

    def test_compare_command_runs(self, capsys):
        code = main(["compare", "--models", "LR", "DeepFM",
                     "--dataset", "amazon-cds", "--scale", "0.08",
                     "--epochs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        # MISS attaches to the first embedding-based model (LR has none).
        assert "DeepFM-MISS" in out

    @pytest.mark.parametrize("verb, extra", [
        ("train", ["--model", "LR"]),
        ("compare", ["--models", "LR"]),
        ("export", ["--model", "LR", "--out", "unused"]),
    ])
    def test_batch_size_flag_reaches_the_train_config(self, monkeypatch, verb,
                                                      extra):
        # `export` used to build its TrainConfig without batch_size and
        # silently trained at 128.
        class Captured(Exception):
            pass

        def capture(model, data, config, **kwargs):
            raise Captured(config)

        monkeypatch.setattr(repro.cli, "run_experiment", capture)
        with pytest.raises(Captured) as caught:
            main([verb, *extra, "--scale", "0.08", "--batch-size", "48",
                  "--eval-batch-size", "96"])
        (config,) = caught.value.args
        assert (config.batch_size, config.eval_batch_size) == (48, 96)

    def test_stream_train_validates_flags_before_bootstrapping(self,
                                                               tmp_path):
        from repro.serving import ModelRegistry
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["stream-train", "--registry", str(tmp_path / "reg"),
                  "--bootstrap-epochs", "1", "--scale", "0.08", "--resume"])
        # The bootstrap (train + publish + promote) must not have run.
        assert ModelRegistry(tmp_path / "reg").versions() == []

    def test_stream_train_runs_end_to_end(self, tmp_path, capsys):
        trace = tmp_path / "stream.jsonl"
        code = main(["stream-train", "--registry", str(tmp_path / "reg"),
                     "--bootstrap-epochs", "1", "--scale", "0.08",
                     "--windows", "4", "--impressions", "16",
                     "--log-jsonl", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):out.rindex("}") + 1])
        assert summary["windows"] == 4 and summary["dropped"] == 0
        records = read_trace(str(trace))
        assert [check_record(r) for r in records] == [None] * len(records)
        assert main(["inspect-run", str(trace)]) == 0
        assert "Streaming run: 4 windows" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        "--stream-seed", "--cold-fraction", "--cold-start-window",
        "--cold-per-window", "--cold-activity", "--noise-rate",
        "--noise-burst", "--noise-burst-rate", "--export-every"])
    def test_removed_stream_flags_are_usage_errors(self, flag, capsys):
        # Scenario knobs live on StreamConfig; the CLI drives drift only.
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(["stream-train", "--registry", "r",
                                       flag, "1"])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--breaker-threshold", "--breaker-window-s", "--breaker-cooldown-s",
        "--breaker-min-requests"])
    def test_removed_breaker_flags_are_usage_errors(self, flag, capsys):
        # The breaker's policy is serving.admission's constants, and serve
        # always arms it.
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(["serve", "--artifact", "a", flag, "1"])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @staticmethod
    def _track_writers(monkeypatch):
        opened = []

        class Tracked(repro.cli.JsonlTraceWriter):
            def __init__(self, path):
                super().__init__(path)
                opened.append(self)

        monkeypatch.setattr(repro.cli, "JsonlTraceWriter", Tracked)
        return opened

    def test_rejected_trace_sample_leaves_no_writer_open(self, monkeypatch,
                                                         tmp_path):
        opened = self._track_writers(monkeypatch)
        monkeypatch.setattr(repro.cli, "_load_session", lambda path: None)
        with pytest.raises(SystemExit, match="--trace-sample"):
            main(["serve", "--artifact", str(tmp_path / "artifact"),
                  "--log-jsonl", str(tmp_path / "serve.jsonl"),
                  "--trace-sample", "2"])
        assert len(opened) == 1 and opened[0].closed
        assert get_tracer() is None

    def test_shared_trace_path_opens_one_writer(self, monkeypatch, tmp_path):
        # Events and spans go through one writer into the one --log-jsonl.
        opened = self._track_writers(monkeypatch)
        path = tmp_path / "run.jsonl"
        assert main(["train", "--model", "LR", "--scale", "0.08",
                     "--epochs", "1", "--log-jsonl", str(path)]) == 0
        kinds = {json.loads(line)["event"]
                 for line in path.read_text().splitlines()}
        assert {"run_start", "run_end", "span"} <= kinds
        assert len(opened) == 1 and opened[0].closed
        assert get_tracer() is None      # uninstalled on the way out

    @pytest.mark.parametrize("argv", [
        ["train", "--trace-jsonl", "t.jsonl"],
        ["serve", "--artifact", "a", "--trace-jsonl", "t.jsonl"],
        ["stream-train", "--registry", "r", "--trace-jsonl", "t.jsonl"],
        ["train", "--trace-sample", "0.5"],
        ["stream-train", "--registry", "r", "--trace-sample", "0.5"],
        ["inspect-run", "t.jsonl", "--spans"],
        ["inspect-run", "t.jsonl", "--stream"],
    ], ids=["train-trace-jsonl", "serve-trace-jsonl",
            "stream-train-trace-jsonl", "train-trace-sample",
            "stream-train-trace-sample", "inspect-run-spans",
            "inspect-run-stream"])
    def test_removed_trace_flags_are_usage_errors(self, argv, capsys):
        # One trace per run (--log-jsonl) and one report (inspect-run).
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_miss_rejects_shallow_models(self, data):
        from repro.core import attach_miss
        with pytest.raises(TypeError):
            attach_miss(create_model("LR", data.schema, seed=1), MISSConfig())

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "GPT"])
