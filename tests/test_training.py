"""Tests for metrics, calibration, trainer, strategies, and experiments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import MISSConfig, attach_miss
from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import create_model
from repro.training import (
    PlattScaler,
    TrainConfig,
    Trainer,
    auc_score,
    calibrated_eval,
    evaluate,
    logloss_score,
    predict_logits_array,
    relative_improvement,
    run_experiment,
    train_pretrain,
)


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=40, num_items=100, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=8)
    return build_ctr_data(InterestWorld(config), max_seq_len=10, seed=9)


class TestAUC:
    def test_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1], dtype=float)
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc_score(labels, scores) == 1.0

    def test_reversed_ranking(self):
        labels = np.array([0, 0, 1, 1], dtype=float)
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert auc_score(labels, scores) == 0.0

    def test_all_tied_is_half(self):
        labels = np.array([0, 1, 0, 1], dtype=float)
        scores = np.full(4, 0.5)
        assert auc_score(labels, scores) == pytest.approx(0.5)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            auc_score(np.ones(4), np.arange(4, dtype=float))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            auc_score(np.ones(3), np.ones(4))

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, 20,
                      elements=st.floats(-5, 5, allow_nan=False, width=32)
                      .map(lambda v: round(v, 3))))
    def test_monotone_transform_invariance(self, scores):
        labels = (np.arange(20) % 2).astype(float)
        base = auc_score(labels, scores)
        transformed = auc_score(labels, 3.0 * scores + 1.0)
        assert base == pytest.approx(transformed)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000))
    def test_matches_naive_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=12).astype(float)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=12)
        wins = ties = 0
        pos, neg = scores[labels == 1], scores[labels == 0]
        for p in pos:
            wins += (p > neg).sum()
            ties += (p == neg).sum()
        naive = (wins + 0.5 * ties) / (pos.size * neg.size)
        assert auc_score(labels, scores) == pytest.approx(naive)


class TestLogloss:
    def test_perfect_predictions(self):
        labels = np.array([1.0, 0.0])
        assert logloss_score(labels, np.array([1.0, 0.0])) < 1e-6

    def test_uniform_predictions(self):
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        assert logloss_score(labels, np.full(4, 0.5)) == pytest.approx(np.log(2))

    def test_clipping_prevents_infinity(self):
        labels = np.array([1.0])
        assert np.isfinite(logloss_score(labels, np.array([0.0])))

    def test_relative_improvement(self):
        assert relative_improvement(0.8, 0.88) == pytest.approx(10.0)
        with pytest.raises(ZeroDivisionError):
            relative_improvement(0.0, 1.0)


class TestPlattScaler:
    def test_preserves_auc(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=200).astype(float)
        logits = 5.0 * labels + rng.normal(size=200)
        scaler = PlattScaler.fit(logits, labels)
        before = auc_score(labels, logits)
        after = auc_score(labels, scaler.transform(logits))
        assert after == pytest.approx(before)

    def test_improves_overconfident_logloss(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=300).astype(float)
        # Over-confident logits: right direction, insane magnitude.
        logits = 40.0 * (labels - 0.5) + rng.normal(size=300) * 30.0
        raw = logloss_score(labels, 1 / (1 + np.exp(-np.clip(logits, -60, 60))))
        scaler = PlattScaler.fit(logits, labels)
        calibrated = logloss_score(labels, scaler.transform(logits))
        assert calibrated < raw

    def test_positive_slope(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=100).astype(float)
        scaler = PlattScaler.fit(rng.normal(size=100), labels)
        assert scaler.scale > 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PlattScaler.fit(np.zeros(3), np.zeros(4))


class TestTrainer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    def test_training_improves_over_init(self, data):
        model = create_model("DeepFM", data.schema, seed=1)
        before = evaluate(model, data.validation)
        result = Trainer(TrainConfig(epochs=5, seed=0)).fit(
            model, data.train, data.validation)
        assert result.validation.auc >= before.auc
        assert len(result.train_losses) >= 1

    def test_early_stopping_truncates(self, data):
        model = create_model("LR", data.schema, seed=1)
        config = TrainConfig(epochs=50, patience=2, seed=0)
        result = Trainer(config).fit(model, data.train, data.validation)
        assert len(result.history) < 50

    def test_best_state_restored(self, data):
        model = create_model("DeepFM", data.schema, seed=1)
        result = Trainer(TrainConfig(epochs=8, seed=0)).fit(
            model, data.train, data.validation)
        final = evaluate(model, data.validation)
        assert final.auc == pytest.approx(result.validation.auc)


class TestNaNValidation:
    """Regression tests: NaN validation AUC must not silently select the
    last epoch (NaN > best is always False, so best_epoch stayed -1)."""

    def test_all_nan_auc_raises(self, data, monkeypatch):
        from repro.training import trainer as trainer_module
        from repro.training.metrics import EvalResult
        monkeypatch.setattr(
            trainer_module, "evaluate",
            lambda model, dataset, batch_size=512: EvalResult(
                auc=float("nan"), logloss=float("nan")))
        model = create_model("LR", data.schema, seed=1)
        with pytest.raises(RuntimeError, match="finite validation AUC"):
            Trainer(TrainConfig(epochs=3, seed=0)).fit(
                model, data.train, data.validation)

    def test_nan_after_finite_epoch_keeps_best(self, data, monkeypatch):
        from repro.training import trainer as trainer_module
        from repro.training.metrics import EvalResult
        results = iter([EvalResult(auc=0.6, logloss=0.69)]
                       + [EvalResult(auc=float("nan"), logloss=0.7)] * 10)
        monkeypatch.setattr(
            trainer_module, "evaluate",
            lambda model, dataset, batch_size=512: next(results))
        model = create_model("LR", data.schema, seed=1)
        result = Trainer(TrainConfig(epochs=6, patience=2, seed=0)).fit(
            model, data.train, data.validation)
        assert result.best_epoch == 0
        assert result.validation.auc == pytest.approx(0.6)
        # NaN epochs count toward early stopping: 1 finite + patience bad.
        assert len(result.history) == 3

    def test_evaluate_runs_under_no_grad(self, data):
        from repro.nn import is_grad_enabled
        model = create_model("LR", data.schema, seed=1)
        flags = []
        original = model.predict_logits

        def probed(batch):
            flags.append(is_grad_enabled())
            return original(batch)

        model.predict_logits = probed
        evaluate(model, data.validation)
        assert flags and not any(flags)


class TestExperiment:
    def test_run_experiment_full_protocol(self, data):
        model = create_model("DeepFM", data.schema, seed=1)
        result = run_experiment(model, data, TrainConfig(epochs=3, seed=0),
                                model_name="DeepFM")
        assert result.model_name == "DeepFM"
        assert 0.0 <= result.auc <= 1.0
        assert np.isfinite(result.logloss)

    def test_predict_logits_array_matches_model(self, data):
        model = create_model("LR", data.schema, seed=1)
        logits = predict_logits_array(model, data.test)
        assert logits.shape == (len(data.test),)

    def test_calibrated_eval_preserves_auc(self, data):
        model = create_model("DeepFM", data.schema, seed=1)
        Trainer(TrainConfig(epochs=2, seed=0)).fit(model, data.train,
                                                   data.validation)
        _, test = calibrated_eval(model, data)
        raw = evaluate(model, data.test)
        assert test.auc == pytest.approx(raw.auc, abs=1e-9)

    def test_train_override_used(self, data):
        """Corruption studies pass a reduced train split explicitly."""
        tiny = data.train.subset(np.arange(8))
        model = create_model("LR", data.schema, seed=1)
        result = run_experiment(model, data, TrainConfig(epochs=1, seed=0),
                                train=tiny)
        assert np.isfinite(result.auc)


class TestStrategies:
    def test_joint_and_pretrain_both_run(self, data):
        config = TrainConfig(epochs=2, seed=0)
        base = create_model("DIN", data.schema, seed=1)
        joint = attach_miss(base, MISSConfig(seed=0))
        result = Trainer(config).fit(joint, data.train, data.validation)
        assert np.isfinite(result.validation.auc)

        base2 = create_model("DIN", data.schema, seed=1)
        pre = attach_miss(base2, MISSConfig(seed=0))
        result2 = train_pretrain(pre, data.train, data.validation, config,
                                 pretrain_epochs=1)
        assert np.isfinite(result2.validation.auc)

    def test_pretrain_changes_embeddings(self, data):
        config = TrainConfig(epochs=1, seed=0)
        base = create_model("DIN", data.schema, seed=1)
        model = attach_miss(base, MISSConfig(seed=0))
        before = model.embedder.tables[1].weight.data.copy()
        train_pretrain(model, data.train, data.validation, config,
                       pretrain_epochs=1)
        assert not np.allclose(before, model.embedder.tables[1].weight.data)

    def test_pretrain_validation(self, data):
        base = create_model("DIN", data.schema, seed=1)
        model = attach_miss(base, MISSConfig(seed=0))
        with pytest.raises(ValueError):
            train_pretrain(model, data.train, data.validation,
                           TrainConfig(epochs=1, seed=0), pretrain_epochs=0)
