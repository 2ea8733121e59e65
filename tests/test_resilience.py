"""Fault-injection suite for crash-safe training (repro.resilience).

Covers: atomic writes, checksummed checkpoint store with corruption fallback
and retention, optimizer state round-trips, RNG stream capture, bit-identical
resume after an injected crash and after a real SIGTERM, completed-run
resume, and NaN-loss rollback with learning-rate backoff.
"""

import json
import math
import os
import signal

import numpy as np
import pytest

from repro.core import MISSConfig, attach_miss
from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import create_model
from repro.nn import MLP, Adam, SGD, load_checkpoint, save_checkpoint
from repro.nn.layers import Dropout
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.obs import BaseObserver, JsonlTraceWriter, summarize_trace
from repro.resilience import (
    AnomalyGuardConfig,
    CheckpointCorruptError,
    CheckpointStore,
    NumericalAnomalyError,
    RunCheckpoint,
    TrainingInterrupted,
    atomic_write_bytes,
    atomic_write_npz,
    named_rng_states,
    restore_rng_states,
)
from repro.training import TrainConfig, Trainer, evaluate, predict_logits_array


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=4)
    return build_ctr_data(InterestWorld(config), max_seq_len=8, seed=5)


class Recorder(BaseObserver):
    """Collects every event kind/payload the trainer emits."""

    def __init__(self):
        self.events = []

    def _note(self, event):
        self.events.append((event.kind, event.payload()))

    on_run_start = on_epoch_start = on_batch_end = on_eval_end = _note
    on_run_end = on_checkpoint_written = on_checkpoint_restored = _note
    on_anomaly_detected = _note

    def kinds(self, kind):
        return [payload for k, payload in self.events if k == kind]


class CrashAtStep(BaseObserver):
    """Raises after the Nth optimiser step (injected hard crash)."""

    class Boom(RuntimeError):
        pass

    def __init__(self, step):
        self.step = step

    def on_batch_end(self, event):
        if event.step == self.step:
            raise self.Boom(f"injected crash at step {event.step}")


class KillAtStep(BaseObserver):
    """Sends a real SIGTERM to our own process after the Nth step."""

    def __init__(self, step):
        self.step = step

    def on_batch_end(self, event):
        if event.step == self.step:
            os.kill(os.getpid(), signal.SIGTERM)


class KillDuringEval(BaseObserver):
    """SIGTERM landing between the last training step and the epoch end."""

    def __init__(self, epoch):
        self.epoch = epoch

    def on_eval_end(self, event):
        if event.epoch == self.epoch:
            os.kill(os.getpid(), signal.SIGTERM)


def flip_payload_byte(manifest_path):
    """Flip one byte inside actual array data of a checkpoint's ``.npz``.

    Locating a stored array's raw bytes (uncompressed archives embed them
    verbatim) guarantees the corruption lands in payload, not in zip padding
    the reader never looks at.
    """
    npz = manifest_path.with_suffix(".npz")
    with np.load(npz) as archive:
        largest = max(archive.files,
                      key=lambda name: archive[name].nbytes)
        needle = np.ascontiguousarray(archive[largest]).tobytes()
    blob = bytearray(npz.read_bytes())
    offset = blob.find(needle)
    assert offset >= 0 and needle
    blob[offset + len(needle) // 2] ^= 0xFF
    npz.write_bytes(bytes(blob))


def assert_states_equal(a, b):
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_replaces_previous_contents(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert list(tmp_path.iterdir()) == [path]

    def test_failure_leaves_previous_file_and_no_temp(self, tmp_path):
        path = tmp_path / "f.npz"
        atomic_write_npz(path, {"a": np.arange(3)})
        before = path.read_bytes()

        def explode(fh):
            fh.write(b"partial")
            raise OSError("disk died")

        from repro.resilience import atomic_write
        with pytest.raises(OSError, match="disk died"):
            atomic_write(path, explode)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_save_checkpoint_is_atomic(self, tmp_path, monkeypatch, data):
        model = create_model("LR", data.schema, seed=1)
        path = save_checkpoint(model, tmp_path / "m")
        before = path.read_bytes()
        import repro.resilience.atomic as atomic_mod
        monkeypatch.setattr(atomic_mod.np, "savez_compressed",
                            lambda *a, **k: (_ for _ in ()).throw(
                                OSError("crash mid-save")))
        with pytest.raises(OSError, match="crash mid-save"):
            save_checkpoint(model, tmp_path / "m")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        # The surviving file still loads.
        load_checkpoint(create_model("LR", data.schema, seed=2), path)


# ----------------------------------------------------------------------
# Optimizer state dicts
# ----------------------------------------------------------------------
class TestOptimizerState:
    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        mlp = MLP(4, [8, 1], rng)
        return mlp

    def _step(self, mlp, opt, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(16, 4)))
        loss = (mlp(x) * mlp(x)).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()

    def test_adam_round_trip_is_exact(self):
        mlp_a = self._params()
        opt_a = Adam(mlp_a.parameters(), lr=0.05)
        for i in range(3):
            self._step(mlp_a, opt_a, i)
        saved_opt = opt_a.state_dict()
        saved_model = mlp_a.state_dict()

        mlp_b = self._params(seed=9)      # different init, will be overwritten
        opt_b = Adam(mlp_b.parameters(), lr=0.001)
        mlp_b.load_state_dict(saved_model)
        opt_b.load_state_dict(saved_opt)
        assert opt_b.lr == opt_a.lr and opt_b._t == opt_a._t

        for i in range(3, 6):
            self._step(mlp_a, opt_a, i)
            self._step(mlp_b, opt_b, i)
        assert_states_equal(mlp_a.state_dict(), mlp_b.state_dict())

    def test_sgd_round_trip(self):
        mlp = self._params()
        opt = SGD(mlp.parameters(), lr=0.1, momentum=0.9)
        self._step(mlp, opt, 0)
        state = opt.state_dict()
        opt2 = SGD(self._params(1).parameters(), lr=0.5, momentum=0.0)
        opt2.load_state_dict(state)
        assert opt2.momentum == 0.9
        np.testing.assert_array_equal(opt2._velocity[0], opt._velocity[0])

    def test_kind_mismatch_rejected(self):
        mlp = self._params()
        with pytest.raises(ValueError, match="SGD"):
            Adam(mlp.parameters()).load_state_dict(
                SGD(mlp.parameters()).state_dict())

    def test_shape_mismatch_rejected(self):
        state = Adam(self._params().parameters(), lr=0.1).state_dict()
        other = Adam(MLP(4, [3, 1], np.random.default_rng(0)).parameters())
        with pytest.raises(ValueError, match="missing array|shape mismatch"):
            other.load_state_dict(state)


# ----------------------------------------------------------------------
# RNG stream capture
# ----------------------------------------------------------------------
class TestRngState:
    def test_dropout_stream_replays(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5, np.random.default_rng(7))

            def forward(self, x):
                return self.drop(x)

        net = Net()
        x = Tensor(np.ones((4, 4)))
        net(x)                                  # advance the stream
        saved = named_rng_states(net)
        a = net(x).data.copy()
        restore_rng_states(net, saved)
        b = net(x).data.copy()
        np.testing.assert_array_equal(a, b)

    def test_strict_mismatch_raises(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5, np.random.default_rng(7))

        states = named_rng_states(Net())
        states["ghost"] = next(iter(states.values()))
        with pytest.raises(ValueError, match="unexpected"):
            restore_rng_states(Net(), states)


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------
def make_ckpt(step, seed=0):
    rng = np.random.default_rng(seed)
    return RunCheckpoint(
        model_state={"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)},
        optimizer_state={"kind": "Adam", "lr": 0.01, "weight_decay": 0.0,
                         "betas": [0.9, 0.999], "eps": 1e-8, "t": step,
                         "arrays": {"m.0": rng.normal(size=(3, 2)),
                                    "v.0": rng.normal(size=(3, 2))}},
        loader_rng_state=np.random.default_rng(step).bit_generator.state,
        module_rng_states={"drop._rng":
                           np.random.default_rng(step + 1).bit_generator.state},
        epoch=step // 10, batches_done=step % 10, step=step,
        best_auc=0.5 + 0.01 * step, best_epoch=0, bad_epochs=0,
        best_state={"w": rng.normal(size=(3, 2))},
        history=[{"auc": 0.6, "logloss": 0.69}],
        train_losses=[0.7], epoch_loss=1.5, num_batches=2,
        component_sums={"ctr": 1.4}, epochs_run=1, anomaly_retries=1,
        config={"epochs": 3}, completed=False,
    )


class TestCheckpointStore:
    def test_round_trip_exact(self, tmp_path):
        store = CheckpointStore(tmp_path)
        original = make_ckpt(7)
        path = store.save(original, is_best=True)
        loaded = store.load(path)
        assert_states_equal(loaded.model_state, original.model_state)
        assert_states_equal(loaded.best_state, original.best_state)
        assert_states_equal(loaded.optimizer_state["arrays"],
                            original.optimizer_state["arrays"])
        assert loaded.optimizer_state["t"] == 7
        assert loaded.loader_rng_state == original.loader_rng_state
        assert loaded.module_rng_states == original.module_rng_states
        assert loaded.step == 7 and loaded.batches_done == 7
        assert loaded.best_auc == original.best_auc
        assert loaded.history == original.history
        assert loaded.anomaly_retries == 1
        assert loaded.component_sums == {"ctr": 1.4}

    def test_flipped_byte_is_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(make_ckpt(3))
        flip_payload_byte(path)
        with pytest.raises(CheckpointCorruptError):
            store.load(path)

    def test_load_latest_falls_back_past_corruption(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_ckpt(3))
        latest = store.save(make_ckpt(6))
        flip_payload_byte(latest)
        ckpt, path, skipped = store.load_latest()
        assert ckpt is not None and ckpt.step == 3
        assert [p for p, _ in skipped] == [latest]

    def test_npz_without_manifest_is_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_ckpt(2))
        # Simulate a crash between the npz write and the manifest commit.
        atomic_write_npz(tmp_path / "ckpt-0000000009.npz",
                         {"model/w": np.zeros(2)})
        ckpt, _, skipped = store.load_latest()
        assert ckpt.step == 2 and skipped == []

    def test_retention_keeps_last_k_plus_best(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=2)
        for step in (1, 2, 3, 4, 5):
            store.save(make_ckpt(step), is_best=(step == 2))
        steps = [int(p.stem.split("-")[1]) for p in store.manifests()]
        assert steps == [2, 4, 5]
        assert {p.suffix for p in tmp_path.iterdir()} == {".json", ".npz"}

    def test_retention_drops_superseded_best(self, tmp_path):
        # When the newest best checkpoint sits inside the keep-last window,
        # an older best-flagged one is superseded and must age out too.
        store = CheckpointStore(tmp_path, keep_last=2)
        for step in (1, 2, 3, 4, 5):
            store.save(make_ckpt(step), is_best=(step in (2, 4)))
        steps = [int(p.stem.split("-")[1]) for p in store.manifests()]
        assert steps == [4, 5]

    def test_empty_dir(self, tmp_path):
        ckpt, path, skipped = CheckpointStore(tmp_path).load_latest()
        assert ckpt is None and path is None and skipped == []


# ----------------------------------------------------------------------
# Exact resume
# ----------------------------------------------------------------------
def train_control(data, model_name="LR", miss=False, epochs=3, seed=0):
    model = create_model(model_name, data.schema, seed=1)
    if miss:
        model = attach_miss(model, MISSConfig(seed=0))
    result = Trainer(TrainConfig(epochs=epochs, seed=seed, batch_size=8)).fit(
        model, data.train, data.validation)
    return model, result


def assert_same_outcome(result_a, result_b, model_a, model_b):
    assert result_a.best_epoch == result_b.best_epoch
    assert result_a.validation.auc == result_b.validation.auc
    assert result_a.validation.logloss == result_b.validation.logloss
    assert [(r.auc, r.logloss) for r in result_a.history] == \
        [(r.auc, r.logloss) for r in result_b.history]
    assert result_a.train_losses == result_b.train_losses
    assert_states_equal(model_a.state_dict(), model_b.state_dict())


@pytest.mark.slow
class TestExactResume:
    @pytest.mark.parametrize("miss", [False, True],
                             ids=["plain", "miss-rng-streams"])
    def test_crash_mid_epoch_resumes_bit_identically(self, tmp_path, data,
                                                     miss):
        model_name = "DIN" if miss else "LR"
        control_model, control = train_control(data, model_name, miss=miss)

        crashed = create_model(model_name, data.schema, seed=1)
        if miss:
            crashed = attach_miss(crashed, MISSConfig(seed=0))
        with pytest.raises(CrashAtStep.Boom):
            Trainer(TrainConfig(epochs=3, seed=0, batch_size=8)).fit(
                crashed, data.train, data.validation,
                observers=[CrashAtStep(7)],
                checkpoint_dir=tmp_path, checkpoint_every=3)

        resumed = create_model(model_name, data.schema, seed=1)
        if miss:
            resumed = attach_miss(resumed, MISSConfig(seed=0))
        result = Trainer(TrainConfig(epochs=3, seed=0, batch_size=8)).fit(
            resumed, data.train, data.validation,
            checkpoint_dir=tmp_path, resume=True, checkpoint_every=3)
        assert_same_outcome(control, result, control_model, resumed)

    def test_sigterm_checkpoints_and_resumes_bit_identically(self, tmp_path,
                                                             data):
        control_model, control = train_control(data)

        killed = create_model("LR", data.schema, seed=1)
        recorder = Recorder()
        handler_before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(TrainingInterrupted) as excinfo:
            Trainer(TrainConfig(epochs=3, seed=0, batch_size=8)).fit(
                killed, data.train, data.validation,
                observers=[KillAtStep(5), recorder],
                checkpoint_dir=tmp_path)
        assert excinfo.value.signum == signal.SIGTERM
        assert excinfo.value.exit_code == 128 + signal.SIGTERM
        assert excinfo.value.checkpoint is not None
        assert recorder.kinds("checkpoint_written")
        # The handler restored: a later SIGTERM must not be swallowed.
        assert signal.getsignal(signal.SIGTERM) == handler_before

        resumed = create_model("LR", data.schema, seed=1)
        result = Trainer(TrainConfig(epochs=3, seed=0, batch_size=8)).fit(
            resumed, data.train, data.validation,
            checkpoint_dir=tmp_path, resume=True)
        assert_same_outcome(control, result, control_model, resumed)

    def test_kill_at_epoch_boundary_resumes_bit_identically(self, tmp_path,
                                                            data):
        # With checkpoint_every=None (the fit default) the only checkpoints
        # are epoch-boundary ones.  Crashing on the first step after the
        # boundary forces resume to restart the next epoch from that
        # checkpoint — a stale loader-RNG capture would replay the finished
        # epoch's permutation and diverge from the uninterrupted run.
        control_model, control = train_control(data)
        steps_per_epoch = math.ceil(len(data.train) / 8)

        crashed = create_model("LR", data.schema, seed=1)
        with pytest.raises(CrashAtStep.Boom):
            Trainer(TrainConfig(epochs=3, seed=0, batch_size=8)).fit(
                crashed, data.train, data.validation,
                observers=[CrashAtStep(steps_per_epoch + 1)],
                checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path)
        newest = store.load(store.manifests()[-1])
        assert newest.epoch == 1 and newest.batches_done == 0

        resumed = create_model("LR", data.schema, seed=1)
        result = Trainer(TrainConfig(epochs=3, seed=0, batch_size=8)).fit(
            resumed, data.train, data.validation,
            checkpoint_dir=tmp_path, resume=True)
        assert_same_outcome(control, result, control_model, resumed)

    def test_sigterm_during_final_eval_still_interrupts(self, tmp_path, data):
        control_model, control = train_control(data, epochs=2)

        killed = create_model("LR", data.schema, seed=1)
        with pytest.raises(TrainingInterrupted) as excinfo:
            Trainer(TrainConfig(epochs=2, seed=0, batch_size=8)).fit(
                killed, data.train, data.validation,
                observers=[KillDuringEval(1)], checkpoint_dir=tmp_path)
        assert excinfo.value.signum == signal.SIGTERM
        assert excinfo.value.checkpoint is not None

        resumed = create_model("LR", data.schema, seed=1)
        result = Trainer(TrainConfig(epochs=2, seed=0, batch_size=8)).fit(
            resumed, data.train, data.validation,
            checkpoint_dir=tmp_path, resume=True)
        assert_same_outcome(control, result, control_model, resumed)

    def test_resume_with_only_corrupt_checkpoints_raises(self, tmp_path,
                                                         data):
        model = create_model("LR", data.schema, seed=1)
        Trainer(TrainConfig(epochs=1, seed=0, batch_size=8)).fit(
            model, data.train, data.validation, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path)
        assert store.manifests()
        for manifest in store.manifests():
            flip_payload_byte(manifest)

        fresh = create_model("LR", data.schema, seed=1)
        with pytest.raises(CheckpointCorruptError,
                           match="refusing to silently restart"):
            Trainer(TrainConfig(epochs=1, seed=0, batch_size=8)).fit(
                fresh, data.train, data.validation,
                checkpoint_dir=tmp_path, resume=True)

    def test_resume_falls_back_past_corrupt_checkpoint(self, tmp_path, data):
        control_model, control = train_control(data)
        first_model = create_model("LR", data.schema, seed=1)
        Trainer(TrainConfig(epochs=3, seed=0, batch_size=8)).fit(
            first_model, data.train, data.validation,
            checkpoint_dir=tmp_path, checkpoint_every=4, keep_checkpoints=10)
        store = CheckpointStore(tmp_path)
        latest = store.manifests()[-1]
        flip_payload_byte(latest)

        recorder = Recorder()
        resumed = create_model("LR", data.schema, seed=1)
        result = Trainer(TrainConfig(epochs=3, seed=0, batch_size=8)).fit(
            resumed, data.train, data.validation, observers=[recorder],
            checkpoint_dir=tmp_path, resume=True, checkpoint_every=4)
        restored = recorder.kinds("checkpoint_restored")
        assert restored and restored[0]["reason"] == "resume"
        assert restored[0]["skipped"] == [str(latest)]
        assert_same_outcome(control, result, control_model, resumed)

    def test_resume_of_completed_run_skips_training(self, tmp_path, data):
        model_a = create_model("LR", data.schema, seed=1)
        result_a = Trainer(TrainConfig(epochs=2, seed=0, batch_size=8)).fit(
            model_a, data.train, data.validation, checkpoint_dir=tmp_path)

        recorder = Recorder()
        model_b = create_model("LR", data.schema, seed=1)
        result_b = Trainer(TrainConfig(epochs=2, seed=0, batch_size=8)).fit(
            model_b, data.train, data.validation, observers=[recorder],
            checkpoint_dir=tmp_path, resume=True)
        assert recorder.kinds("epoch_start") == []
        assert recorder.kinds("run_start") == []
        assert_same_outcome(result_a, result_b, model_a, model_b)

    def test_resume_requires_checkpoint_dir(self, data):
        model = create_model("LR", data.schema, seed=1)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            Trainer(TrainConfig(epochs=1, seed=0, batch_size=8)).fit(
                model, data.train, data.validation, resume=True)


# ----------------------------------------------------------------------
# Anomaly guard
# ----------------------------------------------------------------------
def poison_loss(model, nan_calls):
    """Make ``training_loss`` return NaN on the given call numbers.

    ``nan_calls`` is a container of 1-based call numbers or a predicate.
    """
    original = model.training_loss
    predicate = nan_calls if callable(nan_calls) else nan_calls.__contains__
    counter = {"n": 0}

    def poisoned(batch):
        counter["n"] += 1
        loss = original(batch)
        if predicate(counter["n"]):
            loss.data = np.full_like(loss.data, np.nan)
        return loss

    model.training_loss = poisoned
    return counter


class TestAnomalyGuard:
    def test_transient_nan_rolls_back_and_recovers(self, data):
        model = create_model("LR", data.schema, seed=1)
        poison_loss(model, {6})
        recorder = Recorder()
        result = Trainer(TrainConfig(epochs=2, seed=0, batch_size=8)).fit(
            model, data.train, data.validation, observers=[recorder],
            anomaly_guard=True, checkpoint_every=4)
        anomalies = recorder.kinds("anomaly_detected")
        assert [a["anomaly"] for a in anomalies] == ["non_finite_loss"]
        assert anomalies[0]["step"] == 6
        rollbacks = [e for e in recorder.kinds("checkpoint_restored")
                     if e["reason"] == "rollback"]
        assert len(rollbacks) == 1 and rollbacks[0]["step"] == 4
        assert np.isfinite(result.validation.auc)

    def test_persistent_nan_exhausts_retry_budget(self, data):
        model = create_model("LR", data.schema, seed=1)
        poison_loss(model, lambda n: n >= 5)
        recorder = Recorder()
        guard_cfg = AnomalyGuardConfig(max_retries=2, backoff_factor=0.5)
        with pytest.raises(NumericalAnomalyError, match="retry budget"):
            Trainer(TrainConfig(epochs=2, seed=0, batch_size=8)).fit(
                model, data.train, data.validation, observers=[recorder],
                anomaly_guard=guard_cfg, checkpoint_every=3)
        anomalies = recorder.kinds("anomaly_detected")
        assert len(anomalies) == guard_cfg.max_retries + 1
        rollbacks = [e for e in recorder.kinds("checkpoint_restored")
                     if e["reason"] == "rollback"]
        assert len(rollbacks) == guard_cfg.max_retries
        # Learning rate backs off on every retry: each detection sees the
        # halved rate left behind by the previous rollback.
        lrs = [a["lr"] for a in anomalies]
        assert lrs == sorted(lrs, reverse=True) and lrs[-1] < lrs[0]

    def test_guard_writes_durable_rollback_target(self, tmp_path, data):
        model = create_model("LR", data.schema, seed=1)
        poison_loss(model, {6})
        recorder = Recorder()
        Trainer(TrainConfig(epochs=1, seed=0, batch_size=8)).fit(
            model, data.train, data.validation, observers=[recorder],
            checkpoint_dir=tmp_path, checkpoint_every=4, anomaly_guard=True)
        rollbacks = [e for e in recorder.kinds("checkpoint_restored")
                     if e["reason"] == "rollback"]
        assert rollbacks and rollbacks[0]["path"] is not None

    def test_spike_detection(self):
        from repro.resilience import AnomalyGuard
        guard = AnomalyGuard(AnomalyGuardConfig(spike_factor=10.0,
                                                spike_warmup=3))
        for _ in range(5):
            guard.record(1.0)
        assert guard.check_loss(0.9) is None
        assert guard.check_loss(50.0) == "loss_spike"
        assert guard.check_loss(float("inf")) == "non_finite_loss"
        assert guard.check_grad_norm(float("nan")) == "non_finite_grad"
        guard.reset_stats()
        assert guard.check_loss(50.0) is None     # EMA forgotten

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnomalyGuardConfig(backoff_factor=1.5)
        with pytest.raises(ValueError):
            AnomalyGuardConfig(max_retries=-1)
        with pytest.raises(ValueError):
            AnomalyGuardConfig(spike_factor=0.5)


# ----------------------------------------------------------------------
# Satellites: guards, config validation, trace writer
# ----------------------------------------------------------------------
class TestGuards:
    def test_evaluate_empty_split_raises_clearly(self, data):
        model = create_model("LR", data.schema, seed=1)
        empty = data.validation.subset(np.arange(0))
        with pytest.raises(ValueError, match="empty split.*no samples"):
            evaluate(model, empty)

    def test_predict_logits_empty_split_raises_clearly(self, data):
        model = create_model("LR", data.schema, seed=1)
        empty = data.test.subset(np.arange(0))
        with pytest.raises(ValueError, match="empty split.*no samples"):
            predict_logits_array(model, empty)

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0}, {"learning_rate": -1.0},
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"batch_size": 0}, {"grad_clip": 0.0},
        {"grad_clip": float("nan")}, {"weight_decay": -1e-3},
        {"weight_decay": float("inf")},
    ])
    def test_train_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_checkpoint_every_validated(self, data):
        model = create_model("LR", data.schema, seed=1)
        with pytest.raises(ValueError, match="checkpoint_every"):
            Trainer(TrainConfig(epochs=1)).fit(
                model, data.train, data.validation, checkpoint_every=0)


class TestTraceWriter:
    def test_resilience_events_serialise_and_summarise(self, tmp_path):
        from repro.obs import (AnomalyDetectedEvent, CheckpointRestoredEvent,
                               CheckpointWrittenEvent, RunStartEvent)
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(str(path)) as writer:
            writer.emit(RunStartEvent(model="LR", num_train=10,
                                      num_validation=5))
            writer.emit(CheckpointWrittenEvent(
                step=3, epoch=0, path="ckpt-3.json", is_best=True))
            writer.emit(AnomalyDetectedEvent(
                step=4, epoch=0, anomaly="non_finite_loss",
                value=float("nan"), lr=0.01, retries=1, retries_remaining=2))
            writer.emit(CheckpointRestoredEvent(
                step=3, epoch=0, reason="rollback"))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in lines] == [
            "run_start", "checkpoint_written", "anomaly_detected",
            "checkpoint_restored"]
        # The run-trace inspector tolerates the new kinds.
        assert summarize_trace(str(path)).model == "LR"

    def test_records_survive_without_close(self, tmp_path):
        from repro.obs import EpochStartEvent
        path = tmp_path / "trace.jsonl"
        writer = JsonlTraceWriter(str(path))
        writer.emit(EpochStartEvent(epoch=0))
        # No close: per-record flush means the event is already on disk,
        # exactly what a killed run leaves behind.
        assert json.loads(path.read_text().splitlines()[-1])["epoch"] == 0
        writer.close()
        writer.close()      # idempotent
        assert writer.closed
        with pytest.raises(ValueError, match="closed"):
            writer.emit(EpochStartEvent(epoch=1))
