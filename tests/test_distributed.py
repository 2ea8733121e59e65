"""Tests for repro.distributed: partitioning, shared-memory transport, the
fold-tree collective, optimizer state round-trips, and the determinism
contract (process mode == emulation, bit for bit)."""

import argparse
import copy
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _train_distributed
from repro.core import MISSConfig, attach_miss
from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.data.pipeline import (
    ShardPartitionView,
    ShardedCTRDataset,
    partition_shards,
)
from repro.distributed import (
    DistSpec,
    DistributedRunError,
    FlatLayout,
    SharedArena,
    apply_update,
    pairwise_fold,
    prepare_dist_data,
    rank_rng,
    reduce_mean,
    run_distributed,
    run_emulated,
    steps_per_epoch,
)
from repro.distributed.worker import build_model
from repro.models import create_model
from repro.nn import SGD, Adam, clip_grad_norm
from repro.nn.backend import get_backend
from repro.obs import DistSyncEvent, ObserverList
from repro.resilience import CheckpointStore
from repro.streaming import IncrementalConfig, IncrementalTrainer
from repro.training import TrainConfig, Trainer, train_pretrain


# ---------------------------------------------------------------------------
# Fixtures: a small on-disk sharded world
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=60, num_items=90, num_topics=6,
                                 num_categories=3, min_interactions=3, seed=5)
    return build_ctr_data(InterestWorld(config), max_seq_len=8, seed=3)


@pytest.fixture(scope="module")
def shard_dirs(data, tmp_path_factory):
    base = tmp_path_factory.mktemp("dist-data")
    return prepare_dist_data(data.train, data.validation, base,
                             shard_size=max(8, len(data.train) // 8))


def make_spec(shard_dirs, **overrides):
    train_dir, val_dir = shard_dirs
    kwargs = dict(
        model_name="DIN", miss=None, model_seed=1,
        backend=get_backend().name,
        train_dir=str(train_dir), val_dir=str(val_dir),
        config=dict(epochs=1, batch_size=8, eval_batch_size=128,
                    learning_rate=1e-2, weight_decay=1e-5, patience=3,
                    grad_clip=10.0, seed=0),
        world_size=2, cache_shards=4,
        checkpoint_dir=None, checkpoint_every=None,
        barrier_timeout_s=60.0)
    kwargs.update(overrides)
    return DistSpec(**kwargs)


# ---------------------------------------------------------------------------
# Shard partitioning
# ---------------------------------------------------------------------------
class TestPartitioning:
    @settings(max_examples=60, deadline=None)
    @given(num_shards=st.integers(1, 48), world_size=st.integers(1, 48))
    def test_disjoint_exact_cover(self, num_shards, world_size):
        if world_size > num_shards:
            with pytest.raises(ValueError):
                partition_shards(num_shards, world_size)
            return
        parts = partition_shards(num_shards, world_size)
        assert len(parts) == world_size
        assert all(part for part in parts)  # no rank left empty
        flat = [i for part in parts for i in part]
        assert sorted(flat) == list(range(num_shards))  # disjoint, exact

    def test_round_robin_balance(self):
        parts = partition_shards(10, 3)
        sizes = sorted(len(p) for p in parts)
        assert sizes == [3, 3, 4]

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            partition_shards(0, 1)
        with pytest.raises(ValueError):
            partition_shards(4, 0)

    def test_view_matches_base_rows(self, data, shard_dirs):
        train_dir, _ = shard_dirs
        base = ShardedCTRDataset(train_dir)
        view = ShardPartitionView(base, partition_shards(base.num_shards, 2)[1])
        rows = base.shard_rows()
        owned = partition_shards(base.num_shards, 2)[1]
        assert len(view) == sum(rows[i] for i in owned)
        assert view.schema == base.schema
        batch = view.batch(np.arange(min(4, len(view))))
        offsets = np.cumsum([0] + rows)
        base_batch = base.batch(offsets[owned[0]] + np.arange(len(batch)))
        np.testing.assert_array_equal(batch.labels, base_batch.labels)
        np.testing.assert_array_equal(batch.categorical,
                                      base_batch.categorical)

    def test_view_rejects_bad_shard_ids(self, shard_dirs):
        train_dir, _ = shard_dirs
        base = ShardedCTRDataset(train_dir)
        with pytest.raises(ValueError):
            ShardPartitionView(base, [])
        with pytest.raises(ValueError):
            ShardPartitionView(base, [0, 0])
        with pytest.raises(ValueError):
            ShardPartitionView(base, [base.num_shards])

    def test_steps_per_epoch_is_lockstep_minimum(self):
        assert steps_per_epoch([100, 64, 80], 16) == 4
        with pytest.raises(ValueError):
            steps_per_epoch([100, 10], 16)
        with pytest.raises(ValueError):
            steps_per_epoch([100], 0)


# ---------------------------------------------------------------------------
# Fold-tree collective
# ---------------------------------------------------------------------------
class TestCollective:
    def test_fold_is_fixed_balanced_tree(self):
        a, b, c, d, e = (np.float64(x) for x in (0.1, 0.2, 0.3, 0.4, 0.5))
        assert pairwise_fold([a, b, c]) == (a + b) + c
        assert pairwise_fold([a, b, c, d, e]) == ((a + b) + (c + d)) + e

    def test_fold_never_mutates_and_copies_singletons(self):
        parts = [np.ones(3), np.full(3, 2.0)]
        out = pairwise_fold(parts)
        np.testing.assert_array_equal(parts[0], np.ones(3))
        out[0] = -1.0
        np.testing.assert_array_equal(parts[0], np.ones(3))
        single = np.ones(4)
        folded = pairwise_fold([single])
        folded *= 5.0
        np.testing.assert_array_equal(single, np.ones(4))

    def test_fold_rejects_empty(self):
        with pytest.raises(ValueError):
            pairwise_fold([])

    def test_reduce_mean_matches_fold(self):
        parts = [np.arange(4.0), np.arange(4.0) * 2, np.arange(4.0) * 3]
        np.testing.assert_array_equal(reduce_mean(parts),
                                      pairwise_fold(parts) / 3)

    def test_rank_rng_deterministic_and_distinct(self):
        a1 = rank_rng(7, 0).random(4)
        a2 = rank_rng(7, 0).random(4)
        b = rank_rng(7, 1).random(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)


# ---------------------------------------------------------------------------
# FlatLayout + SharedArena transport
# ---------------------------------------------------------------------------
class TestTransport:
    def _model(self, data):
        return create_model("DIN", data.schema, seed=3)

    def test_pack_unpack_params_round_trip(self, data, tmp_path):
        model = self._model(data)
        params = model.parameters()
        layout = FlatLayout.from_parameters(model.named_parameters())
        arena = SharedArena.create(tmp_path, world_size=2,
                                   param_size=layout.size)
        layout.pack_params(params, arena.params)
        other = self._model(data)
        for p in other.parameters():
            p.data[...] = 0.0
        layout.unpack_params(arena.params, other.parameters())
        for mine, theirs in zip(params, other.parameters()):
            np.testing.assert_array_equal(mine.data, theirs.data)

    def test_pack_grads_none_becomes_zero(self, data, tmp_path):
        model = self._model(data)
        params = model.parameters()
        layout = FlatLayout.from_parameters(model.named_parameters())
        arena = SharedArena.create(tmp_path, world_size=1,
                                   param_size=layout.size)
        params[0].grad = np.ones_like(params[0].data)
        layout.pack_grads(params, arena.grad_slot(0))
        n0 = params[0].data.size
        np.testing.assert_array_equal(arena.grad_slot(0)[:n0], 1.0)
        np.testing.assert_array_equal(arena.grad_slot(0)[n0:], 0.0)

    def test_layout_rejects_wrong_buffer(self, data):
        model = self._model(data)
        layout = FlatLayout.from_parameters(model.named_parameters())
        with pytest.raises(ValueError):
            layout.pack_params(model.parameters(),
                               np.zeros(layout.size, dtype=np.float32))
        with pytest.raises(ValueError):
            layout.pack_params(model.parameters(),
                               np.zeros(layout.size + 1))

    def test_arena_attach_shares_memory(self, tmp_path):
        arena = SharedArena.create(tmp_path, world_size=2, param_size=8)
        twin = SharedArena.attach(arena.spec())
        arena.params[...] = np.arange(8.0)
        np.testing.assert_array_equal(twin.params, np.arange(8.0))
        twin.losses[1] = 0.25
        assert arena.losses[1] == 0.25

    @pytest.mark.parametrize("optimizer_cls", [SGD, Adam])
    def test_optimizer_state_round_trips_through_buffers(
            self, data, tmp_path, optimizer_cls):
        # The resume contract: optimizer moments that crossed a float64
        # memmap must continue the trajectory bitwise.
        model = self._model(data)
        params = model.parameters()
        layout = FlatLayout.from_parameters(model.named_parameters())
        optimizer = optimizer_cls(params, lr=1e-2, weight_decay=1e-5)
        rng = np.random.default_rng(0)
        for _ in range(3):
            for p in params:
                p.grad = rng.standard_normal(p.data.shape)
            optimizer.step()
        state = optimizer.state_dict()
        buffered = {}
        for key, array in state["arrays"].items():
            slab = np.memmap(tmp_path / f"{key.replace('.', '_')}.buf",
                             dtype=np.float64, mode="w+",
                             shape=np.asarray(array).shape)
            slab[...] = array
            buffered[key] = np.asarray(slab).copy()
        restored = {**state, "arrays": buffered}
        twin = self._model(data)
        twin.load_state_dict(model.state_dict())
        twin_opt = optimizer_cls(twin.parameters(), lr=1e-2,
                                 weight_decay=1e-5)
        twin_opt.load_state_dict(restored)
        grads = [rng.standard_normal(p.data.shape) for p in params]
        for p, q, g in zip(params, twin.parameters(), grads):
            p.grad = g.copy()
            q.grad = g.copy()
        optimizer.step()
        twin_opt.step()
        for p, q in zip(params, twin.parameters()):
            np.testing.assert_array_equal(p.data, q.data)


# ---------------------------------------------------------------------------
# Every driver takes the reference step
# ---------------------------------------------------------------------------
GRAD_CLIP = 10.0
LR = 1e-2
WEIGHT_DECAY = 1e-5


def reference_step(model, batch, optimizer, objective=None):
    """The paper's optimisation step, spelled out by hand.  This is the
    reference every loop in ``src/`` is compared against — keep it
    independent of ``repro.training.step``."""
    optimizer.zero_grad()
    loss = (objective or model.training_loss)(batch)
    loss.backward()
    clip_grad_norm(optimizer.parameters, GRAD_CLIP)
    optimizer.step()


def _arrays(model):
    return [p.data for p in model.parameters()]


class TestReferenceStep:
    """One step through each driver == ``reference_step`` on a deep-copied
    twin (same weights, same module RNG streams), bit for bit.  A case
    returns the driven and the reference parameter arrays, then the two
    Adam states where the driver exposes its optimizer (else ``None``)."""

    def _pair(self, data, miss=False):
        model = create_model("DIN", data.schema, seed=3)
        if miss:
            model = attach_miss(model, MISSConfig(seed=0))
        model.train()
        twin = copy.deepcopy(model)
        return model, twin, Adam(twin.parameters(), lr=LR,
                                 weight_decay=WEIGHT_DECAY)

    def _config(self, rows):
        return TrainConfig(epochs=1, batch_size=rows, learning_rate=LR,
                           weight_decay=WEIGHT_DECAY, grad_clip=GRAD_CLIP,
                           patience=1, seed=0)

    def _case_trainer(self, data, rows, tmp_path, shard_dirs):
        model, twin, optimizer = self._pair(data)
        cfg = self._config(len(rows))
        Trainer(cfg).fit(model, rows, data.validation,
                         checkpoint_dir=tmp_path)
        ckpt, _, _ = CheckpointStore(tmp_path).load_latest()
        order = np.random.default_rng(cfg.seed).permutation(len(rows))
        reference_step(twin, rows.batch(order), optimizer)
        return (_arrays(model), _arrays(twin),
                ckpt.optimizer_state, optimizer.state_dict())

    def _case_incremental(self, data, rows, tmp_path, shard_dirs):
        model, twin, optimizer = self._pair(data)
        trainer = IncrementalTrainer(
            model, IncrementalConfig(
                learning_rate=LR, weight_decay=WEIGHT_DECAY,
                grad_clip=GRAD_CLIP, batch_size=len(rows)),
            anomaly_guard=False)
        trainer.process_window(rows, window=0)
        reference_step(twin, rows.as_single_batch(), optimizer)
        return (_arrays(model), _arrays(twin),
                trainer.optimizer.state_dict(), optimizer.state_dict())

    def _case_pretrain(self, data, rows, tmp_path, shard_dirs):
        # Stage two (CTR fine-tuning of ``model.base``) runs on both sides
        # through ``Trainer.fit``; what is compared is stage one's SSL step.
        model, twin, optimizer = self._pair(data, miss=True)
        cfg = self._config(len(rows))
        train_pretrain(model, rows, data.validation, cfg, pretrain_epochs=1)
        order = np.random.default_rng(cfg.seed).permutation(len(rows))
        reference_step(twin, rows.batch(order), optimizer, twin.ssl_loss)
        Trainer(cfg).fit(twin.base, rows, data.validation)
        return _arrays(model), _arrays(twin), None, None

    def _case_apply_update(self, data, rows, tmp_path, shard_dirs):
        model, twin, optimizer = self._pair(data)
        params = model.parameters()
        driven = Adam(params, lr=LR, weight_decay=WEIGHT_DECAY)
        layout = FlatLayout.from_parameters(model.named_parameters())
        batch = rows.as_single_batch()
        model.training_loss(batch).backward()
        slot = np.empty(layout.size)
        layout.pack_grads(params, slot)
        apply_update(driven, layout, [slot], GRAD_CLIP)
        reference_step(twin, batch, optimizer)
        return (_arrays(model), _arrays(twin),
                driven.state_dict(), optimizer.state_dict())

    def _case_emulated(self, data, rows, tmp_path, shard_dirs):
        train = ShardedCTRDataset(shard_dirs[0])
        n = len(train)    # one batch per epoch: steps_per_epoch == 1
        spec = make_spec(shard_dirs, world_size=1,
                         config=asdict(self._config(n)))
        result = run_emulated(spec)
        assert result["steps"] == 1
        twin = build_model(spec, train.schema)
        twin.train()
        view = ShardPartitionView(train, list(range(train.num_shards)))
        reference_step(twin, view.batch(rank_rng(0, 0).permutation(n)),
                       Adam(twin.parameters(), lr=LR,
                            weight_decay=WEIGHT_DECAY))
        names = [name for name, _ in twin.named_parameters()]
        return ([result["final_state"][name] for name in names],
                _arrays(twin), None, None)

    @pytest.mark.parametrize("driver", ["trainer", "incremental", "pretrain",
                                        "apply_update", "emulated"])
    def test_driver_takes_the_reference_step(self, data, tmp_path,
                                             shard_dirs, driver):
        rows = data.train.subset(np.arange(32))
        got, want, got_adam, want_adam = getattr(self, f"_case_{driver}")(
            data, rows, tmp_path, shard_dirs)
        assert len(got) == len(want)
        for p, q in zip(got, want):
            np.testing.assert_array_equal(p, q)
        if want_adam is not None:
            assert got_adam["arrays"].keys() == want_adam["arrays"].keys()
            for key, moment in want_adam["arrays"].items():
                np.testing.assert_array_equal(got_adam["arrays"][key], moment)


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------
class TestDistSyncEvent:
    def test_payload_is_json_safe_and_fans_out(self):
        event = DistSyncEvent(rank=1, world_size=2, step=3, epoch=0,
                              wait_ms=1.25, loss=np.float64(0.5))
        payload = event.payload()
        json.dumps(payload)
        assert payload["rank"] == 1 and payload["loss"] == 0.5

        seen = []

        class Sink:
            def on_dist_sync(self, event):
                seen.append(event)

        ObserverList.build([Sink()]).emit(event)
        assert seen == [event]


# ---------------------------------------------------------------------------
# End-to-end determinism (the tentpole contract)
# ---------------------------------------------------------------------------
class TestEndToEnd:
    def test_emulation_runs_and_reports(self, shard_dirs):
        payload = run_emulated(make_spec(shard_dirs))
        assert payload["completed"] and payload["mode"] == "emulated"
        assert payload["steps"] == payload["steps_per_epoch"]
        assert len(payload["step_losses"]) == payload["steps"]
        assert all(np.isfinite(v) for v in payload["step_losses"])

    def test_emulation_rejects_resume_and_chaos(self, shard_dirs):
        with pytest.raises(ValueError):
            run_emulated(make_spec(shard_dirs, resume_step=5,
                                   checkpoint_dir="/tmp/nope"))
        with pytest.raises(ValueError):
            run_emulated(make_spec(shard_dirs, fail_at=(0, 1)))

    def test_world_size_must_not_exceed_shards(self, shard_dirs):
        with pytest.raises(ValueError):
            run_emulated(make_spec(shard_dirs, world_size=64))

    def test_process_mode_matches_emulation_bitwise(self, shard_dirs):
        spec = make_spec(shard_dirs)
        emulated = run_distributed(spec, emulate=True)
        process = run_distributed(spec)
        assert process.step_losses == emulated.step_losses
        assert sorted(process.final_state) == sorted(emulated.final_state)
        for key in process.final_state:
            np.testing.assert_array_equal(process.final_state[key],
                                          emulated.final_state[key])
        # per-rank telemetry made it back to the parent
        assert process.metrics["dist.rank.0.steps"]["value"] == process.steps
        assert process.metrics["dist.rank.1.steps"]["value"] == process.steps

    @pytest.mark.slow
    def test_sigkill_then_resume_is_bit_identical(self, shard_dirs, tmp_path):
        clean = run_distributed(make_spec(shard_dirs))
        ckdir = tmp_path / "ck"
        chaos = make_spec(shard_dirs, checkpoint_dir=str(ckdir),
                          checkpoint_every=3,
                          fail_at=(1, max(2, clean.steps // 2)))
        with pytest.raises(DistributedRunError) as excinfo:
            run_distributed(chaos)
        assert 1 in excinfo.value.failed_ranks
        resumed = run_distributed(
            make_spec(shard_dirs, checkpoint_dir=str(ckdir),
                      checkpoint_every=3), resume=True)
        assert resumed.step_losses == clean.step_losses
        for key in clean.final_state:
            np.testing.assert_array_equal(resumed.final_state[key],
                                          clean.final_state[key])
        again = run_distributed(
            make_spec(shard_dirs, checkpoint_dir=str(ckdir),
                      checkpoint_every=3), resume=True)
        assert again.mode == "resumed-complete"


# ---------------------------------------------------------------------------
# CLI flag validation (no training is reached)
# ---------------------------------------------------------------------------
class TestCliValidation:
    def _args(self, **overrides):
        ns = argparse.Namespace(
            num_procs=2, dist_emulate=False, anomaly_guard=False,
            num_workers=0, resume=False, checkpoint_dir=None,
            shard_dir=None, miss=False, model="DIN", seed=0, epochs=1,
            learning_rate=1e-2, batch_size=128, eval_batch_size=128, alpha=1.0,
            temperature=0.1, checkpoint_every=200, keep_checkpoints=3,
            log_jsonl=None, verbose=False, trace_jsonl=None, trace_sample=1.0,
            profile=None, dataset="amazon-cds")
        vars(ns).update(overrides)
        return ns

    def test_rejects_anomaly_guard(self):
        with pytest.raises(SystemExit):
            _train_distributed(self._args(anomaly_guard=True), data=None)

    def test_rejects_prefetch_workers(self):
        with pytest.raises(SystemExit):
            _train_distributed(self._args(num_workers=2), data=None)

    def test_rejects_emulate_with_checkpoints(self):
        with pytest.raises(SystemExit):
            _train_distributed(
                self._args(dist_emulate=True, checkpoint_dir="/tmp/x"),
                data=None)

    def test_rejects_nonpositive_procs(self):
        with pytest.raises(SystemExit):
            _train_distributed(self._args(num_procs=0), data=None)

    @pytest.mark.parametrize("flag, field, value", [
        ("--verbose", "verbose", True),
        ("--trace-jsonl", "trace_jsonl", "/tmp/spans.jsonl"),
        ("--profile", "profile", "/tmp/stacks.txt"),
    ])
    def test_rejects_in_process_telemetry_flags(self, flag, field, value):
        # Ranks run headless: these used to be accepted and silently dropped.
        with pytest.raises(SystemExit, match=flag):
            _train_distributed(self._args(**{field: value}), data=None)
