"""Tests for repro.distributed: partitioning, shared-memory transport, the
fold-tree collective, optimizer state round-trips, and the determinism
contract (process mode == emulation, bit for bit)."""

import argparse
import copy
import json
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _train_distributed, main
from repro.core import MISSConfig, attach_miss
from repro.data import (
    DataLoader,
    InterestWorld,
    InterestWorldConfig,
    build_ctr_data,
)
from repro.data.batching import WINDOW_BATCHES
from repro.data.pipeline import (
    ShardPartitionView,
    ShardedCTRDataset,
    partition_shards,
)
from repro.distributed import (
    DistSpec,
    DistributedRunError,
    SharedArena,
    apply_update,
    pairwise_fold,
    prepare_dist_data,
    rank_rng,
    reduce_mean,
    run_distributed,
    steps_per_epoch,
)
from repro.distributed import worker
from repro.distributed.worker import build_model, read_manifest
from repro.models import create_model
from repro.nn import Adam, FlatParameters, clip_grad_norm
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

    def test_rank_loader_reads_view_windows(self, shard_dirs, monkeypatch):
        # A rank's loader reads its partition through the view's window
        # gather, and each batch equals the view's per-batch gather.
        train_dir, _ = shard_dirs
        base = ShardedCTRDataset(train_dir, cache_shards=2)
        view = ShardPartitionView(base,
                                  partition_shards(base.num_shards, 2)[1])
        windows = []
        gather = view.gather_batches

        def counting_gather(chunks):
            windows.append(len(chunks))
            return gather(chunks)

        monkeypatch.setattr(view, "gather_batches", counting_gather)
        loader = DataLoader(view, batch_size=4, rng=rank_rng(0, 1))
        got = list(loader.iter_batches(skip=1))
        order = rank_rng(0, 1).permutation(len(view))
        want = [view.batch(order[lo:lo + 4])
                for lo in range(4, len(view), 4)]
        assert len(got) == len(want) == len(loader) - 1
        for a, b in zip(got, want):
            for name in ("categorical", "sequences", "mask", "labels"):
                np.testing.assert_array_equal(getattr(a, name),
                                              getattr(b, name), err_msg=name)
        assert sum(windows) == len(got)
        assert max(windows) == WINDOW_BATCHES

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
# FlatParameters + SharedArena transport
# ---------------------------------------------------------------------------
class TestTransport:
    def _model(self, data):
        return create_model("DIN", data.schema, seed=3)

    def test_replicas_take_the_same_step_from_the_slots(self, data,
                                                        tmp_path):
        # Two replicas publish gradients of different batches; each folds
        # both slots and steps its own Adam, and they end bit-identical.
        models = [self._model(data) for _ in range(2)]
        optims = [Adam(m.parameters(), lr=1e-2, weight_decay=1e-5)
                  for m in models]
        flat = optims[0].flat
        arena = SharedArena.create(tmp_path, world_size=2,
                                   param_size=flat.data.size,
                                   param_count=len(flat.parameters))
        for rank, (model, optimizer) in enumerate(zip(models, optims)):
            batch = data.train.subset(np.arange(8 * rank, 8 * rank + 8))
            optimizer.zero_grad()
            model.training_loss(batch.as_single_batch()).backward()
            arena.grad_slot(rank)[...] = optimizer.flat.published_grad()
            arena.touched[rank] = optimizer.flat.touched
        assert not np.array_equal(arena.grad_slot(0), arena.grad_slot(1))
        for optimizer in optims:
            apply_update(optimizer, arena.grad_slots(), arena.touched,
                         grad_clip=10.0)
        np.testing.assert_array_equal(optims[0].flat.data,
                                      optims[1].flat.data)
        first, second = (o.state_dict()["arrays"] for o in optims)
        for key, moment in first.items():
            np.testing.assert_array_equal(second[key], moment)

    def test_pack_grads_none_becomes_zero(self, data, tmp_path):
        # An untouched parameter publishes zeros, also when its slice still
        # holds an earlier step's gradient.
        model = self._model(data)
        params = model.parameters()
        flat = FlatParameters(params)
        arena = SharedArena.create(tmp_path, world_size=1,
                                   param_size=flat.data.size,
                                   param_count=len(params))
        params[1].grad = np.full_like(params[1].data, 5.0)
        params[1].grad = None
        params[0].grad = np.ones_like(params[0].data)
        arena.grad_slot(0)[...] = flat.published_grad()
        arena.touched[0] = flat.touched
        n0 = params[0].data.size
        np.testing.assert_array_equal(arena.grad_slot(0)[:n0], 1.0)
        np.testing.assert_array_equal(arena.grad_slot(0)[n0:], 0.0)
        np.testing.assert_array_equal(arena.touched[0],
                                      [1.0] + [0.0] * (len(params) - 1))

    def test_arena_attach_shares_memory(self, tmp_path):
        arena = SharedArena.create(tmp_path, world_size=2, param_size=8,
                                   param_count=3)
        twin = SharedArena.attach(arena.spec())
        arena.grad_slot(1)[...] = np.arange(8.0)
        np.testing.assert_array_equal(twin.grad_slot(1), np.arange(8.0))
        twin.losses[1] = 0.25
        assert arena.losses[1] == 0.25
        twin.touched[1, 2] = 1.0
        assert arena.touched[1, 2] == 1.0

    def test_optimizer_state_round_trips_through_buffers(self, data,
                                                         tmp_path):
        # The resume contract: optimizer moments that crossed a float64
        # memmap must continue the trajectory bitwise.
        model = self._model(data)
        params = model.parameters()
        optimizer = Adam(params, lr=1e-2, weight_decay=1e-5)
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
        twin_opt = Adam(twin.parameters(), lr=1e-2, weight_decay=1e-5)
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
        # The learner's fixed batch (64) holds all 32 rows, and its fixed
        # weight decay and clip equal WEIGHT_DECAY and GRAD_CLIP.  Its armed
        # anomaly guard only watches: a healthy step is the same bits.
        trainer = IncrementalTrainer(model, IncrementalConfig(learning_rate=LR))
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

    def _case_apply_update(self, data, rows, tmp_path, shard_dirs,
                           miss=False):
        # A one-rank world: the rank's published gradient and touched flags
        # are all the update sees.
        model, twin, optimizer = self._pair(data, miss)
        driven = Adam(model.parameters(), lr=LR, weight_decay=WEIGHT_DECAY)
        batch = rows.as_single_batch()
        model.training_loss(batch).backward()
        slot = driven.flat.published_grad().copy()
        touched = driven.flat.touched.astype(np.float64)
        assert touched.all() != miss   # RS^if left a MIMFE kernel untouched
        driven.zero_grad()
        apply_update(driven, [slot], [touched], GRAD_CLIP)
        reference_step(twin, batch, optimizer)
        return (_arrays(model), _arrays(twin),
                driven.state_dict(), optimizer.state_dict())

    def _case_apply_update_miss(self, data, rows, tmp_path, shard_dirs):
        return self._case_apply_update(data, rows, tmp_path, shard_dirs,
                                       miss=True)

    def _case_emulated(self, data, rows, tmp_path, shard_dirs, miss=False):
        train = ShardedCTRDataset(shard_dirs[0])
        n = len(train)    # one batch per epoch: steps_per_epoch == 1
        spec = make_spec(shard_dirs, world_size=1,
                         miss={"seed": 0} if miss else None,
                         config=asdict(self._config(n)))
        result = run_distributed(spec, emulate=True)
        assert result.steps == 1
        twin = build_model(spec, train.schema)
        twin.train()
        view = ShardPartitionView(train, list(range(train.num_shards)))
        reference_step(twin, view.batch(rank_rng(0, 0).permutation(n)),
                       Adam(twin.parameters(), lr=LR,
                            weight_decay=WEIGHT_DECAY))
        untouched = [p for p in twin.parameters() if p.grad is None]
        assert bool(untouched) == miss
        names = [name for name, _ in twin.named_parameters()]
        return ([result.final_state[name] for name in names],
                _arrays(twin), None, None)

    def _case_emulated_miss(self, data, rows, tmp_path, shard_dirs):
        return self._case_emulated(data, rows, tmp_path, shard_dirs,
                                   miss=True)

    @pytest.mark.parametrize("driver", ["trainer", "incremental", "pretrain",
                                        "apply_update", "emulated",
                                        "apply_update_miss", "emulated_miss"])
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
        result = run_distributed(make_spec(shard_dirs), emulate=True)
        assert result.mode == "emulated"
        assert result.steps == result.steps_per_epoch
        assert len(result.step_losses) == result.steps
        assert all(np.isfinite(v) for v in result.step_losses)

    def test_emulation_rejects_resume_and_chaos(self, shard_dirs):
        with pytest.raises(ValueError):
            run_distributed(make_spec(shard_dirs, fail_at=(0, 1)),
                            emulate=True)

    @pytest.mark.parametrize("script", [("AB", "AC"), ("AB", "A")],
                             ids=["other-barrier", "returned-early"])
    def test_emulation_refuses_ranks_at_different_barriers(
            self, shard_dirs, monkeypatch, script):
        # One round is one barrier: a rank at another barrier, or one that
        # has already returned, is a broken schedule, not a wait.
        monkeypatch.setattr(worker, "rank_loop",
                            lambda rank, *args: iter(script[rank]))
        with pytest.raises(RuntimeError, match="different barriers"):
            worker.emulate_ranks(make_spec(shard_dirs), None, None)

    @pytest.mark.parametrize("emulate", [True, False])
    def test_world_size_must_not_exceed_shards(self, shard_dirs, emulate):
        # Refused before any rank starts, in either mode.
        with pytest.raises(ValueError):
            run_distributed(make_spec(shard_dirs, world_size=64),
                            emulate=emulate)

    def test_process_mode_matches_emulation_bitwise(self, shard_dirs):
        spec = make_spec(shard_dirs)
        emulated = run_distributed(spec, emulate=True)
        process = run_distributed(spec)
        assert process.step_losses == emulated.step_losses
        assert sorted(process.final_state) == sorted(emulated.final_state)
        for key in process.final_state:
            np.testing.assert_array_equal(process.final_state[key],
                                          emulated.final_state[key])
        # per-rank telemetry made it back to the parent, in both modes
        for result in (process, emulated):
            for rank in range(2):
                steps = result.metrics[f"dist.rank.{rank}.steps"]["value"]
                assert steps == result.steps

    def test_emulated_resume_is_bit_identical(self, shard_dirs, tmp_path):
        # Two epochs, so the resumed run also crosses an epoch-end
        # evaluation and selection; every commit stays on disk.
        base = make_spec(shard_dirs)
        spec = replace(base, config={**base.config, "epochs": 2},
                       checkpoint_dir=str(tmp_path / "ck"),
                       checkpoint_every=3, keep_checkpoints=100)
        full = run_distributed(spec, emulate=True)
        assert full.epochs_run == 2
        mid = [c["step"] for c in read_manifest(spec.checkpoint_dir)["commits"]
               if 0 < c["step"] < full.steps_per_epoch]
        assert mid
        resumed = run_distributed(replace(spec, resume_step=mid[0]),
                                  emulate=True)
        assert resumed.step_losses == full.step_losses
        assert sorted(resumed.final_state) == sorted(full.final_state)
        for key in full.final_state:
            np.testing.assert_array_equal(resumed.final_state[key],
                                          full.final_state[key])

    @pytest.mark.parametrize("world, emulate", [(2, True), (3, True),
                                                (2, False)],
                             ids=["emulated-2", "emulated-3", "process-2"])
    def test_every_rank_checkpoints_rank_zeros_step(self, shard_dirs,
                                                    tmp_path, world,
                                                    emulate):
        # Every rank steps its own Adam: at every committed step each
        # rank's weights and moments are rank 0's, bit for bit.  Buffers
        # (Dice running stats) follow each rank's own micro-batches.
        spec = make_spec(shard_dirs, world_size=world, miss={"seed": 0},
                         checkpoint_dir=str(tmp_path / "ck"),
                         checkpoint_every=1, keep_checkpoints=1000)
        result = run_distributed(spec, emulate=emulate)
        stores = [CheckpointStore(worker.rank_checkpoint_dir(
            spec.checkpoint_dir, rank)) for rank in range(world)]
        steps = [int(path.stem.split("-")[1])
                 for path in stores[0].manifests()]
        assert steps == list(range(1, result.steps + 1))
        for step in steps:
            want = stores[0].load_step(step)
            names = [k for k in want.model_state if "@buffer" not in k]
            for store in stores[1:]:
                got = store.load_step(step)
                for name in names:
                    np.testing.assert_array_equal(got.model_state[name],
                                                  want.model_state[name])
                assert got.optimizer_state["t"] == want.optimizer_state["t"]
                moments = want.optimizer_state["arrays"]
                assert got.optimizer_state["arrays"].keys() == moments.keys()
                for key, moment in moments.items():
                    np.testing.assert_array_equal(
                        got.optimizer_state["arrays"][key], moment)

    def test_placeholder_optimizer_checkpoint_resumes(self, shard_dirs,
                                                      tmp_path):
        # A directory written while rank 0 alone held the optimizer: its
        # other ranks checkpointed a ``kind: "none"`` placeholder.  They
        # take rank 0's moments from the same step and the run ends where
        # the uninterrupted one does.
        spec = make_spec(shard_dirs, checkpoint_dir=str(tmp_path / "ck"),
                         checkpoint_every=3, keep_checkpoints=100)
        full = run_distributed(spec, emulate=True)
        step = 3
        assert step < full.steps
        store = CheckpointStore(
            worker.rank_checkpoint_dir(spec.checkpoint_dir, 1),
            keep_last=100)
        ckpt = store.load_step(step)
        ckpt.optimizer_state = {"kind": "none", "lr": 0.0,
                                "weight_decay": 0.0, "arrays": {}}
        store.save(ckpt)
        assert store.load_step(step).optimizer_state["kind"] == "none"
        resumed = run_distributed(replace(spec, resume_step=step),
                                  emulate=True)
        assert resumed.step_losses == full.step_losses
        for key in full.final_state:
            np.testing.assert_array_equal(resumed.final_state[key],
                                          full.final_state[key])

    def test_crash_before_the_completed_commit_resumes_to_the_full_run(
            self, shard_dirs, tmp_path, monkeypatch):
        # The stop epoch's commit is the run's last write: a failure just
        # before it resumes from the previous commit and retrains the same
        # last epoch, and a finished run reports the same result.
        base = make_spec(shard_dirs)
        spec = replace(base, config={**base.config, "epochs": 6,
                                     "learning_rate": 5e-2, "patience": 6},
                       checkpoint_dir=str(tmp_path / "full"),
                       checkpoint_every=2)
        full = run_distributed(spec, emulate=True)
        assert full.epochs_run == 6 and full.best_epoch < 5
        commits = read_manifest(spec.checkpoint_dir)["commits"]
        steps = [c["step"] for c in commits]
        assert all(a < b for a, b in zip(steps, steps[1:]))
        assert [c["completed"] for c in commits][-2:] == [False, True]
        assert steps[-1] == full.steps

        write_manifest = worker._write_manifest

        def fail_on_completed(checkpoint_dir, world_size, commits):
            if commits[-1]["completed"]:
                raise OSError("injected failure before the completed commit")
            write_manifest(checkpoint_dir, world_size, commits)

        crashed = replace(spec, checkpoint_dir=str(tmp_path / "crashed"))
        monkeypatch.setattr(worker, "_write_manifest", fail_on_completed)
        with pytest.raises(OSError, match="injected"):
            run_distributed(crashed, emulate=True)
        monkeypatch.undo()
        for result in (run_distributed(crashed, resume=True, emulate=True),
                       run_distributed(spec, resume=True, emulate=True)):
            assert (result.epochs_run, result.steps, result.best_epoch) == \
                (full.epochs_run, full.steps, full.best_epoch)
            assert result.step_losses == full.step_losses
            assert sorted(result.final_state) == sorted(full.final_state)
            for key in full.final_state:
                np.testing.assert_array_equal(result.final_state[key],
                                              full.final_state[key])
        assert result.mode == "resumed-complete"
        assert result.steps_per_epoch == full.steps_per_epoch
        assert result.partition_rows == full.partition_rows

    def test_emulated_ranks_book_no_barrier_wait(self, shard_dirs):
        # No virtual rank blocks, so none books its peers' compute as wait.
        result = run_distributed(make_spec(shard_dirs), emulate=True)
        for rank in range(2):
            wait = result.metrics[f"dist.rank.{rank}.allreduce_wait_ms"]
            assert wait["count"] == result.steps and wait["max"] == 0.0

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
            resume=False, checkpoint_dir=None,
            shard_dir=None, miss=False, model="DIN", seed=0, epochs=1,
            learning_rate=1e-2, batch_size=128, eval_batch_size=128, alpha=1.0,
            temperature=0.1, checkpoint_every=200, keep_checkpoints=3,
            log_jsonl=None, verbose=False,
            profile=None, dataset="amazon-cds")
        vars(ns).update(overrides)
        return ns

    def test_rejects_anomaly_guard(self):
        with pytest.raises(SystemExit):
            _train_distributed(self._args(anomaly_guard=True), data=None)

    def test_rejects_nonpositive_procs(self):
        with pytest.raises(SystemExit):
            _train_distributed(self._args(num_procs=0), data=None)

    @pytest.mark.parametrize("flag, field, value", [
        ("--verbose", "verbose", True),
        ("--profile", "profile", "/tmp/stacks.txt"),
    ])
    def test_rejects_in_process_telemetry_flags(self, flag, field, value):
        # Ranks run headless: these used to be accepted and silently dropped.
        with pytest.raises(SystemExit, match=flag):
            _train_distributed(self._args(**{field: value}), data=None)

    @pytest.mark.parametrize("driver", [
        [], ["--num-procs", "2", "--dist-emulate"]],
        ids=["single-process", "distributed"])
    @pytest.mark.parametrize("flag, value", [
        ("--checkpoint-every", "-1"), ("--checkpoint-every", "0"),
        ("--keep-checkpoints", "0")])
    def test_rejects_nonpositive_checkpoint_flags(self, driver, flag, value,
                                                  tmp_path):
        # Both drivers refuse before loading data: -1 used to commit every
        # step (step % -1 == 0) in the rank loop and raise a bare
        # ValueError traceback in the single-process trainer.
        with pytest.raises(SystemExit, match=flag):
            main(["train", *driver, "--checkpoint-dir", str(tmp_path),
                  flag, value])
        assert list(tmp_path.iterdir()) == []

    def test_rejects_a_partition_smaller_than_a_batch(self, tmp_path):
        with pytest.raises(SystemExit, match="--batch-size"):
            main(["train", "--num-procs", "2", "--dist-emulate",
                  "--model", "LR", "--scale", "0.05", "--epochs", "1",
                  "--batch-size", "100000",
                  "--shard-dir", str(tmp_path / "shards")])


@pytest.mark.parametrize("batch_size, ends", [
    ("16", "success"), ("100000", "refused")], ids=["success", "failure"])
def test_a_run_without_shard_dir_removes_its_shards(batch_size, ends,
                                                    tmp_path, monkeypatch):
    # Without --shard-dir the split is sharded into a fresh temp directory,
    # which used to be left behind after every run.
    made = []

    def mkdtemp(*args, **kwargs):
        made.append(Path(original(*args, **kwargs)))
        return str(made[-1])

    original = tempfile.mkdtemp
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    argv = ["train", "--num-procs", "2", "--dist-emulate", "--model", "LR",
            "--scale", "0.1", "--epochs", "1", "--batch-size", batch_size]
    if ends == "success":
        assert main(argv) == 0
    else:
        with pytest.raises(SystemExit, match="--batch-size"):
            main(argv)
    shards = [p for p in made if p.name.startswith("repro-dist-data-")]
    assert [p.parent for p in shards] == [tmp_path]
    assert list(tmp_path.glob("repro-dist-data-*")) == []


@pytest.mark.parametrize("field, value", [
    ("checkpoint_every", -1), ("checkpoint_every", 0),
    ("keep_checkpoints", 0)])
def test_run_distributed_rejects_bad_checkpoint_fields(field, value,
                                                       tmp_path):
    # Checked before the shard directories are even opened, so no rank
    # starts: the paths below do not exist.
    spec = make_spec((tmp_path / "train", tmp_path / "validation"),
                     checkpoint_dir=str(tmp_path / "ck"), **{field: value})
    with pytest.raises(ValueError, match=field):
        run_distributed(spec, emulate=True)
    assert not (tmp_path / "ck").exists()
