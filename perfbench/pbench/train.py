"""The two training workloads.

``train_din_miss_mem``  DIN + MISS over an in-memory tiled split: the SSL
                        branch and backward do the work, the loader none.
``train_din_sharded``   plain DIN over compressed shards behind an 8-shard
                        LRU: the loader is about half the wall, SSL is zero.

The untraced pass is ``Trainer.fit`` with no observers.  The traced pass
runs the same optimisation step taken apart into public calls with a span
around each; both start from deep copies of one model, so their per-epoch
losses and validation metrics must agree to the last bit.
"""

from __future__ import annotations

import copy
import math
import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro.data import (
    CTRDataset,
    DataLoader,
    ShardedCTRDataset,
    load_dataset,
    write_shards,
)
from repro.nn import Adam, clip_grad_norm
from repro.obs import MetricRegistry, PhaseTimings, collect
from repro.training import TrainConfig, Trainer, evaluate, improvement

from .common import (
    Ctx,
    Outcome,
    RateSampler,
    build_din,
    pin_to_one_core,
    quantile,
    tile,
)
from .spans import SpanRecorder
from .speed import NOMINAL_S, SpeedReference, smoothed

__all__ = ["TAIL_QUANTILE", "setup", "teardown", "run_untraced",
           "run_traced"]

#: ``tail_ms`` is the highest usual percentile with at least ten step
#: intervals beyond it at the full size (155 and ~390 intervals).
TAIL_QUANTILE = {"train_din_miss_mem": 0.90, "train_din_sharded": 0.95}

_WARMUP_STEPS = 5
_SSL_PHASES = {"core.mie_ms": "model.ssl.mie",
               "core.mimfe_ms": "model.ssl.mimfe",
               "core.augment_ms": "model.ssl.augment",
               "core.infonce_ms": "model.ssl.infonce"}


class StepClock:
    """The training split as ``Trainer`` sees it, noting when each batch is
    asked for: the gap between two requests is one step as a caller of
    ``fit`` experiences it (batch assembly + forward + backward + update),
    observed without an observer.  Each request also takes one sample of
    the speed reference (see ``speed.py``), outside the gaps."""

    def __init__(self, dataset, speed: SpeedReference,
                 sample_on_batch: bool = True):
        self.dataset = dataset
        self.schema = dataset.schema
        self.speed = speed
        #: the traced loop samples between its step spans instead
        self.sample_on_batch = sample_on_batch
        self.asked: list[float] = []     # batch requested
        self.resumed: list[float] = []   # speed sample taken, work resumes
        self.kernel: list[float] = []    # the speed samples, seconds
        self.rows = 0

    def __len__(self) -> int:
        return len(self.dataset)

    def batch(self, indices: np.ndarray):
        if self.sample_on_batch:
            self.take_sample()
        self.rows += len(indices)
        return self.dataset.batch(indices)

    def take_sample(self) -> None:
        self.asked.append(time.perf_counter())
        self.kernel.append(self.speed.sample())
        self.resumed.append(time.perf_counter())

    def summary(self, epochs: int, start: float, end: float) -> dict:
        """Step gaps and the wall of the whole fit, raw and at reference
        speed.  A gap runs from the end of one request's speed sample to
        the next request; the gap that spans the epoch-end evaluation is
        left out of the steps (the wall has it).  The wall leaves the speed
        samples out and is scaled epoch by epoch."""
        asked = np.asarray(self.asked).reshape(epochs, -1)
        resumed = np.asarray(self.resumed).reshape(epochs, -1)
        kernel = np.asarray(self.kernel)
        scale = (NOMINAL_S / smoothed(kernel)).reshape(epochs, -1)
        steps = (asked[:, 1:] - resumed[:, :-1]) * 1000.0
        edges = np.append(asked[:, 0], end)
        edges[0] = start
        walls = np.diff(edges) - kernel.reshape(epochs, -1).sum(axis=1)
        return {
            "steps_ms_raw": steps.ravel(),
            "steps_ms": (steps * scale[:, :-1]).ravel(),
            "wall_s_raw": float(walls.sum()),
            "wall_s": float((walls * np.median(scale, axis=1)).sum()),
            "speed_index": float(np.median(kernel) / NOMINAL_S),
        }


@dataclass
class TrainState:
    workload: str
    validation: CTRDataset
    rows: CTRDataset            # the tiled split, in memory
    shard_dir: object           # Path, or None for the in-memory workload
    model: object
    epochs: int

    @property
    def miss(self) -> bool:
        """DIN+MISS trains in memory, plain DIN from shards."""
        return self.shard_dir is None

    def open_train(self, ctx: Ctx):
        """The dataset handed to the trainer; sharded runs reopen the
        directory so every pass starts with a cold shard cache."""
        if self.shard_dir is None:
            return self.rows
        return ShardedCTRDataset(self.shard_dir,
                                 cache_shards=ctx.sizes.shard_cache)

    def config(self, ctx: Ctx) -> TrainConfig:
        # patience = epochs: early stopping can never shorten the run.
        return TrainConfig(epochs=self.epochs,
                           batch_size=ctx.sizes.batch_size,
                           patience=self.epochs, seed=ctx.seed)


def setup(ctx: Ctx) -> TrainState:
    sizes = ctx.sizes
    pin_to_one_core()
    sharded = ctx.workload == "train_din_sharded"
    data = load_dataset(sizes.dataset, scale=sizes.train_scale,
                        seed=ctx.seed)
    if sharded:
        rows = tile(data.train, sizes.shard_count * sizes.shard_rows)
        shard_dir = ctx.work_dir / "shards"
        shutil.rmtree(shard_dir, ignore_errors=True)
        write_shards(rows, shard_dir, shard_size=sizes.shard_rows,
                     compressed=True)
        per_second = sizes.sharded_epochs_per_second
    else:
        rows = tile(data.train, sizes.miss_rows)
        shard_dir = None
        per_second = sizes.miss_epochs_per_second
    model = build_din(data.schema, ctx.seed, miss=not sharded)
    state = TrainState(workload=ctx.workload,
                       validation=data.validation, rows=rows,
                       shard_dir=shard_dir, model=model,
                       epochs=sizes.epochs(per_second, ctx.seconds,
                                           ctx.traced))
    # Warm-up on a throwaway copy: first-call costs are paid, the measured
    # model and the shard cache stay untouched.
    warm = tile(rows, _WARMUP_STEPS * sizes.batch_size)
    Trainer(TrainConfig(epochs=1, batch_size=sizes.batch_size, patience=1,
                        seed=ctx.seed)).fit(
        copy.deepcopy(model), warm, data.validation.subset(np.arange(64)))
    return state


def teardown(state: TrainState) -> None:
    if state.shard_dir is not None:
        shutil.rmtree(state.shard_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Untraced pass
# ----------------------------------------------------------------------
def _fit(state: TrainState, ctx: Ctx, registry=None):
    train = state.open_train(ctx)
    if registry is not None:
        train.bind_telemetry(registry=registry)
    clock = StepClock(train, ctx.speed)
    model = copy.deepcopy(state.model)
    start = time.perf_counter()
    result = Trainer(state.config(ctx)).fit(model, clock, state.validation)
    timing = clock.summary(state.epochs, start, time.perf_counter())
    return model, result, clock, timing


def _check_fit(outcome: Outcome, state: TrainState, ctx: Ctx,
               rows_seen: int, losses, history) -> None:
    steps_per_epoch = math.ceil(len(state.rows) / ctx.sizes.batch_size)
    outcome.attempted += state.epochs * steps_per_epoch
    bad_epochs = sum(not math.isfinite(loss) for loss in losses)
    outcome.failed += bad_epochs * steps_per_epoch
    outcome.check(bad_epochs == 0, f"{bad_epochs} epoch(s) with a "
                                   f"non-finite training loss")
    expected = state.epochs * len(state.rows)
    outcome.check(rows_seen == expected,
                  f"trained on {rows_seen} rows, expected {expected}")
    outcome.check(len(history) == state.epochs,
                  f"ran {len(history)} epochs, expected {state.epochs}")
    auc = history[-1].auc
    floor = ctx.sizes.min_final_auc
    outcome.check(math.isfinite(auc) and auc > floor,
                  f"final validation AUC {auc!r} is not finite and > {floor}")


def run_untraced(state: TrainState, ctx: Ctx) -> Outcome:
    outcome = Outcome()
    # Evaluation costs the same whatever the weights: half of the samples
    # before the fit (on the initial model), half after it.
    sampler, rows = RateSampler(ctx.speed), len(state.validation)
    for _ in range(ctx.sizes.eval_repeats // 2):
        sampler.time(lambda: evaluate(state.model, state.validation), rows)
    model, result, clock, timing = _fit(state, ctx)
    for _ in range(ctx.sizes.eval_repeats // 2):
        sampler.time(lambda: evaluate(model, state.validation), rows)
    eval_rate, eval_rate_raw = sampler.rows_per_s()
    _check_fit(outcome, state, ctx, clock.rows, result.train_losses,
               result.history)
    tail_q = TAIL_QUANTILE[state.workload]
    # Pure computation on one thread: reported at reference speed.
    outcome.metrics = {
        "rows_per_s": clock.rows / timing["wall_s"],
        "eval_rows_per_s": eval_rate,
        "p50_ms": quantile(timing["steps_ms"], 0.5),
        "tail_ms": quantile(timing["steps_ms"], tail_q),
    }
    outcome.notes = {
        "epochs": state.epochs, "rows_trained": clock.rows,
        "step_samples": int(timing["steps_ms"].size),
        "tail_quantile": tail_q, "speed_index": timing["speed_index"],
        "final_validation_auc": result.history[-1].auc,
        "raw": {"rows_per_s": clock.rows / timing["wall_s_raw"],
                "eval_rows_per_s": eval_rate_raw,
                "p50_ms": quantile(timing["steps_ms_raw"], 0.5),
                "tail_ms": quantile(timing["steps_ms_raw"], tail_q),
                "fit_wall_s": timing["wall_s_raw"]}}
    return outcome


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def _decomposed_loss(model, batch, rec: SpanRecorder, miss: bool):
    """``model.training_loss(batch)`` taken apart at its layer seams."""
    if not miss:
        with rec.span("models.ctr_forward"):
            return model.training_loss(batch)
    with rec.span("models.ctr_forward"):
        ctr = model.ctr_loss(batch)
    with rec.span("models.embed"):
        c = model.embedder.sequence_embeddings(batch)
    with rec.span("core.ssl_forward"):
        interest, feature = model.ssl.ssl_losses(c, batch.mask,
                                                 batch.sequences)
    return (ctr + model.config.alpha_interest * interest
            + model.config.alpha_feature * feature)


def _check_same_program(outcome: Outcome, state: TrainState,
                        batch_size: int) -> None:
    """Before timing: one decomposed step equals ``training_loss`` exactly
    on a deep-copied model (and therefore deep-copied RNG streams)."""
    batch = state.rows.batch(np.arange(batch_size))
    whole, parts = copy.deepcopy(state.model), copy.deepcopy(state.model)
    whole.train()
    parts.train()
    expected = whole.training_loss(batch).item()
    got = _decomposed_loss(parts, batch, SpanRecorder(), state.miss).item()
    outcome.check(got == expected,
                  f"decomposed step loss {got!r} != training_loss "
                  f"{expected!r}: the trace would measure another program")


def _traced_fit(state: TrainState, ctx: Ctx, clock: StepClock):
    """``Trainer.fit`` without observers, step by step, under spans."""
    rec, cfg = ctx.recorder, state.config(ctx)
    model = copy.deepcopy(state.model)
    loader = DataLoader(clock, batch_size=cfg.batch_size, shuffle=True,
                        rng=np.random.default_rng(cfg.seed))
    optimizer = Adam(model.parameters(), lr=cfg.learning_rate,
                     weight_decay=cfg.weight_decay)
    model.train()
    losses, history = [], []
    best_auc, best_state = -np.inf, None
    step = 0
    timings = PhaseTimings()
    start = time.perf_counter()
    with collect(timings):
        for _ in range(cfg.epochs):
            batches = loader.iter_batches()
            epoch_loss = 0.0
            for _ in range(len(loader)):
                with rec.span("bench.speed_sample", ref=step):
                    clock.take_sample()
                with rec.span("training.step", ref=step):
                    with rec.span("data.batch"):
                        batch = next(batches)
                    optimizer.zero_grad()
                    loss = _decomposed_loss(model, batch, rec, state.miss)
                    epoch_loss += loss.item()
                    with rec.span("nn.backward"):
                        loss.backward()
                    with rec.span("nn.clip"):
                        clip_grad_norm(optimizer.parameters, cfg.grad_clip)
                    with rec.span("nn.optim_step"):
                        optimizer.step()
                step += 1
            with rec.span("training.eval", ref=step):
                result = evaluate(model, state.validation,
                                  batch_size=cfg.eval_batch_size)
            losses.append(epoch_loss / len(loader))
            history.append(result)
            if improvement(result.auc, best_auc):
                best_auc, best_state = result.auc, model.state_dict()
    end = time.perf_counter()
    rec.wall(start, end)
    if best_state is not None:
        model.load_state_dict(best_state)
    return losses, history, timings, clock.summary(cfg.epochs, start, end)


def run_traced(state: TrainState, ctx: Ctx) -> Outcome:
    outcome = Outcome()
    rec, sizes = ctx.recorder, ctx.sizes
    _check_same_program(outcome, state, sizes.batch_size)

    # Untraced reference pass: counters, and the base of overhead_share.
    registry = MetricRegistry() if state.shard_dir is not None else None
    _, result, ref_clock, ref_timing = _fit(state, ctx, registry)
    _check_fit(outcome, state, ctx, ref_clock.rows, result.train_losses,
               result.history)

    train = state.open_train(ctx)
    clock = StepClock(train, ctx.speed, sample_on_batch=False)
    losses, history, timings, timing = _traced_fit(state, ctx, clock)
    _check_fit(outcome, state, ctx, clock.rows, losses, history)
    outcome.check(
        losses == result.train_losses
        and [(h.auc, h.logloss) for h in history]
        == [(h.auc, h.logloss) for h in result.history],
        "traced pass and Trainer.fit disagree on per-epoch loss or "
        "validation metrics: the trace measured another program")

    # One factor takes the whole traced pass to reference speed.
    scale = 1.0 / timing["speed_index"]
    steps = len(clock.kernel)
    metrics = outcome.metrics
    for name, span in (("data.batch_ms_p50", "data.batch"),
                       ("models.ctr_forward_ms_p50", "models.ctr_forward"),
                       ("models.embed_ms_p50", "models.embed"),
                       ("core.ssl_forward_ms_p50", "core.ssl_forward"),
                       ("nn.backward_ms_p50", "nn.backward"),
                       ("nn.clip_ms_p50", "nn.clip"),
                       ("nn.optim_step_ms_p50", "nn.optim_step"),
                       ("training.step_ms_p50", "training.step"),
                       ("training.eval_ms", "training.eval")):
        durations = rec.durations_ms(span)
        metrics[name] = (quantile(durations, 0.5) * scale
                         if durations.size else 0.0)
    metrics["training.step_ms_p95"] = quantile(
        rec.durations_ms("training.step"), 0.95) * scale
    wall = timing["wall_s_raw"]
    for name, spans in (("share.data", ("data.batch",)),
                        ("share.ctr_forward", ("models.ctr_forward",)),
                        ("share.ssl_forward", ("core.ssl_forward",)),
                        ("share.backward", ("nn.backward",)),
                        ("share.optim", ("nn.clip", "nn.optim_step")),
                        ("share.eval", ("training.eval",))):
        metrics[name] = rec.total_s(*spans) / wall
    # The SSL sub-phases the program already times itself, read through
    # the public collector: mean ms per step.
    for name, phase in _SSL_PHASES.items():
        stat = timings.stats.get(phase)
        metrics[name] = (stat.total_s * 1000.0 / steps * scale
                         if stat else 0.0)

    if registry is not None:
        hits = registry.counter("pipeline.shard_cache.hit").value
        loads = registry.counter("pipeline.shard_cache.miss").value
        metrics["data.shard_loads"] = loads
        metrics["data.shard_cache_hit_ratio"] = hits / (hits + loads)
        start = time.perf_counter()
        for shard in range(train.num_shards):
            with rec.span("data.shard_load", ref=shard):
                train.load_shard(shard)
        rec.wall(start, time.perf_counter())
        metrics["data.shard_load_ms_p50"] = quantile(
            rec.durations_ms("data.shard_load"), 0.5) * ctx.speed.scale()

    metrics["trace.coverage"] = rec.coverage()
    base = quantile(ref_timing["steps_ms"], 0.5)
    traced = quantile(timing["steps_ms"], 0.5)
    metrics["trace.overhead_share"] = (traced - base) / base
    outcome.notes = {"epochs_per_pass": state.epochs, "steps_traced": steps,
                     "speed_index": timing["speed_index"],
                     "untraced_step_ms_p50": base,
                     "traced_step_ms_p50": traced}
    return outcome
