"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print Table III-style statistics and structural diagnostics for the three
    simulated worlds.
``train``
    Train one model (optionally MISS-enhanced) on one dataset and report
    calibrated test AUC/Logloss.
``compare``
    Train a list of models on one dataset and print a ranked comparison.
``inspect-run``
    Report on a JSONL trace written via ``--log-jsonl``: every section its
    records support (training summary, streaming timeline, span timelines).
``export``
    Train a model and freeze it into a serving artifact directory
    (weights + digest-pinned manifest).
``serve``
    Load an artifact and serve ``POST /score`` with micro-batching, an LRU
    row cache, and graceful SIGTERM drain.
``predict``
    Offline scoring: run rows from a JSON file (or a dataset split) through
    the same :class:`~repro.serving.InferenceSession` the server uses.
``registry``
    Publish artifacts into a versioned model registry and set its
    production / shadow roles.
``stream-train``
    Online learning: replay a synthetic click stream through the live
    router, train incrementally with prequential validation, detect drift,
    and auto-promote recovered models into the registry.

Performance is measured by ``perfbench/`` (see its README), not by a verb.

Observability (see the Observability section of README.md):

* ``--log-jsonl PATH`` writes the run's one schema-versioned JSONL trace:
  its events and its **spans** (per-epoch, per-window and per-request
  latency decomposition).  ``serve`` alone takes ``--trace-sample RATE``,
  which keeps that fraction of request traces whole.  ``repro inspect-run
  PATH`` renders every section the trace supports.
* ``--verbose`` prints throttled console progress.
* ``--profile PATH`` (``train``/``stream-train``) runs a sampling profiler
  and writes flamegraph-ready collapsed stacks to PATH.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import tempfile
import threading
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import MISSConfig, attach_miss
from .data import (
    DATASET_NAMES,
    ShardCorruptError,
    compute_stats,
    load_dataset,
    make_config,
)
from .data.analysis import diagnose_world
from .data.pipeline.shards import INDEX_NAME, open_shards_for
from .data.synthetic import InterestWorld
from .models import MODEL_NAMES, create_model, supports_miss
from .obs import (
    ConsoleReporter,
    JsonlTraceWriter,
    MetricRegistry,
    ObserverList,
    SamplingProfiler,
    Tracer,
    render_summary,
    set_tracer,
    summarize_trace,
)
from .resilience import NumericalAnomalyError, TrainingInterrupted
from .resilience.sealed import DIGEST_KEY
from .serving import (
    AdmissionController,
    ArtifactError,
    CircuitBreaker,
    InferenceSession,
    ModelRegistry,
    RegistryError,
    ScoringEngine,
    ScoringServer,
    export_artifact,
)
from .data.processing import build_ctr_data
from .serving.registry import ROLES, STATE_NAME
from .serving.router import ModelRouter
from .streaming import (
    ClickStream,
    DriftMonitor,
    IncrementalConfig,
    IncrementalTrainer,
    OnlineLoop,
    PromotionController,
    StreamConfig,
)
from .training import TrainConfig, Trainer, calibrated_eval, run_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of MISS (ICDE 2022): multi-interest "
                    "self-supervised learning for CTR prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_telemetry(p: argparse.ArgumentParser, *, log: str | None = None,
                      verbose: str | None = None,
                      profile: bool = False) -> None:
        """The telemetry flag group.  A verb opts into the parts it supports
        (``log``/``verbose`` are that verb's help texts); the rest are pinned
        to "off", so :func:`_telemetry` reads one namespace shape."""
        p.set_defaults(log_jsonl=None, verbose=False, trace_sample=1.0,
                       profile=None)
        if log:
            p.add_argument("--log-jsonl", metavar="PATH", default=None,
                           help=log + ", with its spans (view with "
                                      "`repro inspect-run PATH`)")
        if verbose:
            p.add_argument("--verbose", action="store_true", help=verbose)
        if profile:
            p.add_argument("--profile", metavar="PATH", default=None,
                           help="sample all threads' stacks while running "
                                "and write flamegraph-ready collapsed stacks "
                                "to PATH")

    datasets = sub.add_parser("datasets", help="describe the simulated worlds")
    datasets.add_argument("--scale", type=float, default=0.3,
                          help="world size multiplier (default 0.3)")
    datasets.add_argument("--seed", type=int, default=0)

    def add_common(p: argparse.ArgumentParser, **telemetry: bool) -> None:
        add_telemetry(p, log="write the run's JSONL trace to PATH",
                      verbose="print throttled per-step/per-epoch progress",
                      **telemetry)
        p.add_argument("--dataset", choices=DATASET_NAMES,
                       default="amazon-cds")
        p.add_argument("--scale", type=float, default=0.4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=12)
        p.add_argument("--learning-rate", type=float, default=1e-2)
        p.add_argument("--alpha", type=float, default=0.5,
                       help="SSL loss weight α1 = α2 for the MISS variant")
        p.add_argument("--temperature", type=float, default=0.1,
                       help="InfoNCE temperature τ for the MISS variant")
        p.add_argument("--batch-size", type=int, default=128, metavar="N",
                       help="training batch size (default 128, the paper's; "
                            "per-rank with --num-procs, so the global batch "
                            "scales with the worker count)")
        p.add_argument("--eval-batch-size", type=int, default=512,
                       metavar="N",
                       help="rows per evaluation forward (default 512; "
                            "metrics are bit-identical for any value)")

    train = sub.add_parser("train", help="train one model")
    add_common(train, profile=True)
    train.add_argument("--model", choices=MODEL_NAMES, default="DIN")
    train.add_argument("--miss", action="store_true",
                       help="attach the MISS SSL component")
    train.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="write atomic, checksummed run checkpoints to "
                            "DIR (every --checkpoint-every steps and each "
                            "epoch end); SIGINT/SIGTERM then checkpoint and "
                            "exit cleanly")
    train.add_argument("--resume", action="store_true",
                       help="continue from the latest valid checkpoint in "
                            "--checkpoint-dir (bit-identical to an "
                            "uninterrupted run)")
    train.add_argument("--checkpoint-every", type=int, metavar="N",
                       default=200,
                       help="steps between mid-epoch checkpoints "
                            "(default 200; epoch ends always checkpoint)")
    train.add_argument("--keep-checkpoints", type=int, metavar="K", default=3,
                       help="retention: keep the last K checkpoints plus the "
                            "best one (default 3)")
    train.add_argument("--anomaly-guard", action="store_true",
                       help="detect NaN/Inf loss or gradients and loss "
                            "spikes; roll back to the last good checkpoint "
                            "with learning-rate backoff before giving up")
    train.add_argument("--shard-dir", metavar="DIR", default=None,
                       help="train from a sharded on-disk dataset in DIR "
                            "(written on first use; verified by checksum "
                            "on every load)")
    train.add_argument("--num-procs", type=int, metavar="N", default=1,
                       help="data-parallel worker processes (default 1 = "
                            "the plain in-process trainer); each rank owns "
                            "a disjoint shard partition and --batch-size "
                            "is per-rank, so the global batch scales N-fold")
    train.add_argument("--dist-emulate", action="store_true",
                       help="run the --num-procs ranks round-robin inside "
                            "one process: same losses, weights and "
                            "checkpoints as process mode, so "
                            "--checkpoint-dir/--resume work in either")

    compare = sub.add_parser("compare", help="train several models")
    add_common(compare)
    compare.add_argument("--models", nargs="+", default=["DIN", "DeepFM"],
                         choices=list(MODEL_NAMES),
                         help="baselines to run; MISS is attached to the "
                              "first embedding-based one")
    compare.add_argument("--shard-dir", metavar="DIR", default=None,
                         help="train every model from the same sharded "
                              "on-disk dataset in DIR")

    inspect = sub.add_parser(
        "inspect-run", help="report on a JSONL trace: training summary, "
                            "streaming timeline and span timelines, each "
                            "when the trace holds its records")
    inspect.add_argument("trace", help="path written via --log-jsonl")

    export = sub.add_parser(
        "export", help="train a model and freeze it as a serving artifact")
    add_common(export)
    export.add_argument("--model", choices=MODEL_NAMES, default="DIN")
    export.add_argument("--miss", action="store_true",
                        help="attach the MISS SSL component before training")
    export.add_argument("--out", metavar="DIR", required=True,
                        help="artifact directory to create (manifest.json + "
                             "weights.npz)")

    serve = sub.add_parser(
        "serve", help="serve POST /score from an exported artifact or a "
                      "model registry")
    serve.add_argument("--artifact", metavar="DIR", default=None,
                       help="exported artifact directory (or use --registry)")
    serve.add_argument("--registry", metavar="DIR", default=None,
                       help="model registry: serve the production and "
                            "shadow versions its registry.json names; "
                            "enables POST /admin/reload by version")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port (0 picks a free one; default 8321)")
    serve.add_argument("--max-batch-size", type=int, default=64, metavar="N",
                       help="micro-batch flush size (default 64)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0, metavar="MS",
                       help="max time a request waits for batch-mates "
                            "(default 2ms)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="scoring worker threads (default 1)")
    serve.add_argument("--cache-size", type=int, default=4096, metavar="N",
                       help="LRU row-cache capacity; 0 disables (default "
                            "4096)")
    serve.add_argument("--max-inflight", type=int, default=None, metavar="N",
                       help="admission control: shed (429 + Retry-After) "
                            "when more than N rows are in flight "
                            "(default: unbounded)")
    serve.add_argument("--request-timeout-s", type=float, default=30.0,
                       metavar="S",
                       help="server-side cap on one request's end-to-end "
                            "budget; X-Deadline-Ms can only shorten it "
                            "(default 30)")
    add_telemetry(serve, log="write serving events (request/batch/"
                             "completion) as a JSONL trace",
                  verbose="print per-flush progress lines")
    serve.add_argument("--trace-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="head-sampling rate in [0, 1] for the spans of "
                            "--log-jsonl: keep this fraction of request "
                            "traces, whole (default 1.0)")

    registry = sub.add_parser(
        "registry", help="manage a versioned model registry "
                         "(publish/promote/shadow/list)")
    registry.add_argument("--registry", metavar="DIR", required=True,
                          help="registry root directory (created on first "
                               "publish)")
    registry_sub = registry.add_subparsers(dest="registry_command",
                                           required=True)
    reg_publish = registry_sub.add_parser(
        "publish", help="copy + verify an exported artifact into the "
                        "registry as an immutable version")
    reg_publish.add_argument("--artifact", metavar="DIR", required=True)
    reg_publish.add_argument("--version", metavar="V", default=None,
                             help="version name (default: next vN)")
    reg_publish.add_argument("--promote", action="store_true",
                             help="also make it the production version")
    reg_promote = registry_sub.add_parser(
        "promote", help="make a published version the production model")
    reg_promote.add_argument("--version", metavar="V", required=True)
    reg_shadow = registry_sub.add_parser(
        "shadow", help="set (or clear) the shadow version")
    reg_shadow.add_argument("--version", metavar="V", default=None,
                            help="omit to clear the shadow role")
    registry_sub.add_parser("list", help="print versions and role state")

    predict = sub.add_parser(
        "predict", help="score rows offline through the serving session")
    predict.add_argument("--artifact", metavar="DIR", required=True)
    source = predict.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="FILE",
                        help="JSON file: {\"rows\": [...]} or a bare list "
                             "of row objects")
    source.add_argument("--dataset", choices=DATASET_NAMES,
                        help="score a simulated dataset split instead of a "
                             "file")
    predict.add_argument("--split", choices=["train", "validation", "test"],
                         default="test")
    predict.add_argument("--scale", type=float, default=0.4)
    predict.add_argument("--seed", type=int, default=0)
    predict.add_argument("--limit", type=int, default=None, metavar="N",
                         help="score only the first N rows")
    predict.add_argument("--output", metavar="FILE", default=None,
                         help="write the JSON result here instead of stdout")

    stream = sub.add_parser(
        "stream-train",
        help="online learning over a synthetic click stream: serve through "
             "the live router, train incrementally, detect drift, "
             "auto-promote")
    stream.add_argument("--registry", metavar="DIR", required=True,
                        help="model registry: warm-start from its "
                             "production version and publish candidates "
                             "back into it")
    stream.add_argument("--bootstrap-epochs", type=int, default=0,
                        metavar="N",
                        help="when the registry has no production model, "
                             "train one offline for N epochs, publish and "
                             "promote it first (0 = require an existing "
                             "production version)")
    stream.add_argument("--model", choices=MODEL_NAMES, default="DIN",
                        help="model for --bootstrap-epochs (default DIN)")
    stream.add_argument("--dataset", choices=DATASET_NAMES,
                        default="amazon-cds")
    stream.add_argument("--scale", type=float, default=0.2)
    stream.add_argument("--seed", type=int, default=0,
                        help="world seed; the model and stream seeds "
                             "derive from it (stream: seed + 11)")
    stream.add_argument("--windows", type=int, default=30, metavar="N",
                        help="stream length in micro-batch windows "
                             "(default 30)")
    stream.add_argument("--impressions", type=int, default=64, metavar="N",
                        help="impressions per window; rows = 2x (default 64)")
    stream.add_argument("--drift-window", type=int, default=None,
                        metavar="W",
                        help="resample interests for --drift-fraction of "
                             "users at window W")
    stream.add_argument("--drift-fraction", type=float, default=0.5)
    stream.add_argument("--learning-rate", type=float, default=5e-3)
    stream.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="checkpoint the incremental trainer after "
                             "every window")
    stream.add_argument("--resume", action="store_true",
                        help="continue from the latest window checkpoint in "
                             "--checkpoint-dir")
    stream.add_argument("--export-dir", metavar="DIR", default=None,
                        help="where candidate artifacts are exported "
                             "(default: a temporary directory)")
    add_telemetry(stream, log="write stream_window/drift_detected/promotion "
                              "events as a JSONL trace",
                  verbose="print per-window progress lines", profile=True)

    return parser


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'Dataset':<14}{'#Users':>8}{'#Items':>8}{'#Fields':>9}"
          f"{'closeness':>11}{'recurrence':>12}{'med.freq':>10}")
    for name in DATASET_NAMES:
        data = load_dataset(name, scale=args.scale, seed=args.seed)
        stats = compute_stats(data)
        world = InterestWorld(make_config(name, scale=args.scale,
                                          seed=args.seed))
        diag = diagnose_world(world)
        print(f"{name:<14}{stats.num_users:>8}{stats.num_items:>8}"
              f"{stats.num_fields:>9}{diag.closeness:>11.3f}"
              f"{diag.recurrence:>12.3f}{diag.item_frequency_median:>10.1f}")
    return 0


@contextmanager
def _telemetry(args: argparse.Namespace):
    """One scope for a verb's telemetry; yields ``(observers, tracer)``.

    ``--log-jsonl PATH`` opens the run's one trace writer: an observer for
    the events, and the sink of a :class:`Tracer` for the spans (additive
    records of the same schema), installed process-wide for the scope
    (``DataLoader`` and ``OnlineLoop`` pick it up via ``get_tracer()``).
    Head sampling (``--trace-sample``) is ``serve``'s alone: one serving
    trace is one request, while a training or stream trace is an epoch or
    a window, which sampling would only leave a hole in.  ``--verbose``
    adds console progress; ``--profile`` samples stacks for the scope and
    writes them on exit.  Whatever was opened is closed on the way out —
    including when a later flag is rejected during set-up.
    """
    with ExitStack() as stack:
        observers = ObserverList()
        tracer = None
        if args.log_jsonl:
            try:
                writer = stack.enter_context(JsonlTraceWriter(args.log_jsonl))
            except OSError as exc:
                raise SystemExit(f"--log-jsonl: cannot open {args.log_jsonl}: "
                                 f"{exc.strerror or exc}")
            observers.append(writer)
            try:
                tracer = Tracer(writer, sample_rate=args.trace_sample)
            except ValueError as exc:
                raise SystemExit(f"--trace-sample: {exc}")
            set_tracer(tracer)
            stack.callback(set_tracer, None)
        if args.verbose:
            observers.append(ConsoleReporter())
        if args.profile:
            stack.enter_context(_profile(args.profile))
        yield observers, tracer


@contextmanager
def _profile(path: str):
    """Sample all threads' stacks for the block; write collapsed stacks to
    ``path`` on exit."""
    profiler = SamplingProfiler()
    profiler.start()
    try:
        yield
    finally:
        profiler.stop()
        profiler.write_collapsed(path)
        print(f"profile: {profiler.summary()}", file=sys.stderr)
        print(f"collapsed stacks written to {path} "
              f"(flamegraph.pl-compatible)", file=sys.stderr)


def _configs(args: argparse.Namespace,
             miss: bool) -> tuple[TrainConfig, MISSConfig | None]:
    """The one place training flags become config fields, shared by every
    verb that trains (in-process, ``export``, and the distributed spec)."""
    train = TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                        weight_decay=1e-5, patience=4, seed=args.seed,
                        batch_size=args.batch_size,
                        eval_batch_size=args.eval_batch_size)
    miss_config = MISSConfig(alpha_interest=args.alpha,
                             alpha_feature=args.alpha,
                             temperature=args.temperature,
                             seed=args.seed + 2) if miss else None
    return train, miss_config


def _build_model(model_name: str, args: argparse.Namespace, data,
                 miss_config: MISSConfig | None):
    """(model, display label) for one training run."""
    model = create_model(model_name, data.schema, seed=args.seed + 1)
    if miss_config is None:
        return model, model_name
    return attach_miss(model, miss_config), f"{model_name}-MISS"


def _prepare_shards(args: argparse.Namespace, data):
    """Open (or first write) the sharded training split for ``--shard-dir``.

    Returns ``None`` when sharding is not requested, else a
    checksum-verified :class:`ShardedCTRDataset` of the freshly processed
    train split — a stale directory from another dataset/scale fails loudly
    instead of training on the wrong rows.
    """
    if not getattr(args, "shard_dir", None):
        return None
    directory = Path(args.shard_dir)
    fresh = not (directory / INDEX_NAME).exists()
    try:
        sharded = open_shards_for(data.train, directory, cache_shards=8)
    except ShardCorruptError as exc:
        raise SystemExit(f"--shard-dir: {exc}")
    if fresh:
        print(f"wrote training shards to {directory}")
    return sharded


def _train_one(model_name: str, args: argparse.Namespace, data,
               miss: bool = False, observers: ObserverList | None = None,
               train=None):
    config, miss_config = _configs(args, miss)
    model, label = _build_model(model_name, args, data, miss_config)
    # Resilience flags exist on the `train` subcommand only; `compare` runs
    # several models into one directory-less session.
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    result = run_experiment(model, data, config, model_name=label,
                            train=train,
                            observers=observers,
                            checkpoint_dir=checkpoint_dir,
                            resume=getattr(args, "resume", False),
                            checkpoint_every=(getattr(args,
                                                      "checkpoint_every",
                                                      None)
                                              if checkpoint_dir else None),
                            keep_checkpoints=getattr(args,
                                                     "keep_checkpoints", 3),
                            anomaly_guard=getattr(args, "anomaly_guard",
                                                  False))
    return result


def _train_distributed(args: argparse.Namespace, data) -> int:
    if args.num_procs < 1:
        raise SystemExit("--num-procs must be >= 1")
    if args.anomaly_guard:
        raise SystemExit("--anomaly-guard is not supported with --num-procs "
                         "> 1 (the guard's rollback protocol is "
                         "single-process)")
    for flag, value in (("--verbose", args.verbose),
                        ("--profile", args.profile)):
        if value:
            raise SystemExit(f"{flag} is not supported with --num-procs > 1 "
                             f"or --dist-emulate (ranks run headless; "
                             f"--log-jsonl writes one trace per rank)")
    if args.shard_dir:
        return _train_on_shards(args, data, Path(args.shard_dir))
    # The split's shards are scratch without --shard-dir: gone once the run
    # ends, whichever way it ends.
    with tempfile.TemporaryDirectory(prefix="repro-dist-data-") as base:
        return _train_on_shards(args, data, Path(base))


def _train_on_shards(args: argparse.Namespace, data, base: Path) -> int:
    """``_train_distributed``'s run, sharding the split under ``base``."""
    from dataclasses import asdict

    from .distributed import DistSpec, DistributedRunError, \
        prepare_dist_data, run_distributed
    from .distributed.worker import PartitionError

    # Size shards so every rank owns several (partition granularity AND the
    # cache-locality win need shard count >= a few multiples of world size).
    target_shards = max(8, args.num_procs * 4)
    shard_size = max(1, -(-len(data.train) // target_shards))
    try:
        train_dir, val_dir = prepare_dist_data(data.train, data.validation,
                                               base, shard_size=shard_size)
    except ShardCorruptError as exc:
        raise SystemExit(f"--shard-dir: {exc}")
    config, miss_config = _configs(args, args.miss)
    spec = DistSpec(
        model_name=args.model,
        miss=asdict(miss_config) if miss_config is not None else None,
        model_seed=args.seed + 1,
        train_dir=str(train_dir), val_dir=str(val_dir),
        config=asdict(config),
        world_size=args.num_procs,
        cache_shards=8,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=(args.checkpoint_every if args.checkpoint_dir
                          else None),
        keep_checkpoints=args.keep_checkpoints,
        log_jsonl=args.log_jsonl)
    try:
        result = run_distributed(spec, resume=args.resume,
                                 emulate=args.dist_emulate)
    except PartitionError as exc:  # raised before any rank starts
        raise SystemExit(f"--batch-size / --num-procs: {exc}")
    except DistributedRunError as exc:
        print(f"train: {exc}", file=sys.stderr)
        if args.checkpoint_dir:
            print("train: rerun with --resume to continue bit-identically",
                  file=sys.stderr)
        return 1
    # Load the selected weights into a fresh model for the calibrated
    # test-split evaluation every training entry point reports.
    from .distributed import build_model
    model = build_model(spec, data.schema)
    model.load_state_dict(result.final_state)
    model.eval()
    validation, test = calibrated_eval(model, data,
                                       batch_size=args.eval_batch_size)
    label = f"{args.model}-MISS" if args.miss else args.model
    mode = result.mode if result.mode != "process" else \
        f"{result.world_size} procs"
    print(f"{label} on {args.dataset} [{mode}]: best epoch "
          f"{result.best_epoch}, {result.steps} steps, "
          f"wall {result.wall_time_s:.1f}s")
    print(f"{label} on {args.dataset}: test {test}")
    if args.log_jsonl:
        print(f"per-rank traces written to {args.log_jsonl}.rank<r>")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    for flag, value in (("--checkpoint-every", args.checkpoint_every),
                        ("--keep-checkpoints", args.keep_checkpoints)):
        if value < 1:
            raise SystemExit(f"{flag} must be >= 1, got {value}")
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if args.num_procs > 1 or args.dist_emulate:
        return _train_distributed(args, data)
    try:
        with _telemetry(args) as (observers, _):
            result = _train_one(args.model, args, data, miss=args.miss,
                                observers=observers,
                                train=_prepare_shards(args, data))
    except TrainingInterrupted as exc:
        print(f"train: {exc}", file=sys.stderr)
        if exc.checkpoint is not None:
            print("train: rerun with --resume to continue bit-identically",
                  file=sys.stderr)
        return exc.exit_code
    except NumericalAnomalyError as exc:
        print(f"train: numerical anomaly not recoverable: {exc}",
              file=sys.stderr)
        return 1
    print(f"{result.model_name} on {args.dataset}: test {result.test}")
    if args.log_jsonl:
        print(f"run trace written to {args.log_jsonl} "
              f"(view: repro inspect-run {args.log_jsonl})")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    with _telemetry(args) as (observers, _):
        shards = _prepare_shards(args, data)
        results = [_train_one(name, args, data, observers=observers,
                              train=shards)
                   for name in args.models]
        # Add the MISS-enhanced variant of the first model that can host the
        # plug-in (explicit capability check: MISS needs a shared embedder).
        for name in args.models:
            if supports_miss(name):
                results.append(_train_one(name, args, data, miss=True,
                                          observers=observers, train=shards))
                break
    results.sort(key=lambda r: r.auc, reverse=True)
    print(f"{'Model':<16}{'AUC':>9}{'Logloss':>10}")
    for result in results:
        print(f"{result.model_name:<16}{result.auc:>9.4f}"
              f"{result.logloss:>10.4f}")
    return 0


def _cmd_inspect_run(args: argparse.Namespace) -> int:
    try:
        print(render_summary(summarize_trace(args.trace)))
    except (OSError, ValueError) as exc:
        print(f"inspect-run: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config, miss_config = _configs(args, args.miss)
    model, label = _build_model(args.model, args, data, miss_config)
    with _telemetry(args) as (observers, _):
        result = run_experiment(model, data, config, model_name=label,
                                observers=observers)
    # ``run_experiment`` leaves the best-epoch weights loaded in ``model``;
    # that is exactly the state worth freezing.
    path = export_artifact(model, args.out, model_name=args.model,
                           miss_config=miss_config, metadata={
                               "label": label,
                               "dataset": args.dataset,
                               "scale": args.scale,
                               "seed": args.seed,
                               "epochs": args.epochs,
                               "test_auc": result.test.auc,
                               "test_logloss": result.test.logloss,
                           })
    print(f"{label} on {args.dataset}: test {result.test}")
    print(f"artifact written to {path}")
    return 0


def _load_session(artifact: str) -> InferenceSession:
    try:
        return InferenceSession.load(artifact)
    except (ArtifactError, OSError) as exc:
        raise SystemExit(f"cannot load artifact {artifact}: {exc}")


def _cmd_serve(args: argparse.Namespace) -> int:
    if (args.artifact is None) == (args.registry is None):
        raise SystemExit("serve: pass exactly one of --artifact or "
                         "--registry")
    model_registry = None
    version = "v0"
    if args.registry:
        model_registry = ModelRegistry(args.registry)
        try:
            version = model_registry.production()
            session = _load_session(model_registry.path(version))
        except RegistryError as exc:
            raise SystemExit(f"serve: {exc}")
    else:
        session = _load_session(args.artifact)
    admission = (AdmissionController(args.max_inflight)
                 if args.max_inflight else None)
    with _telemetry(args) as (observers, tracer):
        server = ScoringServer(
            session, host=args.host, port=args.port,
            max_batch_size=args.max_batch_size, max_wait_ms=args.max_wait_ms,
            num_workers=args.workers, cache_size=args.cache_size,
            registry=MetricRegistry(), observers=observers.observers,
            tracer=tracer, version=version, admission=admission,
            breaker=CircuitBreaker(), model_registry=model_registry,
            request_timeout_s=args.request_timeout_s)
        if model_registry is not None:
            state = model_registry.state()
            ignored = {key: value for key, value in state.items() if value
                       and key not in (*ROLES, "format_version", DIGEST_KEY)}
            if ignored:
                print(f"serve: ignoring {ignored} in {STATE_NAME}: only the "
                      f"production and shadow roles are served",
                      file=sys.stderr)
            shadow = state.get("shadow")
            if shadow:
                server.router.set_shadow(
                    _load_session(model_registry.path(shadow)), shadow)
        stop = threading.Event()

        def request_stop(signum, frame) -> None:
            stop.set()

        previous = {sig: signal.signal(sig, request_stop)
                    for sig in (signal.SIGTERM, signal.SIGINT)}
        server.start()
        print(f"serving {session.model_name} at {server.url} "
              f"(batch<= {args.max_batch_size}, wait<= {args.max_wait_ms}ms, "
              f"workers={args.workers}, cache={args.cache_size})")
        sys.stdout.flush()
        try:
            stop.wait()
            print("shutdown requested; draining in-flight requests...",
                  file=sys.stderr)
            server.close(drain=True)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
    print("drained; bye", file=sys.stderr)
    return 0


def _read_rows_file(path: str) -> list:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"predict: cannot read {path}: {exc}")
    rows = payload.get("rows") if isinstance(payload, dict) else payload
    if not isinstance(rows, list) or not rows:
        raise SystemExit(
            'predict: input must be {"rows": [...]} or a non-empty list')
    return rows


def _cmd_predict(args: argparse.Namespace) -> int:
    session = _load_session(args.artifact)
    if args.input:
        rows = _read_rows_file(args.input)
        if args.limit is not None:
            rows = rows[:args.limit]
        try:
            logits = session.score_rows(rows)
        except ValueError as exc:
            raise SystemExit(f"predict: {exc}")
    else:
        data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        split = data.splits[args.split]
        if args.limit is not None and args.limit < len(split):
            split = split.subset(np.arange(args.limit))
        logits = session.score_batch(split.as_single_batch())
    probs = session.probabilities(logits)
    payload = json.dumps({
        "model": session.model_name,
        "artifact": str(args.artifact),
        "rows": int(logits.shape[0]),
        "logits": [float(v) for v in logits],
        "probabilities": [float(p) for p in probs],
    }, indent=2)
    if args.output:
        Path(args.output).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {logits.shape[0]} scores to {args.output}")
    else:
        print(payload)
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    registry = ModelRegistry(args.registry)
    try:
        if args.registry_command == "publish":
            version = registry.publish(args.artifact, version=args.version,
                                       promote=args.promote)
            role = " (promoted to production)" if args.promote else ""
            print(f"published {args.artifact} as {version}{role}")
        elif args.registry_command == "promote":
            registry.promote(args.version)
            print(f"production is now {args.version}")
        elif args.registry_command == "shadow":
            registry.set_shadow(args.version)
            print(f"shadow is now {args.version or 'cleared'}")
        else:  # list
            state = registry.state()
            print(f"registry {registry.root}")
            print(f"  production: {state.get('production')}")
            print(f"  shadow:     {state.get('shadow')}")
            for version in registry.versions():
                info = registry.describe(version)
                print(f"  {version}: {info['model']} "
                      f"digest={info['digest'][:12]}… "
                      f"dataset={info['dataset']}")
    except (RegistryError, ArtifactError, OSError) as exc:
        print(f"registry: {exc}", file=sys.stderr)
        return 1
    return 0


def _stream_bootstrap(args: argparse.Namespace, registry: ModelRegistry,
                      processed) -> str:
    """Ensure the registry has a production version; returns its name."""
    try:
        return registry.production()
    except RegistryError:
        if args.bootstrap_epochs < 1:
            raise SystemExit(
                f"stream-train: registry {args.registry} has no production "
                f"version; publish one or pass --bootstrap-epochs N")
    model = create_model(args.model, processed.schema, seed=args.seed + 1)
    trainer = Trainer(TrainConfig(epochs=args.bootstrap_epochs,
                                  batch_size=128, seed=args.seed + 1))
    result = trainer.fit(model, processed.train, processed.validation)
    print(f"bootstrap: {args.model} offline validation {result.validation}")
    with tempfile.TemporaryDirectory(prefix="stream-bootstrap-") as tmp:
        artifact = export_artifact(
            model, Path(tmp) / "artifact", model_name=args.model,
            metadata={"dataset": processed.schema.name,
                      "val_auc": result.validation.auc})
        version = registry.publish(artifact, promote=True)
    print(f"bootstrap: published {version} (production)")
    return version


def _cmd_stream_train(args: argparse.Namespace) -> int:
    # Flags are validated before any work: the bootstrap below trains,
    # publishes and promotes a model into the registry.
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("stream-train: --resume requires --checkpoint-dir")
    world = InterestWorld(make_config(args.dataset, scale=args.scale,
                                      seed=args.seed))
    processed = build_ctr_data(world, seed=args.seed + 1)
    try:
        stream_config = StreamConfig(
            num_windows=args.windows,
            impressions_per_window=args.impressions,
            seed=args.seed + 11,
            drift_window=args.drift_window,
            drift_fraction=args.drift_fraction)
    except ValueError as exc:
        raise SystemExit(f"stream-train: {exc}")
    stream = ClickStream(world, processed, stream_config)
    registry = ModelRegistry(args.registry)
    version = _stream_bootstrap(args, registry, processed)

    def factory(session):
        return ScoringEngine(session, max_batch_size=64, max_wait_ms=0.5,
                             num_workers=1, cache_size=0)

    with _telemetry(args) as (observers, _):
        router = ModelRouter(factory)
        router.deploy_primary(_load_session(registry.path(version)), version)
        trainer = IncrementalTrainer.from_artifact(
            registry.path(version),
            IncrementalConfig(learning_rate=args.learning_rate,
                              seed=args.seed),
            checkpoint_dir=args.checkpoint_dir)
        start_window = 0
        if args.resume:
            start_window = trainer.resume()
            if start_window:
                print(f"resuming from window {start_window}")
        export_tmp = None
        if args.export_dir is None:
            export_tmp = tempfile.TemporaryDirectory(prefix="stream-exports-")
            export_dir = export_tmp.name
        else:
            export_dir = args.export_dir
        controller = PromotionController(
            registry, router, export_dir=export_dir, model_name=args.model,
            observers=observers)
        loop = OnlineLoop(stream, trainer, router, controller,
                          DriftMonitor(), observers=observers)
        try:
            result = loop.run(start_window=start_window)
        except NumericalAnomalyError as exc:
            print(f"stream-train: numerical anomaly not recoverable: {exc}",
                  file=sys.stderr)
            return 1
        finally:
            router.close()
            if export_tmp is not None:
                export_tmp.cleanup()
    print(json.dumps(result.summary(), indent=2))
    if args.log_jsonl:
        print(f"stream trace written to {args.log_jsonl} "
              f"(view: repro inspect-run {args.log_jsonl})")
    return 0 if result.dropped == 0 else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"datasets": _cmd_datasets, "train": _cmd_train,
                "compare": _cmd_compare, "inspect-run": _cmd_inspect_run,
                "export": _cmd_export, "serve": _cmd_serve,
                "predict": _cmd_predict, "registry": _cmd_registry,
                "stream-train": _cmd_stream_train}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
