"""``serve_engine_open``: independent users arriving on a schedule.

Open loop against an in-process ``ScoringEngine`` (1 worker, 64-row
batches, 2 ms wait, 4,096-row cache): one scheduling thread submits single
rows at 1000 / 2000 / 4000 / 8000 / 16000 requests/s whether or not earlier
requests have completed (the top rate is beyond what one core can send and
score, so that the run also reads a capacity).  Three requests in ten
repeat an earlier row.  Every latency runs from the instant the request was
*due*, so a generator or engine stall is charged to the requests it delays,
and the percentiles are over the requests that needed a forward, not the
ones the row cache answered in microseconds.  The batcher works
the other way round from ``serve_http_batch32``: it coalesces single rows
under ``max_wait_ms``, the cache does part of the work, and there is no
HTTP.

The window holds the ladder twice (two cycles of five legs), so every rate
is observed in two stretches of time ten seconds apart, and each leg starts
on an empty queue: the backlog of a saturated leg is drained, not handed to
the next rate.

Generator and worker are pinned to one core.  The GIL lets only one of them
run at a time anyway, and where the scheduler happens to place two threads
that wake each other two thousand times a second otherwise decides the
latency: side-by-side runs read p50 3.3-3.8 ms pinned, 3.7-5.2 ms unpinned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.serving import ScoringEngine, build_request_stream

from .common import (
    SLICES,
    Ctx,
    Outcome,
    pin_to_one_core,
    quantile,
    slice_quantiles,
)
from .serving_setup import (
    ForwardProbe,
    ReferenceScorer,
    ServingBase,
    batcher_counters,
    build_serving,
)

__all__ = ["TAIL_QUANTILE", "setup", "teardown", "run_untraced",
           "run_traced"]

#: ~280 scored requests per slice at 1000/s: p95 leaves 14 beyond it in a
#: slice, 140 over the rate's ten slices.  (The slice p99, 3 beyond it, is
#: kept per layer; ten-seed sets of it spread half as wide again.)
TAIL_QUANTILE = 0.95

_DRAIN_TIMEOUT_S = 30.0
_MAX_BATCH = 64
#: A leg whose generator sent below this share of its rate, or ran later
#: than half the latency limit at p99, did not keep its own schedule.
_MIN_RATE_SHARE = 0.98


@dataclass
class EngineState:
    base: ServingBase
    engine: ScoringEngine
    probe: ForwardProbe | None
    stream: list[int]
    leg_s: float
    next_request: int = 0


@dataclass
class Ladder:
    """Per-request arrays of one pass over the ladder, and its legs."""

    first: int
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    value: np.ndarray
    bad: np.ndarray
    #: answered from the row cache inside ``submit_row`` (no forward)
    cached: np.ndarray
    legs: list[dict] = field(default_factory=list)
    #: one summary per rate, filled in by ``_summarise``
    steps: list[dict] = field(default_factory=list)

    def finished(self, lo: int, hi: int) -> np.ndarray:
        return np.isfinite(self.done[lo:hi]) & ~self.bad[lo:hi]


def _passes(ctx: Ctx) -> int:
    return 2 if ctx.traced else 1


def setup(ctx: Ctx) -> EngineState:
    sizes = ctx.sizes
    pin_to_one_core()       # this thread, and the engine worker to come
    base = build_serving(ctx)
    probe = ForwardProbe(base.session) if ctx.traced else None
    engine = ScoringEngine(probe or base.session, max_batch_size=_MAX_BATCH,
                           max_wait_ms=2.0, num_workers=1,
                           cache_size=sizes.cache_size)
    legs = sizes.ladder_cycles * len(sizes.ladder_qps)
    leg_s = ctx.seconds / _passes(ctx) / legs
    per_pass = sizes.ladder_cycles * sum(int(qps * leg_s)
                                         for qps in sizes.ladder_qps)
    stream = build_request_stream(len(base.pool), per_pass * _passes(ctx),
                                  repeat_fraction=sizes.repeat_fraction,
                                  seed=ctx.seed)
    # Warm-up on the pool's tail: the round-robin reaches those rows only
    # after 8,000 others, long after the cache dropped them.
    engine.score(base.pool[-sizes.engine_warmup_requests:],
                 timeout=_DRAIN_TIMEOUT_S)
    return EngineState(base=base, engine=engine, probe=probe, stream=stream,
                       leg_s=leg_s)


def teardown(state: EngineState) -> None:
    state.engine.close(drain=True, timeout=_DRAIN_TIMEOUT_S)
    state.base.teardown()


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
def _run_ladder(state: EngineState, ctx: Ctx, rec=None) -> Ladder:
    sizes, engine = ctx.sizes, state.engine
    pool, stream = state.base.pool, state.stream
    rates = list(sizes.ladder_qps) * sizes.ladder_cycles
    counts = [int(qps * state.leg_s) for qps in rates]
    total, first = sum(counts), state.next_request
    state.next_request += total
    run = Ladder(first=first, due=np.zeros(total), sent=np.zeros(total),
                 done=np.full(total, np.nan), value=np.full(total, np.nan),
                 bad=np.zeros(total, dtype=bool),
                 cached=np.zeros(total, dtype=bool))
    due, sent, done, value, bad, cached = (run.due, run.sent, run.done,
                                           run.value, run.bad, run.cached)
    clock, sleep = time.perf_counter, time.sleep

    def on_done(k: int, future) -> None:
        if future.cancelled() or future.exception() is not None:
            bad[k] = True
        else:
            value[k] = future.result()
        done[k] = clock()       # last: a finite done[k] means k is settled

    # No future is kept: a list of tens of thousands of them makes every
    # full garbage collection scan the load generator's own bookkeeping,
    # and those pauses (50-100 ms) would be charged to the engine.
    def submit(k: int) -> None:
        engine.submit_row(*pool[stream[first + k]]).add_done_callback(
            partial(on_done, k))
        # A cache hit resolves inside submit_row, on this thread.
        cached[k] = not math.isnan(done[k])

    def tick(k: int) -> None:
        delay = due[k] - clock()
        if delay > 0:
            sleep(delay)
        sent[k] = clock()
        submit(k)

    def traced_tick(k: int) -> None:
        with rec.span("gen.tick", ref=first + k):
            with rec.span("gen.wait"):
                delay = due[k] - clock()
                if delay > 0:
                    sleep(delay)
            sent[k] = clock()
            with rec.span("gen.submit"):
                submit(k)

    def drain(lo: int, hi: int) -> None:
        give_up = clock() + _DRAIN_TIMEOUT_S
        while np.isnan(done[lo:hi]).any() and clock() < give_up:
            sleep(0.002)

    fire = tick if rec is None else traced_tick
    begin = clock()
    lo = depth_mid = 0
    for qps, count in zip(rates, counts):
        hi = lo + count
        due[lo:hi] = clock() + np.arange(count) / qps
        half = lo + count // 2
        for k in range(lo, hi):
            if k == half:
                depth_mid = engine.queue_depth()
            fire(k)
        run.legs.append({"qps": qps, "lo": lo, "hi": hi,
                         "depth_mid": depth_mid,
                         "depth_end": engine.queue_depth()})
        if rec is None:
            drain(lo, hi)
        else:
            with rec.span("gen.drain", ref=first + hi - 1):
                drain(lo, hi)
        lo = hi
    if rec is not None:
        rec.wall(begin, clock())
    return run


def _summarise(run: Ladder, ctx: Ctx) -> None:
    """One summary per rate over its legs: counts, latency, lateness, and
    the verdict.

    ``p50_ms`` / ``tail_ms`` / ``p99_ms`` are medians over the slices of the
    rate's legs, of the requests that were scored rather than answered from
    the cache.
    They are raw: at these rates latency is the 2 ms batching timer, thread
    wake-ups and GIL hand-overs as much as computation, and it does not
    follow the speed reference.
    """
    sizes = ctx.sizes
    per_leg = max(1, SLICES // sizes.ladder_cycles)
    for qps in sizes.ladder_qps:
        legs = [leg for leg in run.legs if leg["qps"] == qps]
        latencies, late = [], []
        slice_p50, slice_tail, slice_p99 = [], [], []
        kept_schedule = no_backlog = True
        achieved = float("inf")
        sent = 0
        for leg in legs:
            lo, hi = leg["lo"], leg["hi"]
            count = hi - lo
            sent += count
            finished = run.finished(lo, hi)
            latency = (run.done[lo:hi] - run.due[lo:hi])[finished] * 1000.0
            leg_late = (run.sent[lo:hi] - run.due[lo:hi]) * 1000.0
            leg_rate = count / (run.sent[hi - 1] - run.due[lo] + 1.0 / qps)
            achieved = min(achieved, leg_rate)
            kept_schedule &= bool(
                leg_rate >= _MIN_RATE_SHARE * qps
                and quantile(leg_late, 0.99) <= sizes.latency_limit_ms / 2)
            # A queue deeper at the end of a leg than at its midpoint is a
            # backlog that a longer leg would turn into misses; less than
            # one batch waiting is a batch forming, not a backlog.
            no_backlog &= leg["depth_end"] <= max(leg["depth_mid"],
                                                  _MAX_BATCH)
            latencies.append(latency)
            late.append(leg_late)
            # Percentiles over the requests that needed a forward: a third
            # of all requests are cache hits answered in microseconds, and
            # a median across that mixture moves with the hit share.
            scored = ~run.cached[lo:hi][finished]
            edges = np.linspace(0, count, per_leg + 1)
            where = np.flatnonzero(finished)[scored]
            slice_p50 += slice_quantiles(edges, where, latency[scored], 0.5)
            slice_tail += slice_quantiles(edges, where, latency[scored],
                                          TAIL_QUANTILE)
            slice_p99 += slice_quantiles(edges, where, latency[scored], 0.99)
        latency = np.concatenate(latencies)
        # Unfinished and failed requests miss the limit.
        within = int((latency <= sizes.latency_limit_ms).sum()) / sent
        run.steps.append({
            "qps": qps, "sent": sent, "done": int(latency.size),
            "failed": sent - int(latency.size),
            "p50_ms": float(np.median(slice_p50)) if slice_p50 else None,
            "tail_ms": float(np.median(slice_tail)) if slice_tail else None,
            "p99_ms": float(np.median(slice_p99)) if slice_p99 else None,
            "late_ms_p99": quantile(np.concatenate(late), 0.99),
            "achieved_qps": achieved,
            "within_limit_share": within,
            "depths_mid_end": [(leg["depth_mid"], leg["depth_end"])
                               for leg in legs],
            "generator_kept_schedule": kept_schedule,
            "passes": bool(kept_schedule and no_backlog
                           and within >= sizes.limit_share),
        })


def _verify(outcome: Outcome, state: EngineState, run: Ladder,
            reference: np.ndarray) -> None:
    rows = np.asarray(state.stream[run.first:run.first + run.due.size])
    finished = run.finished(0, run.due.size)
    wrong = finished & (run.value != reference[rows])
    bad = int((~finished).sum() + wrong.sum())
    outcome.attempted += run.due.size
    outcome.failed += bad
    outcome.check(bad == 0, f"{int((~finished).sum())} requests failed or "
                            f"never completed, {int(wrong.sum())} returned "
                            f"a score other than the offline one")


def _step(run: Ladder, qps: int) -> dict:
    return next(step for step in run.steps if step["qps"] == qps)


def _max_rate(run: Ladder) -> float:
    return float(max((s["qps"] for s in run.steps if s["passes"]),
                     default=0))


def _completed_per_s(run: Ladder) -> float:
    """Requests completed over first-due -> last-done of every leg: the
    schedule's own rate while the engine keeps up, its capacity once it
    does not."""
    busy = sum(np.nanmax(run.done[leg["lo"]:leg["hi"]]) - run.due[leg["lo"]]
               for leg in run.legs)
    return int(np.isfinite(run.done).sum()) / busy


def run_untraced(state: EngineState, ctx: Ctx) -> Outcome:
    outcome = Outcome()
    scorer = ReferenceScorer(state.base, ctx.speed)
    scorer.score_half()
    run = _run_ladder(state, ctx)
    scorer.score_half()
    _summarise(run, ctx)
    _verify(outcome, state, run, scorer.logits())
    headline = _step(run, ctx.sizes.headline_qps)
    eval_rate, eval_rate_raw = scorer.sampler.rows_per_s()
    outcome.metrics = {
        "rows_per_s": _completed_per_s(run),
        "eval_rows_per_s": eval_rate,
        "p50_ms": headline["p50_ms"],
        "tail_ms": headline["tail_ms"],
    }
    outcome.notes = {"max_rate_qps": _max_rate(run),
                     "latency_samples": headline["done"],
                     "tail_quantile": TAIL_QUANTILE,
                     "speed_index": 1.0 / ctx.speed.scale(),
                     "raw": {"eval_rows_per_s": eval_rate_raw},
                     "ladder": run.steps}
    return outcome


def run_traced(state: EngineState, ctx: Ctx) -> Outcome:
    outcome = Outcome()
    rec, probe, sizes = ctx.recorder, state.probe, ctx.sizes
    metrics = outcome.metrics

    plain = _run_ladder(state, ctx)
    _summarise(plain, ctx)
    # Counters: public state after the untraced pass (warm-up included).
    metrics.update(batcher_counters(state.engine.stats()))
    forward = probe.summary()
    calls_before = len(probe.calls)
    probe.recorder = rec
    traced = _run_ladder(state, ctx, rec)
    _summarise(traced, ctx)
    forward["serving.forward.block_ms_p50"] = probe.summary(
        calls_before)["serving.forward.block_ms_p50"]
    metrics.update(forward)
    for k in np.flatnonzero(traced.finished(0, traced.due.size)):
        rec.record("engine.request", traced.due[k], traced.done[k],
                   ref=traced.first + int(k), thread="async")

    reference = ReferenceScorer(state.base, ctx.speed).logits()
    _verify(outcome, state, plain, reference)
    _verify(outcome, state, traced, reference)

    for qps in (1000, 4000):
        step = _step(plain, qps)
        metrics[f"engine.p50_ms_r{qps}"] = step["p50_ms"] or 0.0
        metrics[f"engine.p99_ms_r{qps}"] = step["p99_ms"] or 0.0
    top = _step(plain, 8000)
    metrics["engine.done_share_r8000"] = top["within_limit_share"]
    metrics["engine.max_rate_qps"] = _max_rate(plain)
    metrics["gen.late_ms_p99"] = quantile(
        (plain.sent - plain.due) * 1000.0, 0.99)
    metrics["gen.achieved_qps_r8000"] = top["achieved_qps"]
    metrics["trace.coverage"] = rec.coverage()
    base = _step(plain, sizes.headline_qps)["p50_ms"]
    metrics["trace.overhead_share"] = (
        _step(traced, sizes.headline_qps)["p50_ms"] - base) / base
    outcome.notes = {"ladder_untraced": plain.steps,
                     "ladder_traced": traced.steps}
    return outcome
