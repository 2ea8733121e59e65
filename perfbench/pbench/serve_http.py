"""``serve_http_batch32``: a ranking caller scoring a 32-row candidate list
over HTTP and waiting for the reply.

Closed loop: two keep-alive HTTP/1.1 connections, one thread each, the next
request only after the previous reply was read.  Request ``i`` carries pool
rows ``32·i .. 32·i+31`` (mod the pool); the request counter never restarts,
so a row recurs only after 8,192 others and the 4,096-row cache never hits.
The whole stack runs: HTTP parse -> rows_to_batch -> router -> batcher ->
blocked forward -> reply.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.serving import (
    InferenceSession,
    ScoringEngine,
    ScoringServer,
    rows_to_batch,
)

from .common import SLICES, Ctx, Outcome, median_over_slices, quantile
from .serving_setup import (
    ForwardProbe,
    ReferenceScorer,
    ServingBase,
    batcher_counters,
    build_serving,
)

__all__ = ["TAIL_QUANTILE", "setup", "teardown", "run_untraced",
           "run_traced"]

#: about 77 requests fit one slice of the full window today (770 in all):
#: p90 leaves 8 beyond it in a slice, 77 over the window.
TAIL_QUANTILE = 0.90

_HEADERS = {"Content-Type": "application/json"}
_TIMEOUT_S = 30.0


@dataclass
class HttpState:
    base: ServingBase
    bodies: list[bytes]
    server: ScoringServer
    probe: ForwardProbe | None
    connections: list[http.client.HTTPConnection]
    counter: "itertools.count[int]"

    def rows_of(self, request: int) -> slice:
        per = len(self.base.pool) // len(self.bodies)
        start = (request % len(self.bodies)) * per
        return slice(start, start + per)


def _post(conn: http.client.HTTPConnection, body: bytes,
          headers: dict = _HEADERS) -> tuple[int, bytes]:
    conn.request("POST", "/score", body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def _client(state: HttpState, conn, out: list, *, until: float | None,
            count: int | None, rec=None) -> None:
    """Requests on one connection until ``until`` or ``count`` of them."""
    sent = 0
    while (count is None or sent < count) and (
            until is None or time.perf_counter() < until):
        request = next(state.counter)
        body = state.bodies[request % len(state.bodies)]
        start = time.perf_counter()
        try:
            if rec is None:
                status, payload = _post(conn, body)
            else:
                with rec.span("serving.server.http_request", ref=request):
                    status, payload = _post(conn, body)
        except (OSError, http.client.HTTPException):
            # Counted as a failed request; the next one reconnects.
            status, payload = 0, b""
            conn.close()
        out.append((request, status, start, time.perf_counter(), payload))
        sent += 1


def _closed_loop(state: HttpState, *, seconds: float | None,
                 count: int | None, rec=None) -> list:
    """Every connection's thread runs ``_client`` from one starting gun."""
    samples: list[list] = [[] for _ in state.connections]
    gun = threading.Barrier(len(state.connections))

    def run(index: int) -> None:
        gun.wait()
        start = time.perf_counter()
        _client(state, state.connections[index], samples[index],
                until=None if seconds is None else start + seconds,
                count=count, rec=rec)
        if rec is not None:
            rec.wall(start, time.perf_counter())

    threads = [threading.Thread(target=run, args=(i,), name=f"load-{i}")
               for i in range(len(state.connections))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [sample for per_thread in samples for sample in per_thread]


def setup(ctx: Ctx) -> HttpState:
    sizes = ctx.sizes
    base = build_serving(ctx)
    per = sizes.http_rows_per_request
    bodies = [
        json.dumps({"rows": [
            {"categorical": c.tolist(), "sequences": s.tolist(),
             "mask": m.tolist()} for c, s, m in base.pool[start:start + per]
        ]}).encode("utf-8")
        for start in range(0, len(base.pool), per)]
    probe = ForwardProbe(base.session) if ctx.traced else None
    server = ScoringServer(probe or base.session).start()
    connections = [http.client.HTTPConnection(server.host, server.port,
                                              timeout=_TIMEOUT_S)
                   for _ in range(sizes.http_connections)]
    for conn in connections:
        conn.connect()
    state = HttpState(base=base, bodies=bodies, server=server, probe=probe,
                      connections=connections, counter=itertools.count())
    warm = _closed_loop(state, seconds=None,
                        count=sizes.http_warmup_per_connection)
    if any(status != 200 for _, status, *_ in warm):
        raise RuntimeError("warm-up request did not return 200")
    return state


def teardown(state: HttpState) -> None:
    for conn in state.connections:
        conn.close()
    state.server.close()
    state.base.teardown()


# ----------------------------------------------------------------------
# Checks and end-to-end numbers
# ----------------------------------------------------------------------
def _verify(outcome: Outcome, state: HttpState, samples: list,
            reference: np.ndarray) -> None:
    """Every reply is a 200 whose scores equal the offline forward of the
    same rows, bit for bit."""
    outcome.attempted += len(samples)
    bad = 0
    for request, status, _, _, payload in samples:
        expected = reference[state.rows_of(request)]
        try:
            reply = json.loads(payload) if status == 200 else None
            good = (reply is not None
                    and np.array_equal(np.array(reply["logits"]), expected)
                    and np.array_equal(
                        np.array(reply["probabilities"]),
                        InferenceSession.probabilities(expected)))
        except (ValueError, KeyError):
            good = False
        bad += not good
    outcome.failed += bad
    outcome.check(bad == 0, f"{bad} of {len(samples)} replies were not a "
                            f"200 with the offline scores")


def _check_cache_bypassed(outcome: Outcome, state: HttpState) -> None:
    hits = state.server.engine.stats()["cache"]["hits"]
    outcome.check(hits == 0, f"row cache hit {hits} times; this workload "
                             f"must bypass it")


def _latencies_ms(samples: list) -> np.ndarray:
    return np.array([(end - start) * 1000.0
                     for _, status, start, end, _ in samples
                     if status == 200])


def _window_metrics(samples: list, ctx: Ctx) -> dict[str, float]:
    """Medians over the window's slices.  The latency is dominated by
    socket waits today (a 40 ms kernel timer), not by computation, so it
    is reported raw, not at reference speed."""
    sizes = ctx.sizes
    begin = min(s[2] for s in samples)
    edges = begin + np.linspace(0.0, ctx.seconds, SLICES + 1)
    ended = np.array([s[3] for s in samples if s[1] == 200])
    latency = _latencies_ms(samples)
    # Every connection always has one request in flight, so a slice
    # answers connections / (mean latency) requests per second; counting
    # whole replies per slice instead would only take a few values.
    which = np.searchsorted(edges, ended, side="right") - 1
    rates = [sizes.http_connections * sizes.http_rows_per_request
             / (latency[which == i].mean() / 1000.0)
             for i in range(SLICES) if (which == i).any()]
    return {
        "rows_per_s": float(np.median(rates)),
        "p50_ms": median_over_slices(edges, ended, latency, 0.5),
        "tail_ms": median_over_slices(edges, ended, latency,
                                      TAIL_QUANTILE),
    }


def run_untraced(state: HttpState, ctx: Ctx) -> Outcome:
    outcome = Outcome()
    scorer = ReferenceScorer(state.base, ctx.speed)
    scorer.score_half()
    samples = _closed_loop(state, seconds=ctx.seconds, count=None)
    scorer.score_half()
    _verify(outcome, state, samples, scorer.logits())
    reference_rate, reference_rate_raw = scorer.sampler.rows_per_s()
    _check_cache_bypassed(outcome, state)
    outcome.metrics = _window_metrics(samples, ctx)
    outcome.metrics["eval_rows_per_s"] = reference_rate
    latencies = _latencies_ms(samples)
    outcome.notes = {"requests": len(samples),
                     "latency_samples": int(latencies.size),
                     "tail_quantile": TAIL_QUANTILE,
                     "connections": len(state.connections),
                     "speed_index": 1.0 / ctx.speed.scale(),
                     "raw": {"eval_rows_per_s": reference_rate_raw},
                     "whole_window": {
                         "p50_ms": quantile(latencies, 0.5),
                         "p98_ms": quantile(latencies, 0.98),
                         "max_ms": float(latencies.max())}}
    return outcome


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def _replay_layers(outcome: Outcome, state: HttpState, ctx: Ctx,
                   reference: np.ndarray) -> None:
    """One thread walks request bodies through the layers a ``/score``
    handler calls, in process, a span around each."""
    rec, session = ctx.recorder, state.base.session
    probe = ForwardProbe(session, rec)
    bad = 0
    start = time.perf_counter()
    with ScoringEngine(probe) as engine:
        # Its own request numbers: the server's counter must not skip, or
        # the rows it sees next would still be in its cache.
        for request in range(ctx.sizes.replay_requests):
            body = state.bodies[request % len(state.bodies)]
            with rec.span("replay.request", ref=request):
                with rec.span("serving.server.json_parse"):
                    payload = json.loads(body)
                with rec.span("serving.session.validate"):
                    batch = rows_to_batch(session.schema, payload["rows"])
                rows = [(batch.categorical[i], batch.sequences[i],
                         batch.mask[i]) for i in range(len(batch))]
                with rec.span("serving.batcher.score32") as score:
                    probe.parent, probe.ref = score.id, request
                    logits = engine.score(rows, timeout=_TIMEOUT_S)
                with rec.span("serving.server.reply_encode"):
                    probabilities = session.probabilities(logits)
                    json.dumps({
                        "model": session.model_name, "model_version": "v0",
                        "logits": [float(v) for v in logits],
                        "probabilities": [float(p) for p in probabilities],
                    }).encode("utf-8")
            bad += not np.array_equal(logits,
                                      reference[state.rows_of(request)])
    rec.wall(start, time.perf_counter())
    outcome.attempted += ctx.sizes.replay_requests
    outcome.failed += bad
    outcome.check(bad == 0, f"{bad} in-process replays did not return the "
                            f"offline scores")


def _new_connections(state: HttpState, ctx: Ctx) -> list:
    """The ``loadgen`` way: a fresh connection per request."""
    rec, samples = ctx.recorder, []
    headers = {**_HEADERS, "Connection": "close"}
    begin = time.perf_counter()
    for _ in range(ctx.sizes.newconn_requests):
        request = next(state.counter)
        body = state.bodies[request % len(state.bodies)]
        start = time.perf_counter()
        with rec.span("serving.server.newconn_request", ref=request):
            conn = http.client.HTTPConnection(
                state.server.host, state.server.port, timeout=_TIMEOUT_S)
            try:
                status, payload = _post(conn, body, headers)
            except (OSError, http.client.HTTPException):
                status, payload = 0, b""
            finally:
                conn.close()
        samples.append((request, status, start, time.perf_counter(),
                        payload))
    rec.wall(begin, time.perf_counter())
    return samples


def run_traced(state: HttpState, ctx: Ctx) -> Outcome:
    outcome = Outcome()
    rec, probe = ctx.recorder, state.probe
    window = ctx.seconds / 2.0

    plain = _closed_loop(state, seconds=window, count=None)
    metrics = outcome.metrics
    # Counters: public state after the untraced pass (warm-up included).
    metrics.update(batcher_counters(state.server.engine.stats()))
    forward = probe.summary()
    calls_before = len(probe.calls)
    probe.recorder = rec
    traced = _closed_loop(state, seconds=window, count=None, rec=rec)
    forward["serving.forward.block_ms_p50"] = probe.summary(
        calls_before)["serving.forward.block_ms_p50"]
    metrics.update(forward)

    reference = ReferenceScorer(state.base, ctx.speed).logits()
    _replay_layers(outcome, state, ctx, reference)
    fresh = _new_connections(state, ctx)
    _verify(outcome, state, plain + traced + fresh, reference)
    _check_cache_bypassed(outcome, state)

    for name, span in (
            ("serving.server.json_parse_ms_p50", "serving.server.json_parse"),
            ("serving.session.validate_ms_p50", "serving.session.validate"),
            ("serving.batcher.score32_ms_p50", "serving.batcher.score32"),
            ("serving.server.reply_encode_ms_p50",
             "serving.server.reply_encode")):
        metrics[name] = quantile(rec.durations_ms(span), 0.5)
    base = quantile(_latencies_ms(plain), 0.5)
    metrics["serving.server.http_overhead_ms_p50"] = base - sum(
        metrics[name] for name in ("serving.server.json_parse_ms_p50",
                                   "serving.session.validate_ms_p50",
                                   "serving.batcher.score32_ms_p50",
                                   "serving.server.reply_encode_ms_p50"))
    metrics["serving.server.newconn_p50_ms"] = quantile(
        _latencies_ms(fresh), 0.5)
    metrics["trace.coverage"] = rec.coverage()
    metrics["trace.overhead_share"] = (
        quantile(_latencies_ms(traced), 0.5) - base) / base
    outcome.notes = {"untraced_requests": len(plain),
                     "traced_requests": len(traced),
                     "untraced_p50_ms": base}
    return outcome
