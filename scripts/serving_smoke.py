#!/usr/bin/env python
"""End-to-end serving smoke test (run by CI, usable locally).

Exercises the full shipping path exactly as an operator would:

1. ``repro export`` trains a tiny model and freezes it as an artifact.
2. ``repro serve`` is started as a real subprocess on a free port.
3. 100 ``POST /score`` requests are sent; every response must be a 200 with
   finite logits, and the p99 end-to-end latency must stay under a generous
   bound (the bound catches pathological stalls, not performance drift).
   Halfway through, ``POST /admin/reload`` hot-swaps the model from a second
   thread while the requests keep coming — the swap must succeed and no
   request around it may fail.
4. SIGTERM must drain in-flight work and exit with status 0.
5. The server's own trace (``--log-jsonl`` and ``--trace-jsonl`` into one
   file) must tell the same story: every record passes
   ``repro.obs.check_record``, and every row ends exactly once — as many
   ``request_completed`` as ``request_received`` records, with equal
   multisets of ``request_id`` (ids restart per engine, so the reload
   legitimately repeats them), the rows in flight across the swap included.

Usage: ``python scripts/serving_smoke.py [--trace PATH]`` from the
repository root (the script puts ``src`` on ``sys.path``/``PYTHONPATH``
itself).  CI passes ``--trace`` and uploads the file when the job fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
sys.path.insert(0, SRC)

DATASET = "amazon-cds"
SCALE = "0.1"
SEED = "0"
NUM_REQUESTS = 100
P99_BOUND_MS = 2000.0       # generous: catches hangs, not regressions
STARTUP_TIMEOUT_S = 30.0
SHUTDOWN_TIMEOUT_S = 30.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def run_cli(*argv: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-m", "repro", *argv], check=True,
                   env=env, cwd=REPO_ROOT)


def wait_healthy(url: str, process: subprocess.Popen) -> dict:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(f"server exited early with {process.returncode}")
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=2) as resp:
                return json.loads(resp.read())
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.1)
    raise SystemExit(f"server not healthy within {STARTUP_TIMEOUT_S}s")


def request_rows() -> list[dict]:
    from repro.data import load_dataset
    data = load_dataset(DATASET, scale=float(SCALE), seed=int(SEED))
    test = data.test
    return [{"categorical": test.categorical[i].tolist(),
             "sequences": test.sequences[i].tolist(),
             "mask": test.mask[i].tolist()}
            for i in range(min(len(test), NUM_REQUESTS))]


def score(url: str, row: dict) -> tuple[dict, float]:
    body = json.dumps({"rows": [row]}).encode()
    request = urllib.request.Request(
        url + "/score", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    start = time.monotonic()
    with urllib.request.urlopen(request, timeout=10) as resp:
        if resp.status != 200:
            raise SystemExit(f"/score returned {resp.status}")
        payload = json.loads(resp.read())
    return payload, (time.monotonic() - start) * 1000.0


def reload_model(url: str, artifact: Path) -> dict:
    body = json.dumps({"artifact": str(artifact)}).encode()
    request = urllib.request.Request(
        url + "/admin/reload", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=30) as resp:
        if resp.status != 200:
            raise SystemExit(f"/admin/reload returned {resp.status}")
        return json.loads(resp.read())


def p99(values: list[float]) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(0.99 * len(ranked)))]


def check_trace(path: Path) -> None:
    """Schema-check every record; every received row completed once."""
    from repro.obs import check_record
    ids = {"request_received": Counter(), "request_completed": Counter()}
    spans = records = 0
    with open(path, encoding="utf-8") as lines:
        for lineno, line in enumerate(lines, start=1):
            record = json.loads(line)
            problem = check_record(record)
            if problem is not None:
                raise SystemExit(f"{path}:{lineno}: {problem}")
            records += 1
            kind = record["event"]
            if kind in ids:
                ids[kind][record["request_id"]] += 1
            spans += kind == "span" and record["name"] == "serve.request"
    received, completed = ids["request_received"], ids["request_completed"]
    rows = sum(received.values())
    if rows < NUM_REQUESTS:
        raise SystemExit(f"trace has {rows} request_received records, "
                         f"sent {NUM_REQUESTS}")
    if received != completed:
        raise SystemExit(
            f"rows did not end exactly once: received-but-not-completed "
            f"{dict(received - completed)}, completed-but-not-received "
            f"{dict(completed - received)}")
    if spans != rows:
        raise SystemExit(f"{spans} serve.request spans for {rows} rows")
    print(f"[smoke] trace OK: {records} records match the event schema, "
          f"{rows} rows each ended once")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=Path, default=None,
                        help="where the server writes its JSONL trace "
                             "(default: inside the temporary work dir)")
    args = parser.parse_args()
    workdir = Path(tempfile.mkdtemp(prefix="serving-smoke-"))
    artifact = workdir / "artifact"
    trace = (args.trace or workdir / "serve.jsonl").resolve()
    trace.unlink(missing_ok=True)
    print(f"[smoke] exporting tiny artifact to {artifact}")
    run_cli("export", "--dataset", DATASET, "--scale", SCALE,
            "--seed", SEED, "--epochs", "1", "--model", "DIN",
            "--out", str(artifact))

    port = free_port()
    url = f"http://127.0.0.1:{port}"
    env = dict(os.environ, PYTHONPATH=SRC)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--artifact", str(artifact),
         "--port", str(port), "--max-wait-ms", "1.0",
         "--log-jsonl", str(trace), "--trace-jsonl", str(trace)],
        env=env, cwd=REPO_ROOT)
    try:
        health = wait_healthy(url, server)
        print(f"[smoke] healthy: {health}")

        rows = request_rows()
        latencies: list[float] = []
        swaps: list[dict] = []
        reloader = threading.Thread(
            target=lambda: swaps.append(reload_model(url, artifact)))
        for i in range(NUM_REQUESTS):
            if i == NUM_REQUESTS // 2:
                reloader.start()    # requests keep flowing across the swap
            payload, latency_ms = score(url, rows[i % len(rows)])
            logit = payload["logits"][0]
            prob = payload["probabilities"][0]
            if not (logit == logit and abs(logit) < float("inf")):
                raise SystemExit(f"request {i}: non-finite logit {logit}")
            if not 0.0 <= prob <= 1.0:
                raise SystemExit(f"request {i}: probability {prob} out of "
                                 f"range")
            latencies.append(latency_ms)
        reloader.join(timeout=30)
        if not swaps:
            raise SystemExit("/admin/reload did not answer within 30s")
        print(f"[smoke] hot-swapped mid-traffic in "
              f"{swaps[0]['swap_ms']:.1f}ms "
              f"({swaps[0]['old_version']} -> {swaps[0]['new_version']})")
        observed_p99 = p99(latencies)
        print(f"[smoke] {NUM_REQUESTS} requests OK, p99 "
              f"{observed_p99:.1f}ms")
        if observed_p99 > P99_BOUND_MS:
            raise SystemExit(f"p99 {observed_p99:.1f}ms exceeds the "
                             f"{P99_BOUND_MS}ms bound")

        with urllib.request.urlopen(url + "/metrics.json", timeout=5) as resp:
            metrics = json.loads(resp.read())
        print(f"[smoke] cache: {metrics['cache']}")
        if metrics["fleet"]["swaps"] != 2:   # initial deploy + hot swap
            raise SystemExit(f"expected 2 swaps (deploy + reload), fleet "
                             f"reports {metrics['fleet']}")

        with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
            content_type = resp.headers.get("Content-Type", "")
            exposition = resp.read().decode("utf-8")
        if "version=0.0.4" not in content_type:
            raise SystemExit(f"/metrics Content-Type {content_type!r} is not "
                             "the Prometheus text exposition")
        if "serve_latency_seconds_bucket" not in exposition:
            raise SystemExit("/metrics exposition lacks latency buckets")
        print("[smoke] /metrics exposition OK "
              f"({len(exposition.splitlines())} lines)")

        print("[smoke] sending SIGTERM, expecting graceful drain")
        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=SHUTDOWN_TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"server exited {code} on SIGTERM, expected 0")
        check_trace(trace)
        print("[smoke] PASS")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


if __name__ == "__main__":
    sys.exit(main())
