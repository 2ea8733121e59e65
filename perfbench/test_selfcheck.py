"""Selfcheck of the benchmark itself (not of ``repro``): every workload at
the TINY sizes, untraced and traced, two processes at a time.

    python3 -m pytest perfbench/test_selfcheck.py -q

Checks the result line's shape, that metric names and units are exactly
those of BENCHMARK.json, that the correctness gate passed, and that the
trace file's spans form proper trees.  The numbers themselves mean nothing
at this size.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

EXPECTED_SPANS = {
    "train_din_miss_mem": {
        "training.step", "data.batch", "models.ctr_forward", "models.embed",
        "core.ssl_forward", "nn.backward", "nn.clip", "nn.optim_step",
        "training.eval"},
    "train_din_sharded": {
        "training.step", "data.batch", "models.ctr_forward", "nn.backward",
        "nn.clip", "nn.optim_step", "training.eval", "data.shard_load"},
    "serve_http_batch32": {
        "serving.server.http_request", "replay.request",
        "serving.server.json_parse", "serving.session.validate",
        "serving.batcher.score32", "serving.forward.score_batch",
        "serving.server.reply_encode", "serving.server.newconn_request"},
    "serve_engine_open": {
        "gen.tick", "gen.wait", "gen.submit", "engine.request",
        "serving.forward.score_batch"},
}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--tiny", "--seconds", "1", "--seed", "3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=False)
    lines = proc.stdout.strip().splitlines()
    notes = next((json.loads(line[len("notes "):]) for line in lines
                  if line.startswith("notes ")), {})
    return {"code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "notes": notes,
            "result": json.loads(lines[-1]) if lines else None}


@pytest.fixture(scope="module")
def runs() -> dict:
    jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(lambda job: _run(*job), jobs)))


def _checked_result(run: dict, declared: list[dict]) -> dict:
    assert run["code"] == 0, run["stdout"][-3000:] + run["stderr"][-3000:]
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert ({name: entry["unit"] for name, entry in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert all(math.isfinite(entry["value"])
               for entry in result["metrics"].values())
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(runs, workload):
    result = _checked_result(runs[workload, 0], SPEC["end_to_end"])
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, f"{name} must never read 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(runs, workload):
    result = _checked_result(runs[workload, 1], SPEC["per_layer"])
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_file_spans_form_trees(runs, workload):
    run = runs[workload, 1]
    assert run["code"] == 0, run["stdout"][-3000:] + run["stderr"][-3000:]
    path = ROOT / run["notes"]["trace_file"]
    spans = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    assert len(spans) == run["notes"]["spans"] > 0
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans), "span ids repeat"
    assert EXPECTED_SPANS[workload] <= {span["name"] for span in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is None:
            continue
        parent = by_id[span["parent"]]       # KeyError: dangling parent
        assert parent["start"] <= span["start"]
        assert span["end"] <= parent["end"]
        assert span["ref"] == parent["ref"]


def test_a_directory_without_the_program_is_refused(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
