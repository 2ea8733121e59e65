"""Guards around ``repro.training.step``: the optimisation step exists once
in ``src/``, and MISS-Pre (Table IX) is pinned to a hand-written loop.

The per-driver "takes the reference step" matrix lives in
``tests/test_distributed.py::TestReferenceStep``.
"""

import ast
import copy
from pathlib import Path

import numpy as np

import repro
from repro.core import MISSConfig, attach_miss
from repro.data import DataLoader, load_dataset
from repro.models import create_model
from repro.nn import Adam, clip_grad_norm
from repro.training import TrainConfig, Trainer, train_pretrain

SRC = Path(repro.__file__).resolve().parent


def _modules_calling(name: str, bare: bool = False) -> set[str]:
    """Modules under ``src/repro`` (outside ``nn/``) that call ``name``, as
    a plain function or as a method; ``bare`` keeps only calls without
    arguments."""
    hits = set()
    for path in SRC.rglob("*.py"):
        module = path.relative_to(SRC).as_posix()
        if module.startswith("nn/"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (func.attr if isinstance(func, ast.Attribute)
                      else getattr(func, "id", None))
            if called == name and not (bare and (node.args or node.keywords)):
                hits.add(module)
    return hits


def test_the_step_is_spelled_out_once():
    # A second module calling either of these is a second copy of the
    # optimisation step: drive repro.training.step instead.  A bare
    # ``backward()`` is a scalar loss being optimised.
    assert _modules_calling("backward", bare=True) == {"training/step.py"}
    assert _modules_calling("clip_grad_norm") == {"training/step.py"}
    assert _modules_calling("improvement") == {"training/step.py"}


def _is_call(node, owner: str, name: str) -> bool:
    """``owner.name(...)``, e.g. ``np.load(...)``."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and getattr(node.func.value, "id", None) == owner)


def test_bytes_on_disk_are_trusted_in_one_place():
    # ``resilience/sealed.py`` decides when a file is trusted.  A second
    # ``np.load`` is a second list of what it can raise; a ``json.loads`` in
    # a format's module is a record read around the shared reader; a
    # ``zlib`` import there is a codec beside ``pack_rows``/``unpack_rows``.
    np_loads, np_load_calls, digests = set(), [], []
    json_loads, zip_imports = set(), set()
    for path in SRC.rglob("*.py"):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if node.name == "array_digest":
                    digests.append(module)
                if any(_is_call(n, "np", "load") for n in ast.walk(node)):
                    np_loads.add((module, node.name))
            elif _is_call(node, "np", "load"):
                np_load_calls.append(module)
            elif _is_call(node, "json", "loads") or _is_call(node, "json", "load"):
                json_loads.add(module)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
                names.add(getattr(node, "module", None))
                if names & {"zipfile", "zlib"}:
                    zip_imports.add(module)
    assert np_loads == {("resilience/sealed.py", "read_arrays")}
    assert len(np_load_calls) == len(np_loads)       # one each, none loose
    assert digests == ["resilience/sealed.py"]
    formats = {"resilience/checkpoint.py", "data/pipeline/shards.py",
               "serving/artifact.py", "serving/registry.py",
               "distributed/worker.py"}
    assert not formats & json_loads
    assert zip_imports == {"resilience/sealed.py"}   # the one codec


def test_miss_pre_equals_handwritten_two_stage_loop():
    """Table IX's MISS-Pre: SSL-only stage one, then ``Trainer.fit`` of the
    base model — bitwise equal to the loop written out by hand."""
    data = load_dataset("amazon-cds", scale=0.12, seed=0)
    config = TrainConfig(epochs=2, batch_size=64, seed=0)
    model = attach_miss(create_model("DIN", data.schema, seed=1),
                        MISSConfig(seed=2))
    twin = copy.deepcopy(model)

    result = train_pretrain(model, data.train, data.validation, config,
                            pretrain_epochs=2)

    loader = DataLoader(data.train, batch_size=config.batch_size,
                        shuffle=True, rng=np.random.default_rng(config.seed))
    optimizer = Adam(twin.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    twin.train()
    for _ in range(2):
        for batch in loader:
            optimizer.zero_grad()
            twin.ssl_loss(batch).backward()
            clip_grad_norm(optimizer.parameters, config.grad_clip)
            optimizer.step()
    expected = Trainer(config).fit(twin.base, data.train, data.validation)

    assert result.train_losses == expected.train_losses
    assert ([(r.auc, r.logloss) for r in result.history]
            == [(r.auc, r.logloss) for r in expected.history])
    for p, q in zip(model.parameters(), twin.parameters()):
        np.testing.assert_array_equal(p.data, q.data)
