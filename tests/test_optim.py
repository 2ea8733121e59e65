"""Adam over one flat parameter vector: the per-parameter loop it replaced
(``tests/oracles.py``) as its oracle, bit for bit; the binding it keeps
through checkpoints and rollbacks; its checkpoint format; two ``ast``
guards."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import MISSConfig, attach_miss
from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import create_model
from repro.nn import Adam, Parameter
from repro.obs import BaseObserver
from repro.training import TrainConfig, Trainer
from repro.training import trainer as trainer_module
from repro.training.step import RunState, train_step

from .oracles import PerParameterAdam

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parent.parent


# ----------------------------------------------------------------------
# The flat step == the per-parameter loop
# ----------------------------------------------------------------------
@st.composite
def adam_runs(draw):
    shapes = draw(st.lists(st.lists(st.integers(1, 4), max_size=2).map(tuple),
                           min_size=1, max_size=5))
    steps = draw(st.integers(1, 5))
    masks = draw(st.lists(st.one_of(
        st.just([False] * len(shapes)), st.just([True] * len(shapes)),
        st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes))),
        min_size=steps, max_size=steps))
    return dict(shapes=shapes, masks=masks,
                weight_decay=draw(st.sampled_from([0.0, 1e-2])),
                lr=draw(st.sampled_from([1e-3, 0.05])),
                round_trip=draw(st.integers(0, steps)),
                seed=draw(st.integers(0, 2 ** 16)))


@given(adam_runs())
@settings(max_examples=150, deadline=None)
def test_flat_adam_equals_the_per_parameter_loop(run):
    rng = np.random.default_rng(run["seed"])
    init = [rng.standard_normal(shape) for shape in run["shapes"]]
    params = [Parameter(a.copy()) for a in init]
    twins = [Parameter(a.copy()) for a in init]
    adam = Adam(params, lr=run["lr"], weight_decay=run["weight_decay"])
    oracle = PerParameterAdam(twins, lr=run["lr"],
                              weight_decay=run["weight_decay"])
    for step, mask in enumerate(run["masks"]):
        if step == run["round_trip"]:
            # A checkpoint round trip rebinds the same parameters.
            state = adam.state_dict()
            adam = Adam(params, lr=1.0)
            adam.load_state_dict(state)
        adam.zero_grad()
        for p, q, touched in zip(params, twins, mask):
            grad = rng.standard_normal(p.shape) if touched else None
            p.grad = grad
            q.grad = None if grad is None else grad.copy()
        adam.step()
        oracle.step()
        arrays = adam.state_dict()["arrays"]
        for i, (p, q) in enumerate(zip(params, twins)):
            assert np.array_equal(p.data, q.data)
            assert np.array_equal(arrays[f"m.{i}"], oracle.m[i])
            assert np.array_equal(arrays[f"v.{i}"], oracle.v[i])
            assert np.shares_memory(p.data, adam.flat.data)


def test_a_real_din_miss_step_leaves_a_kernel_untouched():
    # The masked rule is live: RS^if samples 8 view pairs a batch, so a
    # MIMFE kernel can go a step without a gradient, and then it must not
    # move.
    data = _data()
    model = attach_miss(create_model("DIN", data.schema, seed=3),
                        MISSConfig(seed=0))
    model.train()
    adam = Adam(model.parameters(), lr=1e-2, weight_decay=1e-5)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    model.training_loss(data.train.subset(np.arange(32)).as_single_batch()
                        ).backward()
    untouched = [n for n, p in model.named_parameters() if p.grad is None]
    assert untouched and all(".fine_extractor.branches." in n
                             for n in untouched)
    adam.step()
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, before[name]) == (name in untouched)


# ----------------------------------------------------------------------
# The binding survives what a run does to its weights
# ----------------------------------------------------------------------
def _data():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=4)
    return build_ctr_data(InterestWorld(config), max_seq_len=8, seed=5)


def _bound(model, adam) -> bool:
    return all(np.shares_memory(p.data, adam.flat.data)
               for p in model.parameters())


class _Rollbacks(BaseObserver):
    def __init__(self):
        self.reasons = []

    def on_checkpoint_restored(self, event):
        self.reasons.append(event.reason)


def test_fit_resume_and_rollback_keep_parameters_bound(monkeypatch, tmp_path):
    built = []

    class Recording(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(trainer_module, "Adam", Recording)
    data = _data()
    model = attach_miss(create_model("DIN", data.schema, seed=3),
                        MISSConfig(seed=0))
    original, calls = model.training_loss, []

    def poisoned(batch):
        loss = original(batch)
        calls.append(1)
        if len(calls) == 5:
            loss.data = np.full_like(loss.data, np.nan)
        return loss

    model.training_loss = poisoned
    observer = _Rollbacks()
    cfg = TrainConfig(epochs=1, batch_size=8, seed=0, patience=1)
    Trainer(cfg).fit(model, data.train, data.validation, [observer],
                     checkpoint_dir=tmp_path, checkpoint_every=3,
                     anomaly_guard=True)
    assert observer.reasons == ["rollback"]
    # Fit also reloaded the best epoch's weights, in place.
    assert _bound(model, built[-1])

    model.training_loss = original
    Trainer(cfg).fit(model, data.train, data.validation, [observer],
                     checkpoint_dir=tmp_path, resume=True)
    assert observer.reasons == ["rollback", "resume"]
    assert _bound(model, built[-1])


def test_run_state_restore_writes_in_place():
    data = _data()
    model = create_model("LR", data.schema, seed=1)
    model.train()
    adam = Adam(model.parameters(), lr=1e-2)
    state = RunState(np.random.default_rng(0), model, adam, {})
    ckpt = state.capture()
    train_step(model, data.train.subset(np.arange(16)).as_single_batch(),
               adam, 5.0)
    state.restore(ckpt)
    assert _bound(model, adam)
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, ckpt.model_state[name])


# ----------------------------------------------------------------------
# Checkpoint format
# ----------------------------------------------------------------------
def test_state_dict_keeps_its_keys_shapes_and_dtypes():
    shapes = [(3, 2), (2,), (1,)]
    adam = Adam([Parameter(np.zeros(s)) for s in shapes], lr=0.01,
                weight_decay=0.5)
    state = adam.state_dict()
    assert state.keys() == {"kind", "lr", "weight_decay", "betas", "eps", "t",
                            "arrays"}
    assert state["kind"] == "Adam" and state["t"] == 0
    assert (state["lr"], state["weight_decay"]) == (0.01, 0.5)
    assert state["betas"] == [0.9, 0.999] and state["eps"] == 1e-8
    assert [type(state[k]) for k in ("lr", "weight_decay", "eps", "t")] == [
        float, float, float, int]
    assert list(state["arrays"]) == ["m.0", "m.1", "m.2", "v.0", "v.1", "v.2"]
    for key, array in state["arrays"].items():
        assert array.shape == shapes[int(key[2:])]
        assert array.dtype == np.float64
        assert not np.shares_memory(array, adam._m)
        assert not np.shares_memory(array, adam._v)


@pytest.mark.parametrize("change", [{"betas": [0.9, 0.99]}, {"eps": 1e-7}])
def test_load_refuses_other_constants(change):
    adam = Adam([Parameter(np.zeros(2))], lr=0.01)
    with pytest.raises(ValueError, match="betas"):
        adam.load_state_dict({**adam.state_dict(), **change})


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------
def test_only_nn_assigns_parameter_data():
    # Rebinding ``p.data`` would silently detach a parameter from its
    # optimizer's vector: outside ``repro.nn`` weights change in place.
    hits = []
    for directory in ("src", "scripts", "benchmarks", "examples", "perfbench"):
        for path in sorted((REPO / directory).rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            if rel.startswith("src/repro/nn/"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                           else [])
                hits += [f"{rel}:{node.lineno}" for target in targets
                         if isinstance(target, ast.Attribute)
                         and target.attr == "data"]
    assert hits == []


def test_adam_step_has_no_loop():
    tree = ast.parse((SRC / "nn" / "optim.py").read_text(encoding="utf-8"))
    adam = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "Adam")
    step = next(node for node in adam.body
                if isinstance(node, ast.FunctionDef) and node.name == "step")
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [node for node in ast.walk(step) if isinstance(node, loops)]
