"""Tests for the one array-math implementation: its single instance,
bit-identity with the seed compositions, gradient buffers and the heap
policy set at import, the ``backend`` key of serving artifacts, and guards
that the backend seam and the gradient pool stay gone."""

import ast
import json
import os
import platform
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser
from repro.core import MISSConfig, attach_miss
from repro.data import (
    DataLoader,
    InterestWorld,
    InterestWorldConfig,
    build_ctr_data,
    load_dataset,
)
from repro.models import create_model
from repro.nn import (
    Adam,
    ArrayOps,
    Dense,
    Embedding,
    FlatParameters,
    Parameter,
    Tensor,
    get_backend,
    kernels,
)
from repro.serving import (
    ArtifactError,
    InferenceSession,
    export_artifact,
    forward_logits,
    load_manifest,
)
from repro.training import predict_logits_array
from repro.training.step import train_step

from . import oracles
from .helpers import edit_record, every_cell

SRC = Path(repro.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent


def make_rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=20, num_items=50, num_topics=6,
                                 num_categories=3, min_interactions=2,
                                 seed=11)
    return build_ctr_data(InterestWorld(config), max_seq_len=6, seed=12)


class TestRegistry:
    def test_default_is_reference(self):
        # The one implementation keeps the name manifests and benchmark
        # environment stamps have always recorded.
        assert get_backend().name == "reference"

    def test_get_backend_is_the_one_instance(self):
        assert get_backend() is get_backend()
        assert type(get_backend()) is ArrayOps
        assert ArrayOps.__subclasses__() == []

    def test_unknown_backend_raises(self, data):
        # ``forward_logits`` takes the name a serving session reports; any
        # other is an error, not a silent fallback.
        model = create_model("DIN", data.schema, seed=1)
        batch = data.splits["test"].subset(np.arange(3)).as_single_batch()
        assert np.array_equal(forward_logits(model, batch),
                              forward_logits(model, batch,
                                             backend="reference"))
        for name in ("fused", "cuda"):
            with pytest.raises(ValueError, match="unknown array backend"):
                forward_logits(model, batch, backend=name)


class TestReferenceBitIdentity:
    """Where the one implementation promises the seed's bits: the cells of
    the loop convolution's maps (values; gradients to round-off), a rank-2
    ``Dense`` (one GEMM per product either way) and the embedding gather,
    values and gradients."""

    def _seed_conv(self, x: Tensor, w: Tensor, axis: int) -> Tensor:
        width = w.shape[0]
        out_len = x.shape[axis] - width + 1
        result = None
        for offset in range(width):
            key = [slice(None)] * x.ndim
            key[axis] = slice(offset, offset + out_len)
            term = x[tuple(key)] * w[offset]
            result = term if result is None else result + term
        return result

    def test_conv_window_matches_seed_loop(self):
        # The views over every cell of a map are the seed loop's map after
        # its ReLU, cell for cell; gradients add the same products in
        # another order.
        rng = make_rng()
        for axis in (1, 2):
            x1 = Tensor(rng.normal(size=(4, 3, 6, 5)), requires_grad=True)
            w1 = Tensor(rng.normal(size=3), requires_grad=True)
            x2 = Tensor(x1.data.copy(), requires_grad=True)
            w2 = Tensor(w1.data.copy(), requires_grad=True)
            which, cols, rows = every_cell(x1.shape, 3, axis)
            kernel_pair = (w1, None) if axis == 2 else (None, w1)
            out = kernels.conv_views(x1, [kernel_pair], which, cols, rows)
            out.sum().backward()
            expected = self._seed_conv(x2, w2, axis).relu()
            expected.sum().backward()
            batch = x1.shape[0]
            cells = (expected.data.transpose(2, 0, 1, 3) if axis == 2
                     else expected.data.transpose(1, 2, 0, 3))
            assert np.array_equal(out.data,
                                  cells.reshape(len(which), batch, -1))
            np.testing.assert_allclose(x1.grad, x2.grad, rtol=1e-9)
            np.testing.assert_allclose(w1.grad, w2.grad, rtol=1e-9)

    def test_dense_matches_seed_composition(self):
        rng = make_rng()
        layer = Dense(5, 3, make_rng(), activation="relu")
        x1 = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        out = layer(x1)
        out.sum().backward()
        grads = [p.grad.copy() for p in layer.parameters()]
        layer.zero_grad()
        expected = oracles.linear_act(x2, layer.weight, layer.bias, relu=True)
        expected.sum().backward()
        assert np.array_equal(out.data, expected.data)
        assert np.array_equal(x1.grad, x2.grad)
        for got, want in zip(grads,
                             [p.grad for p in layer.parameters()]):
            assert np.array_equal(got, want)

    def test_embedding_matches_seed_take(self):
        # The seed's formula (np.add.at into zeros, then the first-touch
        # copy) is the oracle.  tests/test_same_bits.py holds the
        # property-based version.
        emb = Embedding(9, 4, make_rng())
        indices = np.array([[1, 2, 1], [8, 0, 2]])
        upstream = make_rng().normal(size=(2, 3, 4))
        out = emb(indices)
        out.backward(upstream)
        full = np.zeros_like(emb.weight.data)
        np.add.at(full, indices.reshape(-1), (0.0 + upstream).reshape(-1, 4))
        assert np.array_equal(out.data, emb.weight.data[indices])
        assert np.array_equal(emb.weight.grad, 0.0 + full)


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's
    ``repro``; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


ON_GLIBC = (sys.platform.startswith("linux")
            and platform.libc_ver()[0] == "glibc")

#: A fresh process's DIN+MISS steps on amazon-cds (scale 1.0, batch 128):
#: the minor page faults of each as a JSON list.
STEP_FAULTS = """
import json, resource
import numpy as np
from repro.core import MISSConfig, attach_miss
from repro.data import DataLoader, load_dataset
from repro.models import create_model
from repro.nn import Adam
from repro.training.step import train_step
data = load_dataset("amazon-cds", scale=1.0, seed=0)
model = attach_miss(create_model("DIN", data.schema, seed=1),
                    MISSConfig(seed=2))
model.train()
loader = DataLoader(data.train, batch_size=128, shuffle=True,
                    rng=np.random.default_rng(3))
optimizer = Adam(model.parameters(), lr=1e-3)
faults = []
for batch in loader:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_step(model, batch, optimizer, 5.0)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


class TestBufferPool:
    """The gradient buffers a backward pass fills and drops.  There is no
    pool: each first touch gets a fresh buffer, and the heap policy set at
    import keeps freed memory in the process for the next step."""

    def test_grad_init_copies_the_incoming_grad(self):
        # _accumulate may receive views of arrays the graph still uses; a
        # gradient's first touch must copy, never adopt, whether it writes
        # a fresh buffer or a bound parameter's slice of the flat vector.
        fresh, bound = Parameter(np.empty((2, 3))), Parameter(np.empty((2, 3)))
        flat = FlatParameters([bound])
        for param in (fresh, bound):
            source = np.arange(6.0).reshape(2, 3)
            param._accumulate(source)
            assert param.grad is not source
            source[:] = -1.0
            assert np.array_equal(param.grad, np.arange(6.0).reshape(2, 3))
        assert np.shares_memory(bound.grad, flat.grad)
        assert not np.shares_memory(fresh.grad, flat.grad)

    @pytest.mark.parametrize("kernel_set", oracles.KERNEL_SETS)
    def test_backward_drops_interior_grads_only(self, kernel_set):
        layer = Dense(2, 3, make_rng(), activation="relu")
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        with oracles.kernel_set(kernel_set):
            hidden = layer(x)
            mid = hidden * 3.0
            out = mid.sum()
            out.backward()
        assert hidden.grad is None and mid.grad is None
        assert out.grad is not None  # the root keeps its grad
        assert x.grad is not None    # leaves keep theirs
        assert all(p.grad is not None for p in layer.parameters())

    @pytest.mark.parametrize("kernel_set", oracles.KERNEL_SETS)
    def test_pooled_training_step_is_repeatable(self, kernel_set):
        # Two identical forward/backward rounds produce identical
        # gradients, whatever memory round two's buffers land in.
        layer = Dense(6, 4, make_rng(), activation="relu")
        x = Tensor(make_rng().normal(size=(5, 6)))
        with oracles.kernel_set(kernel_set):
            layer(x).sum().backward()
            first = [p.grad.copy() for p in layer.parameters()]
            layer.zero_grad()
            layer(x).sum().backward()
            second = [p.grad for p in layer.parameters()]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @pytest.mark.skipif(not ON_GLIBC,
                        reason="the policy is glibc's mallopt; ru_minflt "
                               "is Linux's")
    def test_a_warm_step_does_not_fault_its_gradients_back_in(self):
        # Under glibc's default policy the heap is trimmed after every step
        # and ``backward()`` re-faults its large buffers from the kernel
        # (~700 minor faults a warm step with the per-shape free list this
        # replaced, ~6,600 with neither); the policy set at import keeps
        # them: a median of 0 in a fresh process, and in this long-lived one.
        data = load_dataset("amazon-cds", scale=1.0, seed=0)
        model = attach_miss(create_model("DIN", data.schema, seed=1),
                            MISSConfig(seed=2))
        model.train()
        loader = DataLoader(data.train, batch_size=128, shuffle=True,
                            rng=np.random.default_rng(3))
        optimizer = Adam(model.parameters(), lr=1e-3)
        faults = []
        for step, batch in zip(range(9), loader):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train_step(model, batch, optimizer, 5.0)
            faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert np.median(faults[4:]) <= 50

    @pytest.mark.skipif(not ON_GLIBC,
                        reason="the policy is glibc's mallopt; ru_minflt "
                               "is Linux's")
    def test_importing_repro_nn_keeps_freed_memory_in_the_heap(self):
        # 64 x 1 MiB blocks, touched then freed, five times over.  Under
        # glibc's defaults each is its own mmap, unmapped on free, so every
        # round faults all 16,384 pages in again; with the policy set at
        # import, rounds 2-5 reuse the heap the first one grew.
        out = _fresh_python("""
import json, resource
import numpy as np
import repro.nn
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    blocks = [np.ones(1 << 17) for _ in range(64)]
    del blocks
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
""")
        faults = json.loads(out)
        assert faults[0] >= 64 * 256 // 2, faults   # the probe does touch
        assert max(faults[1:]) < 100, faults

    @pytest.mark.parametrize("cdll", [
        "lambda name: object()",
        "lambda name: (_ for _ in ()).throw(OSError())",
    ], ids=["no-mallopt-symbol", "no-c-library"])
    def test_import_without_mallopt_keeps_the_default_policy(self, cdll):
        out = _fresh_python(f"""
import ctypes
ctypes.CDLL = {cdll}
import numpy as np
from repro.nn import Tensor
x = Tensor(np.ones(3), requires_grad=True)
(x * 2.0).sum().backward()
print(x.grad.tolist())
""")
        assert out.split() == ["[2.0,", "2.0,", "2.0]"]

    @pytest.mark.slow
    @pytest.mark.skipif(not ON_GLIBC,
                        reason="the policy is glibc's mallopt; ru_minflt "
                               "is Linux's")
    def test_every_fresh_process_steps_without_faults(self):
        # Under glibc's defaults a process settled at random into ~0 or
        # ~600 faults a warm step and stayed there; the policy leaves one
        # mode.  Eight fresh processes, one after another, each one epoch
        # (12 steps); the median is over the nine after the first three.
        medians = []
        for _ in range(8):
            faults = json.loads(_fresh_python(STEP_FAULTS))
            assert len(faults) >= 9
            medians.append(float(np.median(faults[3:])))
        assert medians == [0.0] * 8, medians


class TestServingBackendPinning:
    def _export(self, data, path, recorded=None):
        """An artifact whose manifest says ``recorded`` (what an export
        from before the seam was deleted wrote), or this library's own."""
        model = create_model("DIN", data.schema, seed=1)
        path = export_artifact(model, path, model_name="DIN")
        if recorded is not None:
            edit_record(path / "manifest.json",
                        lambda m: m.update(backend=recorded))
        model.eval()
        return model, path

    def test_manifest_records_exporting_backend(self, data, tmp_path):
        # Servers from before the seam was deleted load "reference" only.
        _, path = self._export(data, tmp_path / "art")
        assert load_manifest(path)["backend"] == "reference"

    def test_session_pins_manifest_backend(self, data, tmp_path):
        _, path = self._export(data, tmp_path / "ref")
        session = InferenceSession.load(path)
        assert session.backend == "reference"
        assert session.describe()["backend"] == "reference"

    @pytest.mark.parametrize("recorded", ["reference", "fused"])
    def test_either_exported_backend_serves_like_offline(self, data, tmp_path,
                                                         recorded):
        # An export from the two-backend days may say "fused": it loads,
        # reports the one implementation, and serves what the model
        # computes offline, bit for bit.
        model, path = self._export(data, tmp_path / recorded, recorded)
        session = InferenceSession.load(path)
        assert session.backend == "reference"
        test = data.splits["test"]
        offline = predict_logits_array(model, test, batch_size=512)
        rows = [{"categorical": test.categorical[i].tolist(),
                 "sequences": test.sequences[i].tolist(),
                 "mask": test.mask[i].tolist()} for i in range(len(test))]
        np.testing.assert_array_equal(session.score_rows(rows), offline)
        np.testing.assert_array_equal(
            session.score_batch(test.as_single_batch()), offline)

    def test_manifest_without_backend_is_refused(self, data, tmp_path):
        # Every export records the name; a manifest without one does not
        # get a guessed default.
        _, path = self._export(data, tmp_path / "nopin")
        edit_record(path / "manifest.json", lambda m: m.pop("backend"))
        with pytest.raises(ArtifactError, match="'backend'"):
            InferenceSession.load(path)

    def test_unknown_pinned_backend_fails_loudly(self, data, tmp_path):
        for i, recorded in enumerate(("tpu", "", ["fused"], 0)):
            _, path = self._export(data, tmp_path / f"bad-{i}", recorded)
            with pytest.raises(ArtifactError, match="unknown backend"):
                InferenceSession.load(path)


# ----------------------------------------------------------------------
# Structure guard: one array-math implementation
# ----------------------------------------------------------------------
SEAM_NAMES = ("REPRO_BACKEND", "use_backend", "set_backend",
              "resolve_backend", "fuses_", "FusedOps", "ReferenceOps",
              "sliding_window_view")


def test_the_backend_seam_stays_gone():
    """Nothing in the library, the scripts or CI chooses an array-math
    implementation; each kernel has one body, the attention unit builds its
    features without a graph concatenation, and there is one l2 formula and
    one Dice formula."""
    files = [path for directory, pattern in (("src", "*.py"),
                                             ("scripts", "*.py"),
                                             (".github", "*.yml"))
             for path in sorted((REPO / directory).rglob(pattern))]
    texts = {path.relative_to(REPO).as_posix(): path.read_text(
        encoding="utf-8") for path in files}
    assert any(path.endswith(".yml") for path in texts)
    named = sorted(f"{path}: {name}" for path, text in texts.items()
                   for name in SEAM_NAMES if name in text)
    assert named == []

    sources = {path: text for path, text in texts.items()
               if path.startswith("src/")}
    # ``l2_normalize`` is also the public functional name and ArrayOps's
    # method; its formula is counted below.
    names = sorted(set(kernels.__all__) - {"l2_normalize"})
    trees = {path: ast.parse(text) for path, text in sources.items()}
    kernel_defs = sorted((node.name, path) for path, tree in trees.items()
                         for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef)
                         and node.name in names)
    assert kernel_defs == [(name, "src/repro/nn/kernels.py") for name in names]
    attention_unit = [ast.get_source_segment(sources[path], node)
                      for path, tree in trees.items()
                      for node in ast.walk(tree)
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                      and node.name in ("LocalActivationUnit",
                                        "local_activation")]
    assert len(attention_unit) == 2
    assert not [code for code in attention_unit if "concatenate(" in code]
    # Nor does it build the (B, L, 4K) features another way: no shape in
    # the kernel ends in ``4 * dim``, and the node keeps no array that does.
    kernel_code = next(code for code in attention_unit
                       if code.startswith("def local_activation"))
    assert not re.search(r"4 \* dim\s*\)", kernel_code)
    dim = 3
    node = kernels.local_activation(
        Tensor(np.ones((2, 5, dim)), requires_grad=True),
        Tensor(np.ones((2, dim))), np.ones((2, 5), dtype=bool),
        Tensor(np.ones((4 * dim, 6))), Tensor(np.zeros(6)),
        Tensor(np.ones((6, 1))), Tensor(np.zeros(1)))
    kept = [cell.cell_contents for cell in node._backward.__closure__]
    assert [a.shape for a in kept if isinstance(a, np.ndarray)
            and a.shape[-1:] == (4 * dim,)] == []
    l2_formulas = [path for path, text in sources.items()
                   for _ in range(text.count("np.sqrt(np.sum(x * x"))]
    assert l2_formulas == ["src/repro/nn/backend.py"]
    dice_formulas = [path for path, text in sources.items()
                     for _ in range(text.count("1.0 - gate"))]
    assert dice_formulas == ["src/repro/nn/kernels.py"]

    # No verb takes ``--backend`` and ``bench-ops`` is gone.
    parser = build_parser()
    for verb in (["train"], ["compare"], ["export", "--out", "o"],
                 ["serve", "--artifact", "a"],
                 ["predict", "--artifact", "a", "--input", "i"],
                 ["stream-train", "--registry", "r"]):
        parser.parse_args(verb)
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(verb + ["--backend", "fused"])
        assert excinfo.value.code == 2, verb
    with pytest.raises(SystemExit):
        parser.parse_args(["bench-ops"])

    # ``nn/backend.py`` is one class and no flags.
    tree = ast.parse((SRC / "nn" / "backend.py").read_text(encoding="utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    assert [node.name for node in classes] == ["ArrayOps"]


def test_one_allocator_policy_and_no_pool():
    """The heap policy is set in one place, from no environment variable,
    and ``ArrayOps`` keeps no buffers: it is the l2 pair and its
    ``repr``."""
    sources = {path.relative_to(REPO).as_posix(): path.read_text(
        encoding="utf-8") for directory in ("src", "scripts")
        for path in sorted((REPO / directory).rglob("*.py"))}
    assert sorted(path for path, text in sources.items()
                  if path.startswith("src/") and "mallopt" in text) == [
        "src/repro/nn/backend.py"]
    assert sorted(path for path, text in sources.items()
                  if "MALLOC_" in text) == []
    tree = ast.parse((SRC / "nn" / "backend.py").read_text(encoding="utf-8"))
    ops = next(node for node in tree.body if isinstance(node, ast.ClassDef))
    assert sorted(node.name for node in ops.body
                  if isinstance(node, ast.FunctionDef)) == [
        "__repr__", "l2_normalize", "l2_normalize_backward"]
    assert not [node for node in ops.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__slots__"
                        for t in node.targets)]
