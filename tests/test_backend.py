"""Tests for the pluggable ops backend: registry, scoping, reference
bit-identity, the gradient buffer pool, and serving backend pinning."""

import resource
import sys
import threading

import numpy as np
import pytest

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
    Dense,
    Embedding,
    Tensor,
    available_backends,
    get_backend,
    kernels,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.nn.backend import BACKEND_NAMES, FusedOps, ReferenceOps
from repro.nn.backend.base import _BufferPool
from repro.serving import (
    ArtifactError,
    InferenceSession,
    export_artifact,
    load_manifest,
)

from repro.training.step import train_step

from .helpers import edit_record


def make_rng():
    return np.random.default_rng(7)


class TestRegistry:
    def test_both_backends_registered(self):
        assert set(available_backends()) == {"reference", "fused"}
        assert BACKEND_NAMES == tuple(sorted(BACKEND_NAMES))

    def test_resolve_by_name_is_cached(self):
        assert resolve_backend("fused") is resolve_backend("fused")
        assert isinstance(resolve_backend("reference"), ReferenceOps)
        assert isinstance(resolve_backend("fused"), FusedOps)

    def test_resolve_passes_instances_through(self):
        ops = FusedOps()
        assert resolve_backend(ops) is ops

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            resolve_backend("cuda")

    def test_default_is_reference(self):
        # The test process runs with REPRO_BACKEND unset or explicitly set;
        # either way get_backend() must resolve to a registered backend.
        assert get_backend().name in BACKEND_NAMES


class TestScoping:
    def test_use_backend_nests_and_restores(self):
        before = get_backend()
        with use_backend("fused"):
            assert get_backend().name == "fused"
            with use_backend("reference"):
                assert get_backend().name == "reference"
            assert get_backend().name == "fused"
        assert get_backend() is before

    def test_use_backend_restores_on_error(self):
        before = get_backend()
        with pytest.raises(RuntimeError):
            with use_backend("fused"):
                raise RuntimeError("boom")
        assert get_backend() is before

    def test_override_is_thread_local(self):
        default = get_backend()
        seen = {}

        def worker():
            seen["name"] = get_backend().name

        with use_backend("fused" if default.name != "fused" else "reference"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["name"] == default.name

    def test_set_backend_changes_process_default(self):
        before = get_backend()
        try:
            assert set_backend("fused").name == "fused"
            assert get_backend().name == "fused"
        finally:
            set_backend(before)


class TestReferenceBitIdentity:
    """The reference backend must reproduce the seed compositions exactly —
    same values AND same gradients, bit for bit."""

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
        rng = make_rng()
        for axis in (1, 2):
            x1 = Tensor(rng.normal(size=(4, 3, 6, 5)), requires_grad=True)
            w1 = Tensor(rng.normal(size=3), requires_grad=True)
            x2 = Tensor(x1.data.copy(), requires_grad=True)
            w2 = Tensor(w1.data.copy(), requires_grad=True)
            with use_backend("reference"):
                out = kernels.conv_window(x1, w1, axis)
                out.sum().backward()
                expected = self._seed_conv(x2, w2, axis)
                expected.sum().backward()
            assert np.array_equal(out.data, expected.data)
            assert np.array_equal(x1.grad, x2.grad)
            assert np.array_equal(w1.grad, w2.grad)

    def test_dense_matches_seed_composition(self):
        rng = make_rng()
        layer = Dense(5, 3, make_rng(), activation="relu")
        x1 = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        with use_backend("reference"):
            out = layer(x1)
            out.sum().backward()
            grads = [p.grad.copy() for p in layer.parameters()]
            layer.zero_grad()
            expected = ((x2 @ layer.weight) + layer.bias).relu()
            expected.sum().backward()
        assert np.array_equal(out.data, expected.data)
        assert np.array_equal(x1.grad, x2.grad)
        for got, want in zip(grads,
                             [p.grad for p in layer.parameters()]):
            assert np.array_equal(got, want)

    def test_embedding_matches_seed_take(self):
        # No backend forks the embedding backward any more; the seed's
        # formula (np.add.at into zeros, then the first-touch copy) is the
        # oracle.  tests/test_same_bits.py holds the property-based version.
        emb = Embedding(9, 4, make_rng())
        indices = np.array([[1, 2, 1], [8, 0, 2]])
        upstream = make_rng().normal(size=(2, 3, 4))
        with use_backend("reference"):
            out = emb(indices)
            out.backward(upstream)
        full = np.zeros_like(emb.weight.data)
        np.add.at(full, indices.reshape(-1), (0.0 + upstream).reshape(-1, 4))
        assert np.array_equal(out.data, emb.weight.data[indices])
        assert np.array_equal(emb.weight.grad, 0.0 + full)


class TestBufferPool:
    def test_acquire_reuses_released_buffer(self):
        pool = _BufferPool()
        a = pool.acquire((3, 4), np.float64)
        pool.release(a)
        b = pool.acquire((3, 4), np.float64)
        assert b is a
        assert pool.hits == 1 and pool.misses == 1

    def test_views_are_never_pooled(self):
        pool = _BufferPool()
        base = np.zeros((4, 4))
        pool.release(base[:2])
        assert pool.size() == 0

    def test_cap_bounds_pool_size(self):
        pool = _BufferPool(cap_per_key=2)
        for _ in range(5):
            pool.release(np.zeros((2, 2)))
        assert pool.size() == 2
        pool.clear()
        assert pool.size() == 0

    def test_mismatched_shape_allocates_fresh(self):
        pool = _BufferPool()
        pool.release(np.zeros((3, 3)))
        out = pool.acquire((2, 2), np.float64)
        assert out.shape == (2, 2)
        assert pool.misses == 1

    def test_grad_init_copies_the_incoming_grad(self):
        # _accumulate may receive views of arrays the graph still uses;
        # grad_init must copy, never adopt.
        ops = FusedOps()
        source = np.arange(6.0).reshape(2, 3)
        acc = ops.grad_init(source, np.empty((2, 3)))
        assert acc is not source
        source[:] = -1.0
        assert np.array_equal(acc, np.arange(6.0).reshape(2, 3))

    def test_only_c_ordered_buffers_are_pooled(self):
        # ``acquire`` hands out C order; a recycled Fortran buffer would
        # change a gradient's memory layout and with it a later reduction.
        pool = _BufferPool()
        pool.release(np.asfortranarray(np.zeros((3, 4))))
        assert pool.size() == 0

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_backward_releases_interior_grads_only(self, backend):
        with use_backend(backend):
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            mid = x * 3.0
            out = mid.sum()
            out.backward()
        assert mid.grad is None  # interior buffer returned to the pool
        assert out.grad is not None  # the root keeps its grad
        assert np.array_equal(x.grad, [3.0, 3.0])  # leaves keep theirs

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_pooled_training_step_is_repeatable(self, backend):
        # Two identical forward/backward rounds must produce identical
        # gradients even when round two runs entirely out of the pool.
        layer = Dense(6, 4, make_rng(), activation="relu")
        x = Tensor(make_rng().normal(size=(5, 6)))
        with use_backend(backend) as ops:
            ops.clear_pool()
            layer(x).sum().backward()
            first = [p.grad.copy() for p in layer.parameters()]
            misses = ops.pool.misses
            layer.zero_grad()
            layer(x).sum().backward()
            second = [p.grad for p in layer.parameters()]
        assert ops.pool.misses - misses < misses  # round two found buffers
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt is only meaningful on Linux")
    def test_a_warm_step_does_not_fault_its_gradients_back_in(self):
        # What the pool is for: without it glibc trims the heap after every
        # step and ``backward()`` re-faults its large buffers from the kernel
        # (1,350-1,950 minor faults a step per-pair, 6,300-7,800 with the
        # stacked level; with it, a few hundred at most).
        data = load_dataset("amazon-cds", scale=1.0, seed=0)
        model = attach_miss(create_model("DIN", data.schema, seed=1),
                            MISSConfig(seed=2))
        model.train()
        loader = DataLoader(data.train, batch_size=128, shuffle=True,
                            rng=np.random.default_rng(3))
        optimizer = Adam(model.parameters(), lr=1e-3)
        faults, pooled = [], []
        with use_backend("reference") as ops:
            ops.clear_pool()
            for step, batch in zip(range(9), loader):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                train_step(model, batch, optimizer, 5.0)
                faults.append(
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
                pooled.append(ops.pool.size())
        assert np.median(faults[4:]) < 1000
        assert len(set(pooled[4:])) == 1    # warm: nothing new to keep


class TestServingBackendPinning:
    @pytest.fixture(scope="class")
    def data(self):
        config = InterestWorldConfig(num_users=20, num_items=50, num_topics=6,
                                     num_categories=3, min_interactions=2,
                                     seed=11)
        return build_ctr_data(InterestWorld(config), max_seq_len=6, seed=12)

    def _export(self, data, path, backend):
        model = create_model("DIN", data.schema, seed=1)
        with use_backend(backend):
            return export_artifact(model, path, model_name="DIN")

    def test_manifest_records_exporting_backend(self, data, tmp_path):
        path = self._export(data, tmp_path / "fused", backend="fused")
        assert load_manifest(path)["backend"] == "fused"

    def test_session_pins_manifest_backend(self, data, tmp_path):
        path = self._export(data, tmp_path / "ref", backend="reference")
        session = InferenceSession.load(path)
        assert session.backend == "reference"
        assert session.describe()["backend"] == "reference"

    def test_manifest_without_backend_is_refused(self, data, tmp_path):
        # Every export since the backend seam records the pin; a manifest
        # without one no longer gets a guessed default.
        path = self._export(data, tmp_path / "nopin", backend="reference")
        edit_record(path / "manifest.json", lambda m: m.pop("backend"))
        with pytest.raises(ArtifactError, match="'backend'"):
            InferenceSession.load(path)

    def test_unknown_pinned_backend_fails_loudly(self, data, tmp_path):
        path = self._export(data, tmp_path / "bad", backend="reference")
        edit_record(path / "manifest.json",
                    lambda m: m.update(backend="tpu"))
        with pytest.raises(ArtifactError, match="unknown backend"):
            InferenceSession.load(path)

    def test_scores_identical_across_process_default(self, data, tmp_path):
        # A session pinned to its manifest backend must score the same rows
        # identically no matter what the ambient backend is.
        path = self._export(data, tmp_path / "pin", backend="reference")
        session = InferenceSession.load(path)
        batch = data.splits["test"].subset(np.arange(5)).as_single_batch()
        with use_backend("reference"):
            baseline = session.score_batch(batch)
        with use_backend("fused"):
            ambient_fused = session.score_batch(batch)
        assert np.array_equal(baseline, ambient_fused)
