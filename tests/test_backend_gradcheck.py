"""The kernels of ``repro.nn.kernels`` against their oracles.

Each kernel is compared with its oracle in ``tests/oracles.py`` (the
composition of primitives a one-node kernel replaced; an independent
windowed-GEMM spelling for the loop convolution; the ``np.add.at`` fancy
gather for the embedding), forward values and every gradient, across
randomized shapes including the degenerate cases the MISS extractors
produce (``J=1``, ``L=1``, kernels as wide as the sequence,
repeated/absent embedding rows), ranks 2 to 4, no bias, a ReLU exactly at
0, an input that needs no gradient and near-zero-norm rows.  Tolerance is
float64 round-off (``rtol=1e-9``): a kernel and its oracle compute the same
quantities in different reduction orders, nothing looser.

A finite-difference spot check per kernel guards against a kernel and its
oracle being consistently wrong, and an end-to-end MISS check runs the
whole SSL tower on both kernel sets."""

import numpy as np
import pytest

from repro.core import MISSConfig, MISSModule
from repro.data.schema import DatasetSchema, FieldSpec
from repro.nn import MLP, Dense, Embedding, Tensor, kernels
from repro.nn import functional as F

from . import oracles
from .helpers import check_gradients

RTOL = 1e-9
ATOL = 1e-12


def _run(build, arrays, grad_seed, requires_grad):
    leaves = [Tensor(a.copy(), requires_grad=needs)
              for a, needs in zip(arrays, requires_grad)]
    out = build(leaves)
    grad = np.random.default_rng(grad_seed).normal(size=out.shape)
    out.backward(grad)
    return out.data, [leaf.grad for leaf in leaves]


def _compare(build, oracle, arrays, grad_seed=0, requires_grad=None):
    """Run ``build`` and ``oracle`` on fresh leaves; assert outputs and
    gradients agree.

    Both map leaf tensors to one output tensor; the backward pass is seeded
    with a fixed random cotangent so every gradient entry is exercised (a
    ``sum()`` seed would hide sign errors that cancel).
    """
    requires_grad = requires_grad or [True] * len(arrays)
    out, grads = _run(build, arrays, grad_seed, requires_grad)
    want_out, want_grads = _run(oracle, arrays, grad_seed, requires_grad)
    np.testing.assert_allclose(out, want_out, rtol=RTOL, atol=ATOL)
    for i, (got, want) in enumerate(zip(grads, want_grads)):
        assert (got is None) == (want is None), f"leaf {i}"
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL,
                                       err_msg=f"gradient of leaf {i}")


def _on_both_kernel_sets(make_module, x):
    """A fresh ``make_module()`` per kernel set, run on ``x``: input and
    parameter gradients must agree."""
    results = {}
    for name in oracles.KERNEL_SETS:
        module = make_module()
        leaf = Tensor(x.copy(), requires_grad=True)
        with oracles.kernel_set(name):
            module(leaf).sum().backward()
        results[name] = [leaf.grad] + [p.grad for p in module.parameters()]
    for got, want in zip(results["fused"], results["reference"]):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


class TestConvWindow:
    # (batch, fields, seq_len, dim, width, axis) — includes J=1, L=width
    # (single output position), width=1 (point-wise), and the vertical axis.
    CASES = [
        (4, 3, 8, 5, 3, 2),
        (2, 1, 6, 4, 2, 2),   # J=1
        (3, 2, 4, 3, 4, 2),   # width == L: one output position
        (5, 2, 1, 3, 1, 2),   # L=1, point-wise kernel
        (2, 4, 5, 3, 1, 2),   # width=1
        (4, 3, 6, 5, 3, 1),   # vertical (field axis)
        (3, 4, 5, 2, 4, 1),   # height == J
        (2, 1, 5, 3, 1, 1),   # J=1 vertical point-wise
    ]

    @pytest.mark.parametrize("batch,fields,seq,dim,width,axis", CASES)
    def test_matches_reference(self, batch, fields, seq, dim, width, axis):
        rng = np.random.default_rng(batch * 100 + width * 10 + axis)
        x = rng.normal(size=(batch, fields, seq, dim))
        w = rng.normal(size=width)
        _compare(lambda t: kernels.conv_window(t[0], t[1], axis),
                 lambda t: oracles.conv_window(t[0], t[1], axis),
                 [x, w])

    def test_finite_difference_on_the_loop(self):
        rng = np.random.default_rng(0)
        for axis in (1, 2):
            check_gradients(
                lambda t: kernels.conv_window(t[0], t[1], axis).sum(),
                [rng.normal(size=(2, 3, 5, 3)), rng.normal(size=3)])

    def test_finite_difference_under_fused(self):
        # The oracle is the windowed GEMM that was the second backend's
        # conv; it is only an oracle while its own gradient is right.
        rng = np.random.default_rng(0)
        check_gradients(
            lambda t: oracles.conv_window(t[0], t[1], 2).sum(),
            [rng.normal(size=(2, 2, 5, 3)), rng.normal(size=3)])


class TestEmbeddingLookup:
    @pytest.mark.parametrize("indices", [
        np.array([0, 1, 2, 3]),
        np.array([1, 1, 1, 1]),                # all repeats
        np.array([[4, 0], [0, 4], [2, 2]]),    # 2-D, first/last rows
        np.array([3]),                         # single row
    ])
    def test_matches_reference(self, indices):
        table = np.random.default_rng(5).normal(size=(5, 4))
        _compare(lambda t: kernels.embedding_lookup(t[0], indices),
                 lambda t: oracles.embedding_lookup(t[0], indices),
                 [table])

    def test_unreferenced_rows_get_zero_grad(self):
        table = Tensor(np.ones((6, 3)), requires_grad=True)
        kernels.embedding_lookup(table, np.array([1, 1, 4])).sum().backward()
        assert np.array_equal(table.grad[1], [2.0, 2.0, 2.0])
        for untouched in (0, 2, 3, 5):
            assert np.array_equal(table.grad[untouched], [0.0, 0.0, 0.0])

    def test_finite_difference_under_fused(self):
        rng = np.random.default_rng(1)
        check_gradients(
            lambda t: kernels.embedding_lookup(
                t[0], np.array([0, 2, 2])).sum(),
            [rng.normal(size=(4, 3))])


class TestLinearAct:
    @pytest.mark.parametrize("shape", [(6, 4), (2, 3, 4), (2, 2, 2, 4)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("relu", [True, False])
    def test_matches_reference(self, shape, bias, relu):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        w = rng.normal(size=(4, 3))
        arrays = [x, w] + ([rng.normal(size=3)] if bias else [])

        def build(kernel):
            def run(leaves):
                b = leaves[2] if bias else None
                return kernel(leaves[0], leaves[1], b, relu=relu)
            return run

        _compare(build(kernels.linear_act), build(oracles.linear_act), arrays)

    @pytest.mark.parametrize("shape", [(6, 4), (2, 3, 4)])
    def test_input_without_grad(self, shape):
        # A frozen input (an embedding under no_grad, a data tensor) gets no
        # gradient and costs no input GEMM; the weights still get theirs.
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=shape), rng.normal(size=(4, 3)),
                  rng.normal(size=3)]
        _compare(lambda t: kernels.linear_act(t[0], t[1], t[2], relu=True),
                 lambda t: oracles.linear_act(t[0], t[1], t[2], relu=True),
                 arrays, requires_grad=[False, True, True])

    def test_relu_boundary_uses_same_subgradient(self):
        # Exact zeros in the pre-activation must get zero gradient on both
        # paths (the composition masks on pre > 0; the node on out > 0).
        x = np.array([[1.0, -1.0]])
        w = np.array([[1.0], [1.0]])  # pre-activation is exactly 0.0
        _compare(lambda t: kernels.linear_act(t[0], t[1], None, relu=True),
                 lambda t: oracles.linear_act(t[0], t[1], None, relu=True),
                 [x, w])

    def test_finite_difference_under_fused(self):
        rng = np.random.default_rng(2)
        for shape in [(5, 4), (2, 3, 4)]:
            check_gradients(
                lambda t: kernels.linear_act(t[0], t[1], t[2],
                                             relu=True).sum(),
                [rng.normal(size=shape), rng.normal(size=(4, 3)),
                 rng.normal(size=3)])

    def test_mlp_matches_reference_end_to_end(self):
        _on_both_kernel_sets(
            lambda: MLP(6, [5, 4, 1], np.random.default_rng(9),
                        activation="relu", output_activation=None),
            np.random.default_rng(3).normal(size=(7, 6)))

    def test_unfusible_activation_still_works(self):
        # prelu is a module applied after the linear node, not inside it.
        _on_both_kernel_sets(
            lambda: Dense(4, 3, np.random.default_rng(4), activation="prelu"),
            np.random.default_rng(5).normal(size=(6, 4)))


class TestL2Normalize:
    @pytest.mark.parametrize("shape,axis", [
        ((6, 4), -1),
        ((3, 5, 4), -1),
        ((3, 5, 4), 1),
        ((1, 4), -1),
    ])
    def test_matches_reference(self, shape, axis):
        x = np.random.default_rng(sum(shape)).normal(size=shape)
        _compare(lambda t: kernels.l2_normalize(t[0], axis, F._EPS),
                 lambda t: oracles.l2_normalize(t[0], axis, F._EPS), [x])

    def test_near_zero_rows_match_the_sqrt_clamp(self):
        # The composition's sqrt backward clamps its denominator at 1e-12;
        # the node's backward must apply the identical clamp.
        x = np.array([[1e-9, -1e-9, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        _compare(lambda t: kernels.l2_normalize(t[0], -1, F._EPS),
                 lambda t: oracles.l2_normalize(t[0], -1, F._EPS), [x])

    def test_finite_difference_under_fused(self):
        rng = np.random.default_rng(6)
        check_gradients(
            lambda t: F.l2_normalize(t[0], axis=-1).sum(),
            [rng.normal(size=(4, 5))])


class TestMISSEndToEnd:
    """The full SSL tower on both kernel sets: losses and gradients must
    agree to round-off."""

    def _schema(self):
        return DatasetSchema(
            name="gradcheck",
            categorical=(FieldSpec("user", "categorical", 10),),
            sequential=(FieldSpec("item", "sequential", 12),
                        FieldSpec("cat", "sequential", 6)),
            max_seq_len=8)

    @pytest.mark.parametrize("field_aware", [True, False])
    def test_ssl_losses_agree(self, field_aware):
        rng = np.random.default_rng(21)
        c_data = rng.normal(size=(6, 2, 8, 5))
        mask = np.ones((6, 8), dtype=bool)
        mask[0, :3] = False
        sequences = rng.integers(1, 12, size=(6, 2, 8))
        results = {}
        for name in oracles.KERNEL_SETS:
            config = MISSConfig(seed=13, field_aware_encoder=field_aware,
                                num_interest_pairs=3, num_feature_pairs=3)
            module = MISSModule(self._schema(), 5, config,
                                np.random.default_rng(17))
            c = Tensor(c_data.copy(), requires_grad=True)
            with oracles.kernel_set(name):
                interest, feature = module.ssl_losses(c, mask=mask,
                                                      sequences=sequences)
                (interest + feature).backward()
            results[name] = (float(interest.data), float(feature.data),
                             c.grad)
        for got, want in zip(results["fused"], results["reference"]):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    def test_embedding_training_grads_agree(self):
        # One supervised-style round through Embedding + Dense on each
        # kernel set: parameter gradients must match to round-off.
        indices = np.random.default_rng(31).integers(0, 9, size=(12, 4))
        results = {}
        for name in oracles.KERNEL_SETS:
            emb = Embedding(9, 5, np.random.default_rng(33))
            head = Dense(5, 1, np.random.default_rng(34), activation="relu")
            with oracles.kernel_set(name):
                pooled = emb(indices).mean(axis=1)
                head(pooled).sum().backward()
            results[name] = [emb.weight.grad] + [
                p.grad for p in head.parameters()]
        for got, want in zip(results["fused"], results["reference"]):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
