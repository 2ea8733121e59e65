"""The kernels of ``repro.nn.kernels`` against their oracles.

Each kernel is compared with its oracle in ``tests/oracles.py`` (the
composition of primitives a one-node kernel replaced; the ``np.add.at``
fancy gather for the embedding), forward values and every gradient, across
randomized shapes including the degenerate cases the models produce
(``J=1``, ``L=1``, ``B=1``, kernels as wide as the sequence, a fully padded
behaviour row, repeated/absent embedding rows), ranks 2 to 4, no bias, a
ReLU exactly at 0, an input that needs no gradient and near-zero-norm rows.
Every kernel's forward does its composition's arithmetic in the same
order, so values must be equal (``==``).  Gradients must agree to float64
round-off (``rtol=1e-9``): the two compute the same quantities in different
reduction orders, nothing looser.

A finite-difference spot check per kernel guards against a kernel and its
oracle being consistently wrong, and end-to-end checks run the SSL tower
and the whole DIN+MISS model on both kernel sets.  A contrastive level's
view gather and field projection are held, as one front, to the per-view
spelling they replaced (``oracles.level_input``: every map built, then
cut) over sampled levels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FieldAwareViewEncoder,
    LSTMExtractor,
    MISSConfig,
    MISSModule,
    SelfAttentionExtractor,
    ViewEncoder,
    ViewSource,
    attach_miss,
    sample_feature_pairs,
    sample_interest_pairs,
    stack_views,
)
from repro.data import load_dataset
from repro.data.schema import DatasetSchema, FieldSpec
from repro.models import create_model
from repro.nn import MLP, Dense, Embedding, Tensor, kernels
from repro.nn import functional as F

from . import oracles
from .helpers import check_gradients, every_cell

RTOL = 1e-9
ATOL = 1e-12


def _run(build, arrays, grad_seed, requires_grad):
    leaves = [Tensor(a.copy(), requires_grad=needs)
              for a, needs in zip(arrays, requires_grad)]
    out = build(leaves)
    grad = np.random.default_rng(grad_seed).normal(size=out.shape)
    out.backward(grad)
    return out.data, [leaf.grad for leaf in leaves]


def _compare(build, oracle, arrays, grad_seed=0, requires_grad=None,
             exact_grads=False):
    """Run ``build`` and ``oracle`` on fresh leaves; assert outputs are
    equal and gradients agree (to the bit with ``exact_grads``).

    Both map leaf tensors to one output tensor; the backward pass is seeded
    with a fixed random cotangent so every gradient entry is exercised (a
    ``sum()`` seed would hide sign errors that cancel).
    """
    requires_grad = requires_grad or [True] * len(arrays)
    out, grads = _run(build, arrays, grad_seed, requires_grad)
    want_out, want_grads = _run(oracle, arrays, grad_seed, requires_grad)
    np.testing.assert_array_equal(out, want_out)
    for i, (got, want) in enumerate(zip(grads, want_grads)):
        assert (got is None) == (want is None), f"leaf {i}"
        if want is None:
            continue
        if exact_grads:
            assert got.tobytes() == want.tobytes(), f"gradient of leaf {i}"
        else:
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


def _map_views(views, x, w, axis):
    """``views(x, [(w, None)] or [(None, w)], ...)`` over every map cell."""
    which, cols, rows = every_cell(x.shape, w.shape[0], axis)
    kernel_pair = (w, None) if axis == 2 else (None, w)
    return views(x, [kernel_pair], which, cols, rows)


class TestConvWindow:
    """The convolution maps' cells as ``conv_views`` computes them, from the
    input and the kernel, against the map spelling (the per-offset loop and
    a ReLU, every map built, then cut).  Reading every cell once, the views
    are the whole map."""

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
        _compare(lambda t: _map_views(kernels.conv_views, *t, axis),
                 lambda t: _map_views(oracles.conv_views, *t, axis), [x, w])

    @pytest.mark.parametrize("axis", [1, 2])
    def test_input_without_grad(self, axis):
        rng = np.random.default_rng(axis)
        _compare(lambda t: _map_views(kernels.conv_views, *t, axis),
                 lambda t: _map_views(oracles.conv_views, *t, axis),
                 [rng.normal(size=(3, 3, 5, 2)), rng.normal(size=2)],
                 requires_grad=[False, True])

    def test_input_gradient_has_no_negative_zero(self):
        # A zero cotangent times a negative weight is -0.0; the map spelling
        # added it into a +0.0 buffer, and so must the node, width 1 too.
        for width in (1, 2):
            x = Tensor(np.ones((1, 1, 3, 2)), requires_grad=True)
            w = Tensor(-np.ones(width), requires_grad=True)
            out = _map_views(kernels.conv_views, x, w, 2)
            out.backward(np.zeros(out.shape))
            assert not np.signbit(x.grad).any()
            assert not np.signbit(w.grad).any()

    def test_finite_difference_on_the_loop(self):
        rng = np.random.default_rng(0)
        for axis in (1, 2):
            check_gradients(
                lambda t: _map_views(kernels.conv_views, *t, axis).sum(),
                [rng.normal(size=(2, 3, 5, 3)), rng.normal(size=3)])

    def test_finite_difference_under_fused(self):
        # The oracle is the seed's slice / index / mul / add loop; it is
        # only an oracle while its own gradient is right.
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


class TestLocalActivation:
    """DIN's attention unit; leaves are (sequence, candidate, w1, b1, w2,
    b2).  ``b2`` shifts every score of a row alike, so the softmax cancels
    it: its true gradient is 0, and both spellings read round-off there,
    which ``ATOL`` absorbs."""

    @staticmethod
    def _arrays(rng, batch, length, dim=3, hidden=36):
        return [rng.normal(size=(batch, length, dim)),
                rng.normal(size=(batch, dim)),
                rng.normal(size=(4 * dim, hidden)) * 0.3,
                rng.normal(size=hidden) * 0.1,
                rng.normal(size=(hidden, 1)) * 0.3,
                rng.normal(size=1) * 0.1]

    @staticmethod
    def _pair(mask):
        return (lambda t: kernels.local_activation(t[0], t[1], mask, *t[2:]),
                lambda t: oracles.local_activation(t[0], t[1], mask, *t[2:]))

    @pytest.mark.parametrize("batch,length,dim,hidden", [
        pytest.param(5, 6, 3, 36, id="5-6"),
        pytest.param(1, 4, 3, 36, id="1-4"),
        pytest.param(4, 1, 3, 36, id="4-1"),
        pytest.param(1, 1, 3, 36, id="1-1"),
        (3, 4, 1, 36), (3, 4, 3, 1), (1, 1, 1, 1),
        # Not a multiple of serving's PARITY_BLOCK (32).
        (33, 5, 3, 36),
    ])
    def test_matches_reference(self, batch, length, dim, hidden):
        rng = np.random.default_rng(batch * 10 + length)
        mask = rng.random((batch, length)) < 0.7
        mask[:, -1] = True
        _compare(*self._pair(mask),
                 self._arrays(rng, batch, length, dim, hidden))

    def test_fully_padded_row(self):
        rng = np.random.default_rng(1)
        mask = rng.random((4, 5)) < 0.6
        mask[2] = False
        arrays = self._arrays(rng, 4, 5)
        _compare(*self._pair(mask), arrays)
        # A candidate that needs no gradient skips the candidate branch.
        _compare(*self._pair(mask), arrays,
                 requires_grad=[True, False, True, True, True, True])
        seq = Tensor(arrays[0], requires_grad=True)
        params = [Tensor(a) for a in arrays[1:]]
        out = kernels.local_activation(seq, params[0], mask, *params[1:])
        out.backward(np.ones(out.shape))
        assert not out.data[2].any() and not seq.grad[2].any()

    @pytest.mark.parametrize("frozen", [0, 1])
    def test_input_without_grad(self, frozen):
        rng = np.random.default_rng(2)
        requires_grad = [True] * 6
        requires_grad[frozen] = False
        _compare(*self._pair(np.ones((3, 4), dtype=bool)),
                 self._arrays(rng, 3, 4), requires_grad=requires_grad)

    @pytest.mark.parametrize("batch,length,dim", [(5, 6, 3), (33, 20, 10)])
    def test_matches_the_eq4_spelling(self, batch, length, dim):
        # The kernel folds w1 into e @ fold + shift; the [e, c, e - c, e·c]
        # concatenation is the same function, rounded once more.
        rng = np.random.default_rng(batch + length)
        mask = rng.random((batch, length)) < 0.7
        mask[0] = False
        arrays = self._arrays(rng, batch, length, dim)
        requires_grad = [True] * 6
        out, grads = _run(self._pair(mask)[0], arrays, 0, requires_grad)
        want, want_grads = _run(
            lambda t: oracles.local_activation(
                t[0], t[1], mask, *t[2:],
                scores=oracles.local_activation_eq4_scores),
            arrays, 0, requires_grad)
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=0.0)
        for i, (got, expected) in enumerate(zip(grads, want_grads)):
            np.testing.assert_allclose(got, expected, rtol=RTOL, atol=ATOL,
                                       err_msg=f"gradient of leaf {i}")

    def test_backward_walks_once(self):
        # The backward builds the pre-activation gradient in the forward's
        # hidden buffer, so a second walk of the same node is refused.
        rng = np.random.default_rng(5)
        leaves = [Tensor(a, requires_grad=True)
                  for a in self._arrays(rng, 2, 3)]
        out = kernels.local_activation(leaves[0], leaves[1],
                                       np.ones((2, 3), dtype=bool),
                                       *leaves[2:])
        out.backward(np.ones(out.shape))
        with pytest.raises(RuntimeError, match="one walk per forward"):
            out.backward(np.ones(out.shape))

    def test_finite_difference_under_fused(self):
        rng = np.random.default_rng(3)
        mask = np.array([[True, True, False], [False, True, True]])
        cotangent = Tensor(rng.normal(size=(2, 2)))
        check_gradients(
            lambda t: (kernels.local_activation(t[0], t[1], mask, *t[2:])
                       * cotangent).sum(),
            self._arrays(rng, 2, 3, dim=2, hidden=4))


class TestDice:
    @pytest.mark.parametrize("shape", [(6, 4), (2, 3, 4), (1, 4)])
    def test_matches_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        x, alpha = rng.normal(size=shape), rng.normal(size=4)
        mean, std = rng.normal(size=4), rng.random(4) + 0.5
        _compare(lambda t: kernels.dice(t[0], t[1], mean, std),
                 lambda t: oracles.dice(t[0], t[1], mean, std), [x, alpha])
        _compare(lambda t: kernels.dice(t[0], t[1], mean, std),
                 lambda t: oracles.dice(t[0], t[1], mean, std), [x, alpha],
                 requires_grad=[False, True])

    @pytest.mark.parametrize("training", [True, False])
    def test_module_matches_reference(self, training):
        # Train mode standardises by the batch (and moves the running
        # statistics); eval mode by the running statistics.  Either way
        # they are constants of the node.
        def make():
            layer = Dense(4, 3, np.random.default_rng(8), activation="dice")
            layer.activation.alpha.data[:] = [0.2, -0.1, 0.3]
            layer.activation.running_mean.value = np.array([0.1, 0.0, -0.2])
            layer.activation.running_var.value = np.array([0.5, 2.0, 1.0])
            return layer.train() if training else layer.eval()
        _on_both_kernel_sets(make, np.random.default_rng(9).normal(size=(7, 4)))

    def test_finite_difference_under_fused(self):
        rng = np.random.default_rng(4)
        mean, std = rng.normal(size=3), rng.random(3) + 0.5
        check_gradients(
            lambda t: kernels.dice(t[0], t[1], mean, std).sum(),
            [rng.normal(size=(5, 3)), rng.normal(size=3)])


@st.composite
def level_fronts(draw):
    """One contrastive level's base, kernels, validity mask and sampler draw.

    The sources are MISS's own: the CNN extractor's (``C`` and widths 1..M,
    or width 1 alone under /U) or the SA/LSTM extractor's single map (no
    time kernel, the extractor run on ``C``), at the interest level or with
    field kernels at the feature level.  Few maps for several pairs (one
    map drawn by many of them), ``J = 1``, ``B = 1``, ``P = 1``, a time
    width equal to the sequence (one map column), one-row fine maps
    (``row1 == row2``), fully padded rows, and rows whose only valid
    position is the last (``left == right``, ``h_eff = 0``)."""
    batch, fields = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    length, dim = draw(st.integers(1, 6)), draw(st.sampled_from([2, 4]))
    extractor = draw(st.sampled_from(["cnn", "/U", "sa", "lstm"]))
    widths = {"cnn": list(range(1, min(3, length) + 1)), "/U": [1]
              }.get(extractor)
    heights = (None if draw(st.booleans())
               else list(range(1, min(2, fields) + 1)))
    mask = np.zeros((batch, length), dtype=bool)
    for row in mask:
        kind = draw(st.sampled_from(["full", "padded", "last", "suffix"]))
        first = {"full": 0, "padded": length, "last": length - 1,
                 "suffix": draw(st.integers(0, length - 1))}[kind]
        row[first:] = True
    return dict(shape=(batch, fields, length, dim), extractor=extractor,
                widths=widths,
                heights=heights, mask=mask, pairs=draw(st.integers(1, 4)),
                distance=draw(st.integers(1, 3)),
                field_aware=draw(st.booleans()),
                seed=draw(st.integers(0, 2**32 - 1)))


def _run_front(level, front):
    """``front(pairs, whole_rows, encoder)`` on a fresh ``C``, fresh
    kernels (or extractor) and a fresh encoder; its value and every ``C``,
    kernel, extractor and encoder gradient."""
    rng = np.random.default_rng(level["seed"])
    c = Tensor(rng.normal(size=level["shape"]), requires_grad=True)
    _, num_fields, _, dim = level["shape"]
    if level["widths"] is None:
        extractor = (SelfAttentionExtractor(dim, rng)
                     if level["extractor"] == "sa" else LSTMExtractor(dim, rng))
        sources = extractor.sources(c)
        kernels_ = list(extractor.parameters())
    else:
        kernels_ = [Tensor(rng.normal(size=width), requires_grad=True)
                    for width in level["widths"]]
        sources = [ViewSource(c, w) for w in kernels_]
    whole_rows = level["heights"] is None
    if whole_rows:
        pairs = sample_interest_pairs(sources, level["pairs"],
                                      level["distance"], rng,
                                      mask=level["mask"])
        encoder = ViewEncoder(num_fields * dim, (3,), rng)
    else:
        vertical = [Tensor(rng.normal(size=height), requires_grad=True)
                    for _ in sources for height in level["heights"]]
        fine = iter(vertical)
        sources = [ViewSource(s.base, s.horizontal, next(fine))
                   for s in sources for _ in level["heights"]]
        kernels_ += vertical
        pairs = sample_feature_pairs(sources, level["pairs"], rng,
                                     mask=level["mask"], num_fields=num_fields)
        encoder = (FieldAwareViewEncoder(dim, num_fields, (3,), rng)
                   if level["field_aware"] else ViewEncoder(dim, (3,), rng))
    out = front(pairs, whole_rows, encoder)
    out.backward(rng.normal(size=out.shape))
    return out.data, [t.grad for t in [c] + kernels_
                      + list(encoder.parameters())]


def _one_node_front(pairs, whole_rows, encoder):
    fields = np.array([pair.window1.row for pair in pairs]
                      + [pair.window2.row for pair in pairs])
    views = encoder.project(stack_views(pairs, whole_rows), fields)
    return views.reshape(-1, views.shape[-1])


class TestLevelFront:
    """``conv_views`` and ``field_linear`` (the level's views computed from
    the base and the kernels, and their projection) against the map
    spelling and per-view projection they replaced."""

    @given(level_fronts())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_per_view_oracle(self, level):
        out, grads = _run_front(level, _one_node_front)
        want_out, want_grads = _run_front(level, oracles.level_input)
        assert out.shape == want_out.shape
        assert out.tobytes() == want_out.tobytes()
        for i, (got, want) in enumerate(zip(grads, want_grads)):
            assert (got is None) == (want is None), f"gradient {i}"
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL,
                                           err_msg=f"gradient {i}")

    def test_out_of_range_cells_are_refused(self):
        # Both sides of the map: a negative index would wrap round.
        x = Tensor(np.zeros((2, 3, 5, 2)))
        w, u = Tensor(np.ones(2)), Tensor(np.ones(2))
        for cols in ([[0, 4]], [[-1, 0]]):      # the map has columns 0..3
            with pytest.raises(IndexError, match="time column"):
                kernels.conv_views(x, [(w, None)], [0], np.array(cols))
        for row in (2, -1):                     # the map has rows 0..1
            with pytest.raises(IndexError, match="field row"):
                kernels.conv_views(x, [(w, u)], [0], np.array([[0, 1]]),
                                   np.array([row]))
        with pytest.raises(ValueError, match="field kernel"):
            kernels.conv_views(x, [(w, u)], [0], np.array([[0, 1]]))

    def test_a_second_walk_is_refused(self):
        # The backward writes each cell's gradient over the forward's
        # cells, so walking the same graph again is refused, not wrong.
        x = Tensor(np.ones((1, 1, 3, 2)), requires_grad=True)
        loss = kernels.conv_views(x, [(Tensor(np.ones(2)), None)], [0],
                                  np.array([[1]])).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="one walk"):
            loss.backward()

    def test_finite_difference(self):
        rng = np.random.default_rng(2)
        cols = np.array([[0, 2, 1], [2, 2, 0], [0, 1, 1]])
        check_gradients(
            lambda t: (kernels.conv_views(t[0], [(t[1], t[3]), (t[2], None)],
                                          [1, 0, 1], cols,
                                          np.array([0, 1, 0])) ** 2).sum()
            + (kernels.conv_views(t[0], [(t[2], None), (None, None)],
                                  [0, 1, 0], cols) ** 2).sum(),
            [rng.normal(size=(3, 2, 4, 2)), rng.normal(size=2),
             rng.normal(size=2), rng.normal(size=1)])
        check_gradients(
            lambda t: (kernels.field_linear(t[0], np.array([1, 0, 1]),
                                            t[1:3], t[3:]) ** 2).sum(),
            [rng.normal(size=(3, 2, 4)), rng.normal(size=(4, 3)),
             rng.normal(size=(4, 3)), rng.normal(size=3), rng.normal(size=3)])


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

    def test_whole_din_miss_model_agrees(self):
        # The joint loss of DIN+MISS (LAU, Dice, conv, linear and l2 all
        # swapped) on a batch with a fully padded behaviour row.
        data = load_dataset("amazon-cds", scale=0.12, seed=0)
        batch = data.train.batch(np.arange(32))
        batch.mask[3] = False
        results = {}
        for name in oracles.KERNEL_SETS:
            model = attach_miss(create_model("DIN", data.schema, seed=1),
                                MISSConfig(seed=2))
            model.train()
            with oracles.kernel_set(name):
                loss = model.training_loss(batch)
                loss.backward()
            results[name] = (loss.item(), dict(
                (n, p.grad) for n, p in model.named_parameters()))
        (loss, grads), (want_loss, want_grads) = (results["fused"],
                                                  results["reference"])
        assert loss == want_loss
        assert grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            assert (grad is None) == (want_grads[name] is None), name
            if grad is not None:
                np.testing.assert_allclose(grad, want_grads[name], rtol=RTOL,
                                           atol=ATOL, err_msg=name)

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
