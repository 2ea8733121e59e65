"""Tests for the MISS convolutions, recurrent cells, and attention layers."""

import numpy as np
import pytest

from repro.core import ViewSource
from repro.nn import (
    AUGRU,
    GRU,
    LSTM,
    DotProductAttention,
    HorizontalConv,
    LocalActivationUnit,
    MultiHeadSelfAttention,
    Tensor,
    kernels,
)

from . import oracles
from .helpers import check_gradients, every_cell

RNG = np.random.default_rng(3)


def make_rng():
    return np.random.default_rng(11)


def conv_map(x: Tensor, horizontal=None, vertical=None) -> np.ndarray:
    """The ``(B, J', L', K)`` map a kernel pair names, read cell by cell
    through ``kernels.conv_views`` (the maps themselves are never built)."""
    source = ViewSource(x, horizontal, vertical)
    batch, rows, length, dim = source.shape
    if vertical is None:
        which, cols, view_rows = every_cell(x.shape, source.width, 2)
    else:
        which, cols, view_rows = every_cell(x.shape, source.height, 1)
    views = kernels.conv_views(x, [(horizontal, vertical)], which, cols,
                               view_rows)
    if vertical is None:
        return views.data.reshape(length, batch, rows, dim).transpose(1, 2, 0, 3)
    return views.data.reshape(rows, length, batch, dim).transpose(2, 0, 1, 3)


class TestHorizontalConv:
    def test_output_shape_matches_paper(self):
        """G_m ∈ R^{J×(L-m+1)×K} per Eq. 19."""
        batch, j, length, k = 2, 3, 8, 5
        x = Tensor(RNG.normal(size=(batch, j, length, k)))
        for width in range(1, 5):
            conv = HorizontalConv(width, make_rng())
            assert ViewSource(x, conv.weight).shape == (
                batch, j, length - width + 1, k)
            assert conv_map(x, conv.weight).shape == (
                batch, j, length - width + 1, k)

    def test_width_one_is_pointwise(self):
        """m=1 kernels scale each behaviour embedding independently."""
        conv = HorizontalConv(1, make_rng())
        x = Tensor(RNG.normal(size=(1, 2, 4, 3)))
        scaled = x.data * conv.weight.data[0]
        np.testing.assert_array_equal(conv_map(x, conv.weight),
                                      scaled * (scaled > 0))

    def test_relu_applied(self):
        conv = HorizontalConv(2, make_rng())
        x = Tensor(RNG.normal(size=(4, 2, 6, 3)))
        assert np.all(conv_map(x, conv.weight) >= 0)

    def test_kernel_has_m_parameters(self):
        """The paper counts m learnable weights per width-m kernel."""
        for width in (1, 2, 3, 4):
            assert HorizontalConv(width, make_rng()).num_parameters() == width

    def test_too_short_sequence_raises(self):
        conv = HorizontalConv(4, make_rng())
        with pytest.raises(ValueError):
            ViewSource(Tensor(RNG.normal(size=(1, 2, 3, 2))), conv.weight)

    def test_bad_rank_raises(self):
        conv = HorizontalConv(2, make_rng())
        with pytest.raises(ValueError):
            ViewSource(Tensor(RNG.normal(size=(2, 3, 4))), conv.weight)

    def test_gradient(self):
        x = RNG.normal(size=(2, 2, 5, 3))
        which, cols, _ = every_cell(x.shape, 3, 2)

        def build(ts):
            conv = HorizontalConv(3, np.random.default_rng(5))
            return (kernels.conv_views(ts[0], [(conv.weight, None)], which,
                                       cols) ** 2).sum()

        check_gradients(build, [x])


class TestVerticalConv:
    def test_output_shape_matches_paper(self):
        """Ĝ_{m,n} ∈ R^{(J-n+1)×(L-m+1)×K} per Eq. 22."""
        from repro.nn import VerticalConv
        batch, j, length, k = 2, 4, 6, 5
        x = Tensor(RNG.normal(size=(batch, j, length, k)))
        for height in range(1, 4):
            conv = VerticalConv(height, make_rng())
            assert conv_map(x, None, conv.weight).shape == (
                batch, j - height + 1, length, k)

    def test_too_few_fields_raises(self):
        from repro.nn import VerticalConv
        conv = VerticalConv(3, make_rng())
        with pytest.raises(ValueError):
            ViewSource(Tensor(RNG.normal(size=(1, 2, 5, 3))), None,
                       conv.weight)

    def test_gradient(self):
        from repro.nn import VerticalConv
        x = RNG.normal(size=(2, 4, 3, 2))
        which, cols, rows = every_cell(x.shape, 2, 1)

        def build(ts):
            conv = VerticalConv(2, np.random.default_rng(5))
            return (kernels.conv_views(ts[0], [(None, conv.weight)], which,
                                       cols, rows) ** 2).sum()

        check_gradients(build, [x])


class TestRecurrent:
    @pytest.mark.parametrize("cell_cls", [LSTM, GRU])
    def test_output_shapes(self, cell_cls):
        cell = cell_cls(4, 6, make_rng())
        x = Tensor(RNG.normal(size=(3, 5, 4)))
        outputs, final = cell(x)
        assert outputs.shape == (3, 5, 6)
        assert final.shape == (3, 6)

    @pytest.mark.parametrize("cell_cls", [LSTM, GRU])
    def test_mask_freezes_state(self, cell_cls):
        """Padded steps must not change the hidden state."""
        cell = cell_cls(3, 4, make_rng())
        x = Tensor(RNG.normal(size=(2, 6, 3)))
        mask = np.ones((2, 6), dtype=bool)
        mask[:, 3:] = False  # only first 3 steps valid
        outputs, final = cell(x, mask)
        np.testing.assert_allclose(outputs.data[:, 3, :], outputs.data[:, 5, :])
        np.testing.assert_allclose(final.data, outputs.data[:, 2, :])

    def test_lstm_gradients_flow_to_inputs(self):
        x = RNG.normal(size=(2, 3, 2))

        def build(ts):
            cell = LSTM(2, 3, np.random.default_rng(8))
            outputs, _ = cell(ts[0])
            return (outputs ** 2).sum()

        check_gradients(build, [x], rtol=1e-3)

    def test_gru_gradients_flow_to_inputs(self):
        x = RNG.normal(size=(2, 3, 2))

        def build(ts):
            cell = GRU(2, 3, np.random.default_rng(8))
            outputs, _ = cell(ts[0])
            return (outputs ** 2).sum()

        check_gradients(build, [x], rtol=1e-3)

    def test_augru_zero_attention_freezes_state(self):
        """With zero attention the AUGRU update gate closes entirely."""
        cell = AUGRU(3, 4, make_rng())
        x = Tensor(RNG.normal(size=(2, 5, 3)))
        attn = Tensor(np.zeros((2, 5)))
        outputs, final = cell(x, attn)
        np.testing.assert_allclose(final.data, np.zeros((2, 4)), atol=1e-12)

    def test_augru_attention_shape_check(self):
        cell = AUGRU(3, 4, make_rng())
        x = Tensor(RNG.normal(size=(2, 5, 3)))
        with pytest.raises(ValueError):
            cell(x, Tensor(np.zeros((2, 4))))


class TestLocalActivationUnit:
    def test_pooled_shape(self):
        lau = LocalActivationUnit(6, make_rng())
        seq = Tensor(RNG.normal(size=(4, 7, 6)))
        cand = Tensor(RNG.normal(size=(4, 6)))
        mask = np.ones((4, 7), dtype=bool)
        assert lau(seq, cand, mask).shape == (4, 6)

    def test_scores_respect_mask(self):
        # The weights are the oracle composition's (the library pools in
        # one node); the node must ignore whatever sits under the mask.
        lau = LocalActivationUnit(4, make_rng())
        seq_data = RNG.normal(size=(2, 5, 4))
        cand = Tensor(RNG.normal(size=(2, 4)))
        mask = np.array([[True, True, False, False, False]] * 2)
        scores = oracles.local_activation_scores(
            Tensor(seq_data), cand, mask, *lau.parameters()).data
        assert np.all(scores[:, 2:] == 0)
        np.testing.assert_allclose(scores.sum(axis=1), np.ones(2), rtol=1e-6)
        pooled = lau(Tensor(seq_data), cand, mask).data
        seq_data[:, 2:] += 100.0
        np.testing.assert_array_equal(lau(Tensor(seq_data), cand, mask).data,
                                      pooled)

    def test_fully_padded_sequence_pools_to_zero(self):
        lau = LocalActivationUnit(4, make_rng())
        seq = Tensor(RNG.normal(size=(1, 3, 4)))
        cand = Tensor(RNG.normal(size=(1, 4)))
        mask = np.zeros((1, 3), dtype=bool)
        np.testing.assert_allclose(lau(seq, cand, mask).data, np.zeros((1, 4)))

    def test_candidate_sensitivity(self):
        """Different candidates must produce different pooled vectors."""
        lau = LocalActivationUnit(4, make_rng())
        seq = Tensor(RNG.normal(size=(1, 6, 4)))
        mask = np.ones((1, 6), dtype=bool)
        a = lau(seq, Tensor(RNG.normal(size=(1, 4))), mask).data
        b = lau(seq, Tensor(RNG.normal(size=(1, 4))), mask).data
        assert not np.allclose(a, b)


class TestSelfAttention:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=make_rng())
        x = Tensor(RNG.normal(size=(3, 5, 8)))
        assert attn(x).shape == (3, 5, 8)

    def test_mask_blocks_information_flow(self):
        attn = MultiHeadSelfAttention(4, num_heads=1, rng=make_rng(), residual=False)
        x = RNG.normal(size=(1, 4, 4))
        mask = np.array([[True, True, False, False]])
        out1 = attn(Tensor(x), mask).data
        x2 = x.copy()
        x2[0, 3] += 100.0  # mutate a masked position
        out2 = attn(Tensor(x2), mask).data
        np.testing.assert_allclose(out1[0, :2], out2[0, :2], rtol=1e-9)

    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(4, num_heads=0, rng=make_rng())

    def test_gradient(self):
        x = RNG.normal(size=(2, 3, 4))

        def build(ts):
            attn = MultiHeadSelfAttention(4, num_heads=2, rng=np.random.default_rng(5))
            return (attn(ts[0]) ** 2).sum()

        check_gradients(build, [x], rtol=1e-3)


class TestDotProductAttention:
    def test_pool_shape_and_mask(self):
        attn = DotProductAttention(5, make_rng())
        seq = Tensor(RNG.normal(size=(2, 6, 5)))
        query = Tensor(RNG.normal(size=(2, 5)))
        mask = np.ones((2, 6), dtype=bool)
        mask[:, 4:] = False
        out = attn(seq, query, mask)
        assert out.shape == (2, 5)
        scores = attn.scores(seq, query, mask).data
        assert np.all(scores[:, 4:] == 0)
