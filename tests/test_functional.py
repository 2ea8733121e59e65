"""Tests for repro.nn.functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor
from repro.nn import functional as F

from .helpers import check_gradients

RNG = np.random.default_rng(1)


def finite_arrays(shape):
    return hnp.arrays(np.float64, shape,
                      elements=st.floats(-5, 5, allow_nan=False, width=32))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(4, 7)))
        probs = F.softmax(x).data
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(4), rtol=1e-12)

    def test_shift_invariance(self):
        x = RNG.normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_extreme_values_stable(self):
        x = Tensor(np.array([[1000.0, -1000.0, 0.0]]))
        probs = F.softmax(x).data
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == pytest.approx(1.0)

    def test_gradient(self):
        x = RNG.normal(size=(2, 4))
        check_gradients(lambda ts: (F.softmax(ts[0]) ** 2).sum(), [x])


class TestMaskedSoftmax:
    def test_masked_positions_zero(self):
        x = Tensor(RNG.normal(size=(2, 5)))
        mask = np.array([[True, True, False, True, False],
                         [False, True, True, True, True]])
        probs = F.masked_softmax(x, mask).data
        assert np.all(probs[~mask] == 0.0)
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(2), rtol=1e-6)

    def test_all_masked_row_is_zero_not_nan(self):
        x = Tensor(RNG.normal(size=(2, 3)))
        mask = np.array([[False, False, False], [True, True, True]])
        probs = F.masked_softmax(x, mask).data
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs[0], np.zeros(3))

    def test_gradient_flows_through_valid_positions(self):
        x = RNG.normal(size=(2, 4))
        mask = np.array([[True, True, False, True], [True, False, True, True]])
        check_gradients(lambda ts: (F.masked_softmax(ts[0], mask) ** 2).sum(), [x])


class TestBCEWithLogits:
    def test_matches_reference(self):
        logits = RNG.normal(size=(8,))
        targets = RNG.integers(0, 2, size=8).astype(float)
        probs = 1.0 / (1.0 + np.exp(-logits))
        reference = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets)
        assert loss.item() == pytest.approx(reference, rel=1e-9)

    def test_stable_for_huge_logits(self):
        logits = Tensor(np.array([500.0, -500.0]))
        loss = F.binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_gradient(self):
        logits = RNG.normal(size=(6,))
        targets = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        check_gradients(
            lambda ts: F.binary_cross_entropy_with_logits(ts[0], targets), [logits])

    @settings(max_examples=25, deadline=None)
    @given(finite_arrays((5,)))
    def test_loss_nonnegative(self, logits):
        targets = (logits > 0).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets)
        assert loss.item() >= 0.0


class TestCosine:
    def test_self_similarity_is_one(self):
        x = Tensor(RNG.normal(size=(4, 8)))
        np.testing.assert_allclose(F.cosine_similarity(x, x).data, np.ones(4),
                                   rtol=1e-6)

    def test_opposite_is_minus_one(self):
        x = Tensor(RNG.normal(size=(3, 5)))
        sims = F.cosine_similarity(x, Tensor(-x.data)).data
        np.testing.assert_allclose(sims, -np.ones(3), rtol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(finite_arrays((3, 4)), finite_arrays((3, 4)))
    def test_bounded(self, a, b):
        sims = F.cosine_similarity(Tensor(a), Tensor(b)).data
        assert np.all(sims <= 1.0 + 1e-8) and np.all(sims >= -1.0 - 1e-8)

    def test_gradient(self):
        a = RNG.normal(size=(2, 4)) + 0.5
        b = RNG.normal(size=(2, 4)) + 0.5
        check_gradients(lambda ts: F.cosine_similarity(ts[0], ts[1]).sum(), [a, b])

    def test_l2_normalize_unit_norm(self):
        x = Tensor(RNG.normal(size=(5, 7)))
        norms = np.linalg.norm(F.l2_normalize(x).data, axis=-1)
        np.testing.assert_allclose(norms, np.ones(5), rtol=1e-6)


class TestDropout:
    def test_eval_is_identity(self):
        x = Tensor(RNG.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_rate_is_identity(self):
        x = Tensor(RNG.normal(size=(4, 4)))
        out = F.dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, np.random.default_rng(0), training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_rate_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            F.dropout(x, 1.0, np.random.default_rng(0), training=True)
