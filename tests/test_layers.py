"""Tests for modules, layers, and optimisers."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    Dense,
    Dice,
    Dropout,
    Embedding,
    Parameter,
    PReLU,
    Sequential,
    Tensor,
    clip_grad_norm,
    get_activation,
)

from .helpers import check_gradients

RNG = np.random.default_rng(2)


def make_rng():
    return np.random.default_rng(42)


class TestDense:
    def test_output_shape(self):
        layer = Dense(5, 3, make_rng())
        out = layer(Tensor(RNG.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_high_rank_input(self):
        layer = Dense(4, 2, make_rng())
        out = layer(Tensor(RNG.normal(size=(3, 6, 4))))
        assert out.shape == (3, 6, 2)

    def test_no_bias(self):
        layer = Dense(3, 2, make_rng(), bias=False)
        assert layer.bias is None
        zero = layer(Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(zero.data, np.zeros((1, 2)))

    def test_gradients_reach_weights(self):
        layer = Dense(3, 2, make_rng())
        out = layer(Tensor(RNG.normal(size=(4, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_activation_applied(self):
        layer = Dense(3, 2, make_rng(), activation="relu")
        out = layer(Tensor(RNG.normal(size=(50, 3))))
        assert np.all(out.data >= 0)


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, make_rng())
        out = emb(np.array([[1, 2], [3, 4], [5, 0]]))
        assert out.shape == (3, 2, 4)

    def test_out_of_range_raises(self):
        emb = Embedding(5, 2, make_rng())
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_out_of_range_message_reports_both_bounds(self):
        # The single-pass uint64 bounds check must keep the original
        # diagnostic: the valid range plus the offending min and max.
        emb = Embedding(5, 2, make_rng())
        with pytest.raises(IndexError, match=r"\[0, 5\).*min=-2.*max=7"):
            emb(np.array([3, -2, 7]))

    def test_bounds_check_on_noncontiguous_indices(self):
        # The uint64 reinterpretation must work on strided index views too.
        emb = Embedding(5, 2, make_rng())
        strided = np.arange(12).reshape(3, 4)[:, ::2]  # max stride elem = 10
        with pytest.raises(IndexError):
            emb(strided)
        assert emb(strided % 5).shape == (3, 2, 2)

    def test_boundary_indices_are_valid(self):
        emb = Embedding(5, 2, make_rng())
        out = emb(np.array([0, 4]))
        assert np.array_equal(out.data[0], emb.weight.data[0])
        assert np.array_equal(out.data[1], emb.weight.data[4])

    def test_gradient_accumulates_for_repeats(self):
        emb = Embedding(4, 3, make_rng())
        out = emb(np.array([1, 1, 2]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], 2 * np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[2], np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[0], np.zeros(3))

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            Embedding(0, 3, make_rng())


class TestActivations:
    def test_prelu_negative_slope_learned(self):
        act = PReLU(3, initial=0.5)
        x = Tensor(np.array([[-2.0, 0.0, 2.0], [-1.0, 1.0, -3.0]]))
        out = act(x)
        np.testing.assert_allclose(out.data[0], [-1.0, 0.0, 2.0])

    def test_prelu_gradients(self):
        x = RNG.normal(size=(4, 2)) + 0.1

        def build(ts):
            act = PReLU(2, initial=0.3)
            return act(ts[0]).sum()

        check_gradients(build, [x])

    def test_dice_train_vs_eval(self):
        act = Dice(3)
        x = Tensor(RNG.normal(size=(32, 3)))
        act.train()
        _ = act(x)
        act.eval()
        out1 = act(x).data
        out2 = act(x).data
        np.testing.assert_array_equal(out1, out2)  # deterministic in eval

    def test_get_activation_unknown(self):
        with pytest.raises(ValueError):
            get_activation("swish", 4, make_rng())

    def test_get_activation_linear(self):
        act = get_activation(None, 4, make_rng())
        x = Tensor(RNG.normal(size=(2, 4)))
        np.testing.assert_array_equal(act(x).data, x.data)


class TestMLP:
    def test_paper_tower_shape(self):
        """The paper's deep layers are {40, 40, 40, 1}."""
        mlp = MLP(17, [40, 40, 40, 1], make_rng())
        out = mlp(Tensor(RNG.normal(size=(5, 17))))
        assert out.shape == (5, 1)

    def test_empty_sizes_raises(self):
        with pytest.raises(ValueError):
            MLP(4, [], make_rng())

    def test_dropout_only_between_layers(self):
        mlp = MLP(4, [8, 1], make_rng(), dropout=0.5)
        mlp.eval()
        x = Tensor(RNG.normal(size=(3, 4)))
        out1, out2 = mlp(x).data, mlp(x).data
        np.testing.assert_array_equal(out1, out2)

    def test_gradients_reach_all_layers(self):
        mlp = MLP(4, [6, 3, 1], make_rng())
        mlp(Tensor(RNG.normal(size=(8, 4)))).sum().backward()
        for name, p in mlp.named_parameters():
            assert p.grad is not None, name


class TestModuleSystem:
    def test_named_parameters_nested(self):
        seq = Sequential(Dense(3, 4, make_rng()), Dense(4, 2, make_rng()))
        names = [n for n, _ in seq.named_parameters()]
        assert "steps.items.0.weight" in names
        assert "steps.items.1.bias" in names

    def test_state_dict_roundtrip(self):
        a = MLP(3, [4, 1], make_rng())
        b = MLP(3, [4, 1], np.random.default_rng(99))
        x = Tensor(RNG.normal(size=(2, 3)))
        assert not np.allclose(a(x).data, b(x).data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_load_state_dict_strict(self):
        a = MLP(3, [4, 1], make_rng())
        with pytest.raises(KeyError):
            a.load_state_dict({"nope": np.zeros(3)})

    def test_load_state_dict_shape_mismatch(self):
        a = Dense(3, 2, make_rng())
        state = a.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_train_eval_propagates(self):
        seq = Sequential(Dropout(0.5, make_rng()), Dense(3, 1, make_rng()))
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())

    def test_num_parameters(self):
        layer = Dense(3, 2, make_rng())
        assert layer.num_parameters() == 3 * 2 + 2

    def test_zero_grad(self):
        layer = Dense(2, 1, make_rng())
        layer(Tensor(np.ones((1, 2)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestOptimizers:
    @staticmethod
    def _quadratic_problem():
        """Minimise ||w - target||^2 from w = 0."""
        target = np.array([1.0, -2.0, 3.0])
        w = Parameter(np.zeros(3))
        return w, target

    def test_adam_converges(self):
        w, target = self._quadratic_problem()
        opt = Adam([w], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ((w - Tensor(target)) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-3)

    def test_weight_decay_shrinks_solution(self):
        w1, target = self._quadratic_problem()
        w2, _ = self._quadratic_problem()
        for w, wd in ((w1, 0.0), (w2, 1.0)):
            opt = Adam([w], lr=0.05, weight_decay=wd)
            for _ in range(500):
                opt.zero_grad()
                ((w - Tensor(target)) ** 2).sum().backward()
                opt.step()
        assert np.linalg.norm(w2.data) < np.linalg.norm(w1.data)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_skip_parameters_without_grad(self):
        w = Parameter(np.ones(2))
        opt = Adam([w], lr=0.1)
        opt.step()  # no grad yet: must be a no-op, not a crash
        np.testing.assert_array_equal(w.data, np.ones(2))

    def test_clip_grad_norm(self):
        w = Parameter(np.zeros(4))
        w.grad = np.full(4, 10.0)
        pre = clip_grad_norm([w], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0)
