"""Core layers: dense, embedding, MLP, dropout, and CTR-specific activations."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import functional as F
from . import init
from . import kernels
from .module import Buffer, Module, ModuleList, Parameter
from .tensor import Tensor, maximum

__all__ = [
    "Dense",
    "Embedding",
    "Dropout",
    "MLP",
    "Sequential",
    "PReLU",
    "Dice",
    "Identity",
    "get_activation",
]


class Identity(Module):
    """No-op layer, useful as a default activation placeholder."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Dense(Module):
    """Fully connected layer ``y = x @ W + b``.

    Works on inputs of any rank; the contraction is over the last axis.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True, activation: str | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        # Linear and ReLU epilogues can run inside the fused linear kernel;
        # anything else (prelu/dice/...) stays a separate module application.
        self._act_name = activation
        self.activation = get_activation(activation, out_features, rng)

    def forward(self, x: Tensor) -> Tensor:
        if self._act_name in (None, "linear", "relu"):
            return kernels.linear_act(x, self.weight, self.bias,
                                      relu=self._act_name == "relu")
        out = kernels.linear_act(x, self.weight, self.bias, relu=False)
        return self.activation(out)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Index 0 is reserved as padding by the data pipeline; its row is still
    trainable but attention masks prevent it from influencing pooled
    representations.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator,
                 std: float = 0.01):
        super().__init__()
        if num_embeddings <= 0:
            raise ValueError("num_embeddings must be positive")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng, std=std))

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        # Single bounds pass: reinterpreting int64 as uint64 wraps negatives
        # to >= 2**63, so one max() catches both ends of the valid range.
        if indices.size and indices.view(np.uint64).max() >= self.num_embeddings:
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}")
        return kernels.embedding_lookup(self.weight, indices)


class Dropout(Module):
    """Inverted dropout layer driven by an explicit RNG for reproducibility."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, self.training)


class PReLU(Module):
    """Parametric ReLU with a single learnable slope per channel."""

    def __init__(self, num_channels: int, initial: float = 0.25):
        super().__init__()
        self.alpha = Parameter(np.full(num_channels, initial))

    def forward(self, x: Tensor) -> Tensor:
        positive = x.relu()
        negative = (x - positive) * self.alpha
        return positive + negative


class Dice(Module):
    """Data-adaptive activation from the DIN paper.

    ``Dice(x) = p(x) * x + (1 - p(x)) * alpha * x`` where ``p(x)`` is a
    sigmoid of the batch-standardised input.  Running statistics are kept with
    momentum so evaluation is deterministic.
    """

    def __init__(self, num_channels: int, epsilon: float = 1e-8, momentum: float = 0.99):
        super().__init__()
        self.alpha = Parameter(np.zeros(num_channels))
        self.epsilon = epsilon
        self.momentum = momentum
        self.running_mean = Buffer(np.zeros(num_channels))
        self.running_var = Buffer(np.ones(num_channels))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            axes = tuple(range(x.ndim - 1))
            mean = x.data.mean(axis=axes)
            var = x.data.var(axis=axes)
            self.running_mean.value = (self.momentum * self.running_mean.value
                                       + (1 - self.momentum) * mean)
            self.running_var.value = (self.momentum * self.running_var.value
                                      + (1 - self.momentum) * var)
        else:
            mean, var = self.running_mean.value, self.running_var.value
        return kernels.dice(x, self.alpha, mean, np.sqrt(var + self.epsilon))


_SIMPLE_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": lambda x: x.relu(),
    "sigmoid": lambda x: x.sigmoid(),
    "tanh": lambda x: x.tanh(),
    "softplus": lambda x: ((-x.abs()).exp() + 1.0).log() + maximum(x, Tensor(np.zeros(1))),
}


class _Lambda(Module):
    def __init__(self, fn: Callable[[Tensor], Tensor]):
        super().__init__()
        self._fn = fn

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)


def get_activation(name: str | None, num_channels: int, rng: np.random.Generator) -> Module:
    """Resolve an activation by name to a module instance."""
    if name is None or name == "linear":
        return Identity()
    if name in _SIMPLE_ACTIVATIONS:
        return _Lambda(_SIMPLE_ACTIVATIONS[name])
    if name == "prelu":
        return PReLU(num_channels)
    if name == "dice":
        return Dice(num_channels)
    raise ValueError(f"unknown activation: {name!r}")


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.steps = ModuleList(modules)

    def forward(self, x):
        for module in self.steps:
            x = module(x)
        return x


class MLP(Module):
    """Multi-layer perceptron as in Eq. (5)-(6) of the paper.

    ``layer_sizes`` excludes the input width.  The final layer uses
    ``output_activation`` (default: linear, so downstream losses can work on
    logits).
    """

    def __init__(self, in_features: int, layer_sizes: Sequence[int],
                 rng: np.random.Generator, activation: str = "relu",
                 output_activation: str | None = None, dropout: float = 0.0):
        super().__init__()
        if not layer_sizes:
            raise ValueError("layer_sizes must be non-empty")
        self.layers = ModuleList()
        widths = [in_features, *layer_sizes]
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            is_last = i == len(layer_sizes) - 1
            act = output_activation if is_last else activation
            self.layers.append(Dense(fan_in, fan_out, rng, activation=act))
            if dropout > 0.0 and not is_last:
                self.layers.append(Dropout(dropout, rng))
        self.out_features = layer_sizes[-1]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x
