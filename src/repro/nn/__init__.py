"""Numpy-backed neural-network substrate (autograd engine, layers, optimisers).

This subpackage replaces the PyTorch/TensorFlow dependency of the original
MISS implementation with a self-contained reverse-mode autodiff framework.
"""

from . import functional
from . import kernels
from .attention import DotProductAttention, LocalActivationUnit, MultiHeadSelfAttention
from .backend import ArrayOps, get_backend
from .conv import HorizontalConv, VerticalConv
from .layers import (
    MLP,
    Dense,
    Dice,
    Dropout,
    Embedding,
    Identity,
    PReLU,
    Sequential,
    get_activation,
)
from .module import Buffer, FlatParameters, Module, ModuleList, Parameter
from .optim import Adam, clip_grad_norm
from .recurrent import AUGRU, GRU, LSTM
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    is_grad_enabled,
    maximum,
    minimum,
    no_grad,
    stack,
    tiled_no_grad,
    where,
)

__all__ = [
    "functional", "kernels",
    "ArrayOps", "get_backend",
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "tiled_no_grad",
    "concatenate", "stack", "where", "maximum", "minimum",
    "Module", "ModuleList", "Parameter", "FlatParameters", "Buffer",
    "Dense", "Embedding", "Dropout", "MLP", "Sequential",
    "PReLU", "Dice", "Identity", "get_activation",
    "HorizontalConv", "VerticalConv",
    "LSTM", "GRU", "AUGRU",
    "LocalActivationUnit", "MultiHeadSelfAttention", "DotProductAttention",
    "Adam", "clip_grad_norm",
]
