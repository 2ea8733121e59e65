"""Model registry: names used in the paper's tables → constructors."""

from __future__ import annotations

import numpy as np

from ..data.schema import DatasetSchema
from .autoint import AutoIntModel
from .base import CTRModel, DeepCTRModel
from .dcn import DCNMModel, DCNModel
from .dien import DIENModel
from .din import DINModel
from .dmr import DMRModel
from .fignn import FiGNNModel
from .fm import DeepFMModel, FMModel
from .lr import LRModel
from .pnn import IPNNModel
from .sim import SIMSoftModel
from .xdeepfm import XDeepFMModel

__all__ = ["MODEL_NAMES", "create_model", "model_class", "supports_miss"]

_CLASSES: dict[str, type[CTRModel]] = {
    "LR": LRModel,
    "FM": FMModel,
    "DeepFM": DeepFMModel,
    "IPNN": IPNNModel,
    "DCN": DCNModel,
    "DCN-M": DCNMModel,
    "xDeepFM": XDeepFMModel,
    "DIN": DINModel,
    "DIEN": DIENModel,
    "SIM(soft)": SIMSoftModel,
    "DMR": DMRModel,
    "AutoInt+": AutoIntModel,
    "FiGNN": FiGNNModel,
}

MODEL_NAMES = tuple(_CLASSES)


def model_class(name: str) -> type[CTRModel]:
    """The class a registry name instantiates (without building a model)."""
    if name not in _CLASSES:
        raise KeyError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    return _CLASSES[name]


def supports_miss(name: str) -> bool:
    """Whether the MISS plug-in can attach to this baseline.

    The plug-in needs the shared :class:`FeatureEmbedder` that only
    :class:`DeepCTRModel` subclasses own (see ``MISSEnhancedModel``).
    """
    return issubclass(model_class(name), DeepCTRModel)


def create_model(name: str, schema: DatasetSchema, embedding_dim: int = 10,
                 seed: int = 0, **kwargs) -> CTRModel:
    """Instantiate a baseline by its paper name (e.g. ``"DIN"``)."""
    cls = model_class(name)
    rng = np.random.default_rng(seed)
    if not issubclass(cls, DeepCTRModel):  # LR has no embedding tables to size
        return cls(schema, rng, **kwargs)
    return cls(schema, embedding_dim, rng, **kwargs)
