"""The MISS framework: the paper's primary contribution."""

from .augmentation import (
    ViewPair,
    Window,
    sample_feature_pairs,
    sample_interest_pairs,
)
from .config import MISSConfig
from .diagnostics import SimilarityTracker
from .encoders import FieldAwareViewEncoder, ViewEncoder
from .extractors import FineGrainedExtractor, MultiInterestExtractor
from .extractors_alt import LSTMExtractor, SelfAttentionExtractor
from .losses import info_nce
from .miss import MISSModule
from .plugin import MISSEnhancedModel, SSLPluginModel, attach_miss

__all__ = [
    "MISSConfig", "MISSModule", "SSLPluginModel", "MISSEnhancedModel", "attach_miss",
    "MultiInterestExtractor", "FineGrainedExtractor",
    "SelfAttentionExtractor", "LSTMExtractor",
    "ViewEncoder", "FieldAwareViewEncoder",
    "ViewPair", "Window",
    "sample_interest_pairs", "sample_feature_pairs",
    "info_nce", "SimilarityTracker",
]
