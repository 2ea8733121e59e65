"""Data substrate: synthetic multi-interest worlds and the CTR pipeline."""

from .analysis import WorldDiagnostics, diagnose_world, topic_adjacency_curve
from .batching import Batch, CTRDataset, DataLoader
from .catalogs import DATASET_NAMES, load_dataset, make_config
from .corruption import downsample, flip_labels
from .pipeline import (
    ShardCorruptError,
    ShardedCTRDataset,
    write_shards,
)
from .processing import ProcessedData, build_ctr_data
from .schema import DatasetSchema, FieldSpec
from .stats import DatasetStats, compute_stats
from .synthetic import InterestWorld, InterestWorldConfig, UserHistory

__all__ = [
    "Batch", "CTRDataset", "DataLoader",
    "WorldDiagnostics", "diagnose_world", "topic_adjacency_curve",
    "DATASET_NAMES", "load_dataset", "make_config",
    "downsample", "flip_labels",
    "ShardCorruptError", "ShardedCTRDataset",
    "write_shards",
    "ProcessedData", "build_ctr_data",
    "DatasetSchema", "FieldSpec",
    "DatasetStats", "compute_stats",
    "InterestWorld", "InterestWorldConfig", "UserHistory",
]
