"""Dataset statistics in the format of the paper's Table III."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .processing import ProcessedData

__all__ = ["DatasetStats", "compute_stats"]


@dataclass(frozen=True)
class DatasetStats:
    """One row of Table III.

    ``num_instances`` follows the paper's convention of one positive plus one
    sampled negative per user and split (#Instances = 2 × #Users).
    """

    name: str
    num_users: int
    num_items: int
    num_instances: int
    num_features: int
    num_fields: int


def compute_stats(data: ProcessedData) -> DatasetStats:
    """Compute Table III statistics from a processed dataset."""
    num_users = len(data.user_map)
    num_items = len(data.item_map)
    per_split = {name: len(split) for name, split in data.splits.items()}
    if len(set(per_split.values())) != 1:
        raise AssertionError(f"splits have unequal sizes: {per_split}")
    if per_split["train"] != 2 * num_users:
        raise AssertionError(
            "expected one positive and one negative per user per split")
    positives = int(np.sum(data.train.labels))
    if positives != num_users:
        raise AssertionError("expected exactly one positive per user")
    return DatasetStats(
        name=data.schema.name,
        num_users=num_users,
        num_items=num_items,
        num_instances=per_split["train"],
        num_features=data.schema.num_features,
        num_fields=data.schema.num_fields,
    )
