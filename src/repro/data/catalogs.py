"""Named dataset presets mirroring the paper's three benchmarks (Table III).

The real datasets are offline-unreachable; each preset configures the
InterestWorld simulator so the *relative* properties the paper attributes to
each dataset survive the substitution:

* **amazon-cds** — smallest; long time span, so users accumulate many
  distinct interests; 5 fields; frequency threshold 5.
* **amazon-books** — same regime, roughly twice the size; threshold 10.
* **alipay** — largest; six-month span, so fewer interests per user (the
  paper observes smaller MISS gains here); 7 fields (adds seller id and a
  seller history); threshold 10.

``scale`` multiplies the user/item counts so tests run on tiny worlds while
examples and benchmarks can use larger ones.
"""

from __future__ import annotations

from .processing import ProcessedData, build_ctr_data
from .synthetic import InterestWorld, InterestWorldConfig

__all__ = ["DATASET_NAMES", "make_config", "load_dataset"]

DATASET_NAMES = ("amazon-cds", "amazon-books", "alipay")


def make_config(name: str, scale: float = 1.0, seed: int = 0) -> InterestWorldConfig:
    """Build the InterestWorld configuration for a named preset."""
    if scale <= 0:
        raise ValueError("scale must be positive")

    def scaled(base: int, minimum: int) -> int:
        return max(minimum, int(round(base * scale)))

    if name == "amazon-cds":
        return InterestWorldConfig(
            name=name,
            num_users=scaled(750, 40),
            num_items=scaled(1400, 80),
            num_topics=24,
            num_categories=8,
            num_sellers=0,
            interests_per_user=(3, 6),
            history_length=(14, 40),
            session_mean_length=3.0,
            missclick_rate=0.05,
            popularity_exponent=1.2,
            category_noise=0.25,
            min_interactions=5,
            seed=seed,
        )
    if name == "amazon-books":
        return InterestWorldConfig(
            name=name,
            num_users=scaled(1580, 60),
            num_items=scaled(1400, 120),
            num_topics=32,
            num_categories=10,
            num_sellers=0,
            interests_per_user=(3, 6),
            history_length=(14, 40),
            session_mean_length=3.0,
            missclick_rate=0.05,
            popularity_exponent=1.2,
            category_noise=0.25,
            min_interactions=10,
            seed=seed,
        )
    if name == "alipay":
        return InterestWorldConfig(
            name=name,
            num_users=scaled(3260, 80),
            num_items=scaled(1800, 120),
            num_topics=40,
            num_categories=12,
            num_sellers=30,
            interests_per_user=(1, 3),
            history_length=(12, 28),
            session_mean_length=4.0,
            missclick_rate=0.05,
            popularity_exponent=1.2,
            category_noise=0.25,
            min_interactions=10,
            seed=seed,
        )
    raise KeyError(f"unknown dataset preset {name!r}; choose from {DATASET_NAMES}")


def load_dataset(name: str, scale: float = 1.0, seed: int = 0,
                 max_seq_len: int = 20) -> ProcessedData:
    """Generate a preset world and run the full processing pipeline."""
    config = make_config(name, scale=scale, seed=seed)
    return build_ctr_data(InterestWorld(config), max_seq_len=max_seq_len,
                          seed=seed + 1)
