"""Configuration of the MISS framework, including every ablation switch.

The paper's Table VII names its variants by the practice that is *removed*:

=================  ==============================================
Flag removed       Effect here
=================  ==============================================
``F`` (fine)       ``use_fine_grained=False`` — no MIMFE, no L'_ssl
``U`` (union)      ``use_union_wise=False`` — only width-1 kernels
``L`` (long)       ``use_long_range=False`` — view distance fixed to h=1
``M`` (multi)      ``use_multi_interest=False`` — one global interest per
                   sample, i.e. the sample-level contrast MISS argues against
=================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["MISSConfig"]


@dataclass(frozen=True)
class MISSConfig:
    """Hyper-parameters of the MISS SSL component (paper §VI-A5 defaults)."""

    max_kernel_width: int = 3        # M: horizontal conv branches, tuned in {1..4}
    max_kernel_height: int = 2       # N: vertical conv branches, tuned in {1, 2}
    max_distance: int = 3            # H: max augmentation distance, tuned in {1..4}
    num_interest_pairs: int = 8      # P: interest-level view pairs per batch
    num_feature_pairs: int = 8       # Q: feature-level view pairs per batch
    temperature: float = 0.1         # τ, turning point in Fig. 7
    alpha_interest: float = 1.0      # α1 in Eq. 17
    alpha_feature: float = 1.0       # α2 in Eq. 17 (paper sets α1 = α2)
    interest_encoder_sizes: tuple[int, ...] = (20, 20)
    feature_encoder_sizes: tuple[int, ...] = (10, 10)
    extractor: str = "cnn"           # "cnn" | "sa" | "lstm" (Table VIII)
    # Harness choices introduced by this reproduction (see DESIGN.md §4b);
    # switch off to ablate them.
    dedup_false_negatives: bool = True
    field_aware_encoder: bool = True
    # Ablation switches (Table VII)
    use_fine_grained: bool = True    # F
    use_union_wise: bool = True      # U
    use_long_range: bool = True      # L
    use_multi_interest: bool = True  # M
    seed: int = 0

    def __post_init__(self):
        if self.max_kernel_width < 1 or self.max_kernel_height < 1:
            raise ValueError("kernel branch counts must be >= 1")
        if self.max_distance < 1:
            raise ValueError("max_distance H must be >= 1")
        if self.num_interest_pairs < 1 or self.num_feature_pairs < 1:
            raise ValueError("P and Q must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.extractor not in ("cnn", "sa", "lstm"):
            raise ValueError(f"unknown extractor {self.extractor!r}")

    # ------------------------------------------------------------------
    # Derived effective settings
    # ------------------------------------------------------------------
    @property
    def effective_width(self) -> int:
        """M after the union-wise ablation."""
        return self.max_kernel_width if self.use_union_wise else 1

    @property
    def effective_distance(self) -> int:
        """H after the long-range ablation."""
        return self.max_distance if self.use_long_range else 1

    # ------------------------------------------------------------------
    # Variant constructors used by the ablation benchmark
    # ------------------------------------------------------------------
    def without(self, *practices: str) -> "MISSConfig":
        """Return a copy with the named practices removed.

        ``config.without("F", "U")`` reproduces the paper's ``MISS/F/U``.
        """
        changes: dict[str, bool] = {}
        for practice in practices:
            key = practice.upper()
            if key == "F":
                changes["use_fine_grained"] = False
            elif key == "U":
                changes["use_union_wise"] = False
            elif key == "L":
                changes["use_long_range"] = False
            elif key == "M":
                changes["use_multi_interest"] = False
            else:
                raise KeyError(f"unknown practice {practice!r}; use F/U/L/M")
        return replace(self, **changes)

    @property
    def variant_name(self) -> str:
        """The paper's variant label, e.g. ``"MISS/F/U"``."""
        suffix = ""
        if not self.use_multi_interest:
            suffix += "/M"
        if not self.use_fine_grained:
            suffix += "/F"
        if not self.use_union_wise:
            suffix += "/U"
        if not self.use_long_range:
            suffix += "/L"
        return "MISS" + suffix
