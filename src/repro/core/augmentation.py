"""The random view-selection functions RS^i(·) and RS^if(·) (paper §V-B, §V-D).

Interest-level augmentation (Eq. 21) exploits the closeness assumption: two
interest representations produced by the *same* convolution branch at time
distance ``h ∈ [1, H]`` are treated as two views of one interest.  Uniformly
sampled ``h`` covers both short-range (h=1) and long-range (h→H) dependencies.

Feature-level augmentation (Eq. 24) samples, within one ``Ĝ_{m,n}`` and one
time position, two field rows as views — the paper's "totally random select"
over the (independent) feature axis.

Selection is *per sample*: every row of the batch draws its own time
position, so one pair already covers B distinct sequence locations.
Histories are front-padded, so when the batch validity mask is supplied each
row's positions are confined to windows that never touch its padding.

Both levels return the same :class:`ViewPair`: two views plus, per view, the
:class:`Window` of raw ids (field rows × time span) that produced it, which
is all the loss layer needs — windows identify id-identical "negatives"
across the batch, and ``window.row`` is the field the field-aware encoder
projects with.  Interest views span every field row and differ in time;
feature views share the time span and differ in field row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Tensor

__all__ = ["Window", "ViewPair", "sample_interest_pairs", "sample_feature_pairs"]


@dataclass
class Window:
    """The block of the raw ``(B, J, L)`` id tensor behind one view."""

    row: int              # first field row (covers [row, row+height-1])
    height: int           # vertical kernel height n (J at the interest level)
    cols: np.ndarray      # (B,) first time column per sample
    width: int            # horizontal kernel width m (covers [col, col+m-1])


@dataclass
class ViewPair:
    """One RS^i or RS^if draw: two ``(B, D)`` views and their id windows."""

    view1: Tensor
    view2: Tensor
    window1: Window
    window2: Window


def _per_sample_starts(mask: np.ndarray | None, batch: int,
                       out_len: int) -> np.ndarray:
    """First valid map position per sample for a kernel of this output size.

    Padding is a prefix, so sample ``b``'s valid window starts are
    ``[first_valid_b, out_len - 1]``; rows with no valid window fall back to
    position 0 (their views are padding embeddings — harmless noise).
    """
    if mask is None:
        return np.zeros(batch, dtype=np.int64)
    first_valid = np.where(mask.any(axis=1), mask.argmax(axis=1), 0)
    return np.minimum(first_valid, out_len - 1).astype(np.int64)


def _gather_views(g: Tensor, positions: np.ndarray) -> Tensor:
    """Per-sample time gather: ``(B, J, L', K)`` + ``(B,)`` → ``(B, J·K)``."""
    batch = g.shape[0]
    index = (np.arange(batch), slice(None), positions)
    return g[index].flatten_from(1)


def _draw_maps(maps: list[Tensor], num_pairs: int, rng: np.random.Generator,
               mask: np.ndarray | None, seq_len: int | None):
    """What RS^i and RS^if share: per pair, one random map, the kernel width
    behind it and each sample's first valid position in it."""
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    if not maps:
        raise ValueError("no maps to sample from")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        seq_len = mask.shape[1]
    for _ in range(num_pairs):
        g = maps[int(rng.integers(len(maps)))]
        batch, _, out_len, _ = g.shape
        width = (seq_len - out_len + 1) if seq_len is not None else 1
        yield g, width, _per_sample_starts(mask, batch, out_len)


def sample_interest_pairs(interest_maps: list[Tensor], num_pairs: int,
                          max_distance: int, rng: np.random.Generator,
                          mask: np.ndarray | None = None,
                          seq_len: int | None = None) -> list[ViewPair]:
    """RS^i: ``num_pairs`` view pairs ⟨t_l, t_{l+h}⟩ from random branches.

    Each view is the flattened ``(B, J·K)`` interest representation
    ``Flat(G_m[:, :, l, :])`` of Eq. 20.  The distance ``h`` is drawn
    uniformly from ``[1, H]`` per pair; rows whose valid window is shorter
    than ``h`` use the largest distance they can accommodate.
    """
    if max_distance < 1:
        raise ValueError("max_distance must be >= 1")
    pairs: list[ViewPair] = []
    for g, width, starts in _draw_maps(interest_maps, num_pairs, rng, mask,
                                       seq_len):
        batch, num_fields, out_len, _ = g.shape
        span = out_len - 1 - starts  # max distance available per sample
        h = int(rng.integers(1, max_distance + 1))
        h_eff = np.minimum(h, np.maximum(span, 0))
        slack = out_len - 1 - starts - h_eff
        offsets = (rng.random(batch) * (slack + 1)).astype(np.int64)
        left = starts + offsets
        right = left + h_eff
        pairs.append(ViewPair(
            _gather_views(g, left), _gather_views(g, right),
            Window(0, num_fields, left, width),
            Window(0, num_fields, right, width)))
    return pairs


def sample_feature_pairs(fine_maps: list[Tensor], num_pairs: int,
                         rng: np.random.Generator,
                         mask: np.ndarray | None = None,
                         seq_len: int | None = None,
                         num_fields: int | None = None) -> list[ViewPair]:
    """RS^if: ``num_pairs`` pairs of ``(B, K)`` feature-level views.

    Both views come from the same ``Ĝ_{m,n}`` and, per sample, the same time
    position (hence the same interest) but two random field rows, exposing
    the intra-item correlation between item attributes.  With a single field
    row the views coincide, which still regularises via the encoder noise.
    """
    pairs: list[ViewPair] = []
    for g, width, starts in _draw_maps(fine_maps, num_pairs, rng, mask, seq_len):
        batch, num_rows, out_len, _ = g.shape
        height = (num_fields - num_rows + 1) if num_fields is not None else 1
        slack = out_len - 1 - starts
        positions = starts + (rng.random(batch) * (slack + 1)).astype(np.int64)
        row1 = int(rng.integers(num_rows))
        if num_rows > 1:
            row2 = int(rng.integers(num_rows - 1))
            if row2 >= row1:
                row2 += 1
        else:
            row2 = row1
        samples = np.arange(batch)
        pairs.append(ViewPair(
            g[samples, row1, positions], g[samples, row2, positions],
            Window(row1, height, positions, width),
            Window(row2, height, positions, width)))
    return pairs
