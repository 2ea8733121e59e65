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

Both levels return the same :class:`ViewPair`: the :class:`ViewSource` it
was drawn from plus, per view, the :class:`Window` of raw ids (field rows ×
time span) behind it.  That is all the level needs.  A source names a map by
what builds it (the base tensor and the kernels), and the samplers read only
its ``shape``, so no map is ever built: a window's ``row`` and ``cols`` name
the map cells a view reads, and :func:`stack_views` computes a level's 2P
views in one graph node from the base and the kernels.  Windows also
identify id-identical "negatives" across the batch, and ``window.row`` is
the field the field-aware encoder projects with.  Interest views span every
field row and differ in time; feature views share the time span and differ
in field row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Tensor, kernels

__all__ = ["Window", "ViewSource", "ViewPair", "sample_interest_pairs",
           "sample_feature_pairs", "stack_views"]


@dataclass
class Window:
    """The block of the raw ``(B, J, L)`` id tensor behind one view."""

    row: int              # first field row (covers [row, row+height-1])
    height: int           # vertical kernel height n (J at the interest level)
    cols: np.ndarray      # (B,) first time column per sample
    width: int            # horizontal kernel width m (covers [col, col+m-1])


@dataclass(eq=False)
class ViewSource:
    """A map views are cut from, named by what builds it (Eq. 19 and 22).

    ``base`` is the ``(B, J, L, K)`` tensor the maps are built from: ``C``
    for the CNN extractor, or the SA/LSTM extractor's output.  ``horizontal``
    is the time kernel ``g_m`` (None: ``base`` itself, no ReLU) and
    ``vertical`` the field kernel ``ĝ_{m,n}`` of a feature-level map (None at
    the interest level).  ``shape`` is the map's; it is all the samplers
    read.
    """

    base: Tensor
    horizontal: Tensor | None = None
    vertical: Tensor | None = None

    def __post_init__(self):
        if self.base.ndim != 4:
            raise ValueError(
                f"expected a (B, J, L, K) base, got shape {self.base.shape}")
        _, num_fields, seq_len, _ = self.base.shape
        if seq_len < self.width:
            raise ValueError(f"sequence length {seq_len} shorter than "
                             f"kernel width {self.width}")
        if num_fields < self.height:
            raise ValueError(f"field count {num_fields} smaller than "
                             f"kernel height {self.height}")

    @property
    def width(self) -> int:
        return 1 if self.horizontal is None else self.horizontal.shape[0]

    @property
    def height(self) -> int:
        return 1 if self.vertical is None else self.vertical.shape[0]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        batch, num_fields, seq_len, dim = self.base.shape
        return (batch, num_fields - self.height + 1,
                seq_len - self.width + 1, dim)


@dataclass
class ViewPair:
    """One RS^i or RS^if draw: the source both views are cut from and their
    id windows.  ``source`` is ``None`` for a pair whose views are not cut
    from a map (MISS/M's sample-level dropout pair)."""

    source: ViewSource | None
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


def _draw_maps(maps: list[ViewSource], num_pairs: int,
               rng: np.random.Generator, mask: np.ndarray | None,
               seq_len: int | None):
    """What RS^i and RS^if share: per pair, one random map, the kernel width
    behind it and each sample's first valid position in it.  Only a map's
    ``shape`` is read, so a :class:`ViewSource` and a built map draw the
    same numbers."""
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


def sample_interest_pairs(interest_maps: list[ViewSource], num_pairs: int,
                          max_distance: int, rng: np.random.Generator,
                          mask: np.ndarray | None = None,
                          seq_len: int | None = None) -> list[ViewPair]:
    """RS^i: ``num_pairs`` view pairs ⟨t_l, t_{l+h}⟩ from random branches.

    Each view is the flattened ``(B, J·K)`` interest representation
    ``Flat(G_m[:, :, l, :])`` of Eq. 20 (:func:`stack_views` cuts it).  The
    distance ``h`` is drawn uniformly from ``[1, H]`` per pair; rows whose
    valid window is shorter than ``h`` use the largest distance they can
    accommodate.
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
        pairs.append(ViewPair(g, Window(0, num_fields, left, width),
                              Window(0, num_fields, right, width)))
    return pairs


def sample_feature_pairs(fine_maps: list[ViewSource], num_pairs: int,
                         rng: np.random.Generator,
                         mask: np.ndarray | None = None,
                         seq_len: int | None = None,
                         num_fields: int | None = None) -> list[ViewPair]:
    """RS^if: ``num_pairs`` pairs of ``(B, K)`` feature-level views (one
    field row each, cut by :func:`stack_views`).

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
        pairs.append(ViewPair(g, Window(row1, height, positions, width),
                              Window(row2, height, positions, width)))
    return pairs


def stack_views(pairs: list[ViewPair], whole_rows: bool) -> Tensor:
    """A level's ``2P`` views as one ``(2P, B, D)`` node, computed from the
    sources' base and kernels (:func:`repro.nn.kernels.conv_views`): every
    first view, then every second.

    An interest view (``whole_rows``) is ``Flat(G_m[b, :, cols[b], :])`` of
    Eq. 20, ``D = J·K``; a feature view is the ``(K,)`` row
    ``Ĝ_{m,n}[b, row, cols[b], :]`` of Eq. 24.
    """
    windows = [pair.window1 for pair in pairs] + [pair.window2 for pair in pairs]
    sources: list[ViewSource] = []
    slots: dict[int, int] = {}
    which = []
    for pair in pairs:
        slot = slots.setdefault(id(pair.source), len(sources))
        if slot == len(sources):
            sources.append(pair.source)
        which.append(slot)
    base = sources[0].base
    if any(source.base is not base for source in sources):
        raise ValueError("a level's views are cut from one base tensor")
    rows = None if whole_rows else np.array([w.row for w in windows])
    return kernels.conv_views(
        base, [(source.horizontal, source.vertical) for source in sources],
        np.array(which * 2), np.stack([w.cols for w in windows]), rows)
