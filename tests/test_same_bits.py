"""The three "no numerics at stake" rewrites of the training step, each held
to the formula it replaced (kept here as the oracle), bit for bit:

* keyed false-negative masks (one exact key table per batch and block
  shape) == the gather + ``np.unique``-over-bytes keys they replaced
  (``tests/oracles.py``) == the broadcast ``(B, B, w·h)`` id compare;
* a gradient's one-pass first touch (fresh buffer or flat-vector slice)
  == zero-fill-then-add;
* ``take`` / ``__getitem__`` backward == ``np.add.at`` into ``zeros_like``
  followed by the first-touch copy;
* a masked ``info_nce`` (masked entries at ``-inf`` before an in-place
  exp) == the ``-1e9`` penalty it replaced, loss and gradients.

Plus one ``ast`` guard: in the autograd engine ``np.add.at`` survives only
in the fancy-index fallback and ``zeros_like`` not at all.
"""

import ast
import functools
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import info_nce
from repro.core.augmentation import ViewPair, Window
from repro.core.miss import WindowKeys, _false_negative_masks
from repro.nn import ArrayOps, FlatParameters, Parameter, Tensor
from repro.nn.functional import _EPS
from repro.nn.tensor import _is_basic_key

from .oracles import byte_keyed_masks

SRC = Path(repro.__file__).resolve().parent
SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.25, 1e-310]
# inf + -inf inside the oracles and the code under test alike
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def same_bits_up_to_nan_payload(a: np.ndarray, b: np.ndarray) -> bool:
    """NaNs in the same cells, every other cell bit-equal (signed zeros
    included).  When a cell sums ``inf + -inf`` (the default NaN, sign bit
    set on x86) *and* an incoming ``nan``, which of the two payloads survives
    depends on the operand order the compiler chose for ``+``: not a value,
    and not promised."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and same_bits(np.where(nan, 0.0, a), np.where(nan, 0.0, b)))


# ----------------------------------------------------------------------
# False-negative masks
# ----------------------------------------------------------------------
def _old_mask(sequences, window1, window2):
    """The parent's ``_id_blocks`` + ``_collisions``, verbatim."""
    def blocks(w):
        batch = sequences.shape[0]
        cols = w.cols[:, None] + np.arange(w.width)[None, :]
        rows = np.arange(w.row, w.row + w.height)
        block = sequences[np.arange(batch)[:, None, None],
                          rows[None, :, None], cols[:, None, :]]
        return block.reshape(batch, -1)

    def collisions(a, b):
        return (a[:, None, :] == b[None, :, :]).all(axis=2)

    block1, block2 = blocks(window1), blocks(window2)
    return collisions(block2, block2) | collisions(block1, block2)


@st.composite
def levels(draw):
    batch = draw(st.integers(1, 6))
    num_fields = draw(st.integers(1, 3))
    seq_len = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Two or three distinct ids make equal windows (and duplicate rows)
    # common; the offset puts them where a float key would lose bits.
    offset = draw(st.sampled_from([0, 2**62 - 3]))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    vocab = draw(st.integers(1, 3))

    def ids(*shape):
        return rng.integers(0, vocab, shape) + offset

    if layout == "strided":
        sequences = ids(batch, num_fields, 2 * seq_len)[:, :, ::2]
    elif layout == "transposed":
        sequences = ids(seq_len, num_fields, batch).T
    else:
        sequences = ids(batch, num_fields, seq_len)

    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        height = draw(st.integers(1, num_fields))
        width = draw(st.integers(1, seq_len))
        windows = []
        for _ in range(2):
            row = draw(st.integers(0, num_fields - height))
            cols = rng.integers(0, seq_len - width + 1, batch)
            windows.append(Window(row, height, cols, width))
        if draw(st.booleans()):  # the sample-level shape: one window twice
            windows[1] = windows[0]
        pairs.append(ViewPair(None, *windows))
    return sequences, pairs


@given(levels(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_keyed_masks_equal_the_broadcast_compare(level, split):
    # One key table per batch serves every pair of both "levels": windows
    # of mixed heights, widths and rows over two or three ids.
    sequences, pairs = level
    keys = WindowKeys(sequences)
    masks = np.concatenate([_false_negative_masks(pairs[:split], keys),
                            _false_negative_masks(pairs, keys)[split:]])
    assert masks.dtype == bool
    assert masks.shape == (len(pairs), len(sequences), len(sequences))
    assert same_bits(masks, byte_keyed_masks(pairs, sequences))
    for mask, pair in zip(masks, pairs):
        assert np.array_equal(
            mask, _old_mask(sequences, pair.window1, pair.window2))
    shapes = {(w.height, w.width) for pair in pairs
              for w in (pair.window1, pair.window2)}
    assert shapes <= set(keys._tables)


def test_a_window_outside_the_sequence_still_raises():
    sequences = np.zeros((2, 2, 4), dtype=np.int64)
    inside = Window(0, 1, np.array([0, 1]), 1)
    outside = Window(0, 2, np.array([0, 3]), 2)  # column 4 does not exist
    with pytest.raises(IndexError):
        _false_negative_masks([ViewPair(None, inside, inside),
                               ViewPair(None, outside, outside)],
                              WindowKeys(sequences))


@pytest.mark.parametrize("window", [
    Window(0, 1, np.array([-1, 0]), 1),     # would read column L-1
    Window(-1, 1, np.array([0, 0]), 1),     # would read row J-1
    Window(1, 2, np.array([0, 0]), 1),      # rows 1..2 of 2
    Window(0, 1, np.array([0, 0]), 5),      # wider than the sequence
])
def test_a_window_left_of_or_below_the_ids_raises(window):
    # A plain table lookup would wrap a negative index round: refused.
    sequences = np.arange(16).reshape(2, 2, 4)
    with pytest.raises(IndexError):
        _false_negative_masks([ViewPair(None, window, window)],
                              WindowKeys(sequences))


# ----------------------------------------------------------------------
# InfoNCE under a false-negative mask
# ----------------------------------------------------------------------
def _penalty_info_nce(x1, x2, temperature, mask):
    """The parent's masked ``info_nce``, verbatim but for the wrapping:
    ``(loss, d loss / d x1, d loss / d x2)`` for ``(P, B, D)`` views and a
    ``(P, B, B)`` mask."""
    ops = ArrayOps()
    pairs, batch = x1.shape[:2]
    z1, norm1 = ops.l2_normalize(x1, -1, _EPS)
    z2, norm2 = ops.l2_normalize(x2, -1, _EPS)
    logits = (z1 @ z2.swapaxes(-1, -2)) * (1.0 / temperature)
    diagonal = np.arange(batch)
    penalty = np.where(mask.reshape(logits.shape), -1e9, 0.0)
    penalty[:, diagonal, diagonal] = 0.0
    logits += penalty
    row_max = logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits - row_max)
    denominator = exp.sum(axis=-1, keepdims=True)
    per_row = ((np.log(denominator) + row_max)[..., 0]
               - logits[:, diagonal, diagonal])
    per_pair = per_row.sum(axis=-1) * (1.0 / batch)
    loss = functools.reduce(operator.add, per_pair) * (1.0 / pairs)
    scale = 1.0 * (1.0 / (pairs * batch * temperature))
    d_logits = exp * (scale / denominator)
    d_logits[:, diagonal, diagonal] -= scale
    grad1 = ops.l2_normalize_backward(d_logits @ z2, x1, norm1, -1, _EPS)
    grad2 = ops.l2_normalize_backward(d_logits.swapaxes(-1, -2) @ z1, x2,
                                      norm2, -1, _EPS)
    return loss, 0.0 + grad1, 0.0 + grad2


@pytest.mark.parametrize("density", ["none", "sparse", "all-but-diagonal"])
@pytest.mark.parametrize("pairs,batch,temperature",
                         [(1, 1, 0.1), (3, 7, 0.1), (8, 64, 0.05), (2, 16, 2.0)])
def test_masked_info_nce_equals_the_penalty(pairs, batch, temperature,
                                            density):
    rng = np.random.default_rng(pairs * 1000 + batch)
    x1, x2 = rng.normal(size=(2, pairs, batch, 5))
    if density == "none":
        mask = np.zeros((pairs, batch, batch), dtype=bool)
    elif density == "sparse":
        mask = rng.random((pairs, batch, batch)) < 0.05
    else:
        mask = np.ones((pairs, batch, batch), dtype=bool)
    before = mask.copy()
    want = _penalty_info_nce(x1, x2, temperature, mask)

    view1, view2 = (Tensor(x, requires_grad=True) for x in (x1, x2))
    loss = info_nce(view1, view2, temperature, mask)
    loss.backward()
    assert same_bits(np.asarray(loss.data), np.asarray(want[0]))
    assert same_bits(view1.grad, want[1])
    assert same_bits(view2.grad, want[2])
    assert same_bits(mask, before)  # read, never written


# ----------------------------------------------------------------------
# First-touch gradient accumulation
# ----------------------------------------------------------------------
def _zero_fill_then_add(grad, like):
    out = np.zeros_like(like)
    out += grad
    return out


def special_arrays(shape):
    size = int(np.prod(shape))
    return st.lists(st.sampled_from(SPECIALS), min_size=size, max_size=size
                    ).map(lambda v: np.array(v, dtype=np.float64
                                             ).reshape(shape))


@st.composite
def first_touches(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["same", "broadcast", "strided", "transposed",
                                 "fortran-like", "scalar"]))
    like = np.empty((rows, cols))
    if kind == "same":
        grad = draw(special_arrays((rows, cols)))
    elif kind == "broadcast":       # e.g. (1,) -> (B, 1)
        grad = draw(special_arrays(draw(st.sampled_from([(1,), (cols,),
                                                         (rows, 1)]))))
    elif kind == "strided":
        grad = draw(special_arrays((rows, 2 * cols)))[:, ::2]
    elif kind == "transposed":
        grad = draw(special_arrays((cols, rows))).T
    elif kind == "fortran-like":
        grad = draw(special_arrays((rows, cols)))
        like = np.asfortranarray(like)
    else:
        grad = np.float64(draw(st.sampled_from(SPECIALS)))
    return grad, like


@given(first_touches())
@settings(max_examples=200, deadline=None)
def test_grad_init_equals_zero_fill_then_add(case):
    # A gradient's first touch, into a fresh buffer (which keeps ``like``'s
    # memory layout) and into a bound parameter's slice of a flat vector.
    grad, like = case
    before = np.array(grad, copy=True)
    want = _zero_fill_then_add(grad, like)
    fresh, bound = Tensor(like), Parameter(like.copy())
    flat = FlatParameters([bound])
    for node in (fresh, bound):
        node._accumulate(grad)
        got = node.grad
        assert same_bits(got, want)
        assert not np.shares_memory(got, grad)
        assert same_bits(np.asarray(grad), before)
        assert not np.signbit(got[got == 0.0]).any()  # 0.0 + -0.0 is +0.0
    assert fresh.grad.strides == want.strides
    assert np.shares_memory(bound.grad, flat.grad)


# ----------------------------------------------------------------------
# take / __getitem__ backward
# ----------------------------------------------------------------------
def _seed_scatter(data, key, upstream):
    """Parent formula: root first touch, ``np.add.at`` into ``zeros_like``,
    then the first-touch copy into the indexed tensor's gradient."""
    root = _zero_fill_then_add(upstream, data[key])
    full = np.zeros_like(data)
    np.add.at(full, key, root)
    return _zero_fill_then_add(full, data), full


BASIC_KEYS = [
    1, -1, np.int64(2), slice(None), slice(1, 3), slice(None, None, -1),
    slice(3, 0, -2), None, Ellipsis, (0, slice(None)), (slice(None), -1),
    (Ellipsis, 1), (None, slice(1, None), Ellipsis), (slice(None), None, 0),
    (slice(0, 2), slice(None, None, 2), slice(None, None, -1)),
]
FANCY_KEYS = [
    np.array([0, 0, 2, 0]), np.array([[1, 1], [3, -1]]),
    (np.array([0, 1, 0]), slice(None), np.array([2, 2, 2])),
    (slice(None), np.array([1, 1])), [0, 0, 1], True,
    np.array([True, False, True, True]),
    np.arange(4 * 3 * 5).reshape(4, 3, 5) % 2 == 0,
]


@pytest.mark.parametrize("layout", ["c", "fortran"])
@pytest.mark.parametrize(
    "key", BASIC_KEYS + FANCY_KEYS,
    ids=lambda k: repr(k).replace("\n", "")[:40])
def test_getitem_backward_equals_add_at(key, layout):
    assert _is_basic_key(key) == any(key is k for k in BASIC_KEYS)
    rng = np.random.default_rng(0)
    data = rng.normal(size=(4, 3, 5))
    if layout == "fortran":
        data = np.asfortranarray(data)
    upstream = rng.choice(SPECIALS, size=np.shape(data[key]))
    want, full = _seed_scatter(data, key, upstream)

    t = Tensor(data, requires_grad=True)
    t[key].backward(upstream)
    assert same_bits(t.grad, want)
    assert t.grad.strides == want.strides
    # A second walk lands on an existing gradient: plain accumulation.
    t[key].backward(upstream)
    want += full
    assert same_bits(t.grad, want)


@st.composite
def gathers(draw):
    shape = draw(st.sampled_from([(5,), (5, 3), (4, 2, 3), (1, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index_shape = draw(st.sampled_from([(1,), (7,), (3, 4), (2, 1, 3)]))
    low = -shape[0] if draw(st.booleans()) else 0
    indices = rng.integers(low, shape[0], index_shape)
    if draw(st.booleans()):
        indices[...] = indices.flat[0]  # every lookup hits one row
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    upstream = rng.choice(SPECIALS + list(rng.normal(size=8)),
                          size=index_shape + shape[1:])
    return rng.normal(size=shape), indices.astype(dtype), upstream


@given(gathers())
@settings(max_examples=150, deadline=None)
def test_take_backward_equals_add_at(case):
    data, indices, upstream = case
    root = _zero_fill_then_add(upstream, np.take(data, indices, axis=0))
    full = np.zeros_like(data)
    np.add.at(full, indices.reshape(-1),
              root.reshape((-1,) + data.shape[1:]))
    want = _zero_fill_then_add(full, data)

    t = Tensor(data, requires_grad=True)
    out = t.take(indices, axis=0)
    assert same_bits(out.data, np.take(data, indices, axis=0))
    out.backward(upstream)
    assert same_bits_up_to_nan_payload(t.grad, want)
    t.take(indices, axis=0).backward(upstream)
    want += full
    assert same_bits_up_to_nan_payload(t.grad, want)


def test_take_on_another_axis_is_the_fancy_gather():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(3, 4))
    indices = np.array([[1, 1], [3, 0]])
    for axis in (1, -1):
        t = Tensor(data, requires_grad=True)
        out = t.take(indices, axis=axis)
        assert same_bits(out.data, np.take(data, indices, axis=1))
        out.backward(np.ones(out.shape))
        assert same_bits(t.grad, _seed_scatter(
            data, (slice(None), indices), np.ones(out.shape))[0])


# ----------------------------------------------------------------------
# Structure guard
# ----------------------------------------------------------------------
def test_add_at_survives_only_in_the_fancy_index_fallback():
    """Across the autograd engine (``nn/tensor.py``, ``nn/kernels.py``,
    ``nn/backend.py``): no ``zeros_like`` (a gradient's first touch is one
    pass), and ``np.add.at`` only under the ``else`` of ``if basic:`` in
    ``Tensor.__getitem__``."""
    def is_add_at(node):
        return (isinstance(node, ast.Attribute) and node.attr == "at"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "add")

    nn = SRC / "nn"
    engine = [nn / "tensor.py", nn / "kernels.py", nn / "backend.py"]
    trees = {path.name: ast.parse(path.read_text()) for path in engine}
    hits = {name: [node for node in ast.walk(tree)
                   if is_add_at(node) or (isinstance(node, ast.Attribute)
                                          and node.attr == "zeros_like")]
            for name, tree in trees.items()}
    assert {name for name, nodes in hits.items() if nodes} == {"tensor.py"}
    (only,) = hits["tensor.py"]
    assert is_add_at(only)

    (getitem,) = [node for node in ast.walk(trees["tensor.py"])
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "__getitem__"]
    (branch,) = [node for node in ast.walk(getitem)
                 if isinstance(node, ast.If)
                 and isinstance(node.test, ast.Name)
                 and node.test.id == "basic"]
    assert any(node is only
               for stmt in branch.orelse for node in ast.walk(stmt))
