"""The three "no numerics at stake" rewrites of the training step, each held
to the formula it replaced (kept here as the oracle), bit for bit:

* keyed false-negative masks == the broadcast ``(B, B, w·h)`` id compare;
* one-pass ``grad_init`` == zero-fill-then-add;
* ``take`` / ``__getitem__`` backward == ``np.add.at`` into ``zeros_like``
  followed by the first-touch copy.

Plus one ``ast`` guard: in the autograd engine ``np.add.at`` survives only
in the fancy-index fallback and ``zeros_like`` not at all.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.augmentation import ViewPair, Window
from repro.core.miss import _false_negative_masks
from repro.nn import Tensor, use_backend
from repro.nn.backend import ReferenceOps
from repro.nn.tensor import _is_basic_key

SRC = Path(repro.__file__).resolve().parent
SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.25, 1e-310]
# inf + -inf inside the oracles and the code under test alike
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")


@pytest.fixture(autouse=True)
def reference_backend():
    """These are the ``reference`` backend's promises, whatever the default."""
    with use_backend("reference"):
        yield


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
        pairs.append(ViewPair(None, None, *windows))
    return sequences, pairs


@given(levels())
@settings(max_examples=150, deadline=None)
def test_keyed_masks_equal_the_broadcast_compare(level):
    sequences, pairs = level
    masks = _false_negative_masks(pairs, sequences)
    assert masks.dtype == bool
    assert masks.shape == (len(pairs), len(sequences), len(sequences))
    for mask, pair in zip(masks, pairs):
        assert np.array_equal(
            mask, _old_mask(sequences, pair.window1, pair.window2))


def test_a_window_outside_the_sequence_still_raises():
    sequences = np.zeros((2, 2, 4), dtype=np.int64)
    inside = Window(0, 1, np.array([0, 1]), 1)
    outside = Window(0, 2, np.array([0, 3]), 2)  # column 4 does not exist
    with pytest.raises(IndexError):
        _false_negative_masks([ViewPair(None, None, inside, inside),
                               ViewPair(None, None, outside, outside)],
                              sequences)


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
    grad, like = case
    before = np.array(grad, copy=True)
    got = ReferenceOps().grad_init(grad, like)
    want = _zero_fill_then_add(grad, like)
    assert same_bits(got, want)
    assert got.strides == want.strides
    assert not np.shares_memory(got, grad)
    assert same_bits(np.asarray(grad), before)
    assert not np.signbit(got[got == 0.0]).any()  # 0.0 + -0.0 is +0.0


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
    ``nn/backend/``): no ``zeros_like`` (a gradient's first touch is one
    pass), and ``np.add.at`` only under the ``else`` of ``if basic:`` in
    ``Tensor.__getitem__``."""
    def is_add_at(node):
        return (isinstance(node, ast.Attribute) and node.attr == "at"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "add")

    nn = SRC / "nn"
    engine = [nn / "tensor.py", nn / "kernels.py",
              *sorted((nn / "backend").glob("*.py"))]
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
