"""Guards around the one contrastive-level path in ``repro.core``.

* Eq. 15 / Eq. 16 are pinned to a definition written out by hand from
  public pieces: the mean of per-pair InfoNCE terms, each a graph of
  autograd primitives (``info_nce``'s body before it became one node, kept
  here as the oracle).  The one-node op must agree, values and gradients,
  to round-off on both backends, stacked or not, and at its edges.
* The two SSL wrappers are pinned to their parameter order and to
  ``base.training_loss + Σ wᵢ·termᵢ``.
* ``ast`` guards keep the path spelled out once.
"""

import ast
import copy
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import (
    MISSConfig,
    MISSModule,
    attach_miss,
    info_nce,
    sample_feature_pairs,
    sample_interest_pairs,
)
from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import create_model
from repro.nn import Tensor, use_backend
from repro.nn import functional as F
from repro.ssl_baselines import SSL_METHODS, attach_ssl_baseline

SRC = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=5)
    return build_ctr_data(InterestWorld(config), max_seq_len=10, seed=6)


@pytest.fixture(scope="module")
def batch(data):
    return data.train.batch(np.arange(16))


# ----------------------------------------------------------------------
# (a) Eq. 15-16 written out by hand
# ----------------------------------------------------------------------
def _naive_false_negatives(sequences, window1, window2):
    """``[i, j]``: sample j's second id window equals sample i's first or
    second one — compared window by window in a Python loop."""
    def ids(window, b):
        rows = slice(window.row, window.row + window.height)
        cols = slice(window.cols[b], window.cols[b] + window.width)
        return sequences[b, rows, cols]

    size = sequences.shape[0]
    mask = np.zeros((size, size), dtype=bool)
    for i in range(size):
        for j in range(size):
            mask[i, j] = (np.array_equal(ids(window2, i), ids(window2, j))
                          or np.array_equal(ids(window1, i), ids(window2, j)))
    return mask


def _info_nce_by_hand(view1, view2, temperature, false_negatives=None):
    """One ``(B, D)`` pair's InfoNCE as a graph of autograd primitives."""
    z1 = F.l2_normalize(view1, axis=-1)
    z2 = F.l2_normalize(view2, axis=-1)
    logits = (z1 @ z2.swapaxes(0, 1)) * (1.0 / temperature)  # (B, B)
    if false_negatives is not None:
        penalty = np.where(false_negatives, -1e9, 0.0)
        np.fill_diagonal(penalty, 0.0)  # never drop the positive
        logits = logits + Tensor(penalty)
    # log-sum-exp over each row, numerically stabilised.
    row_max = Tensor(logits.data.max(axis=1, keepdims=True))
    shifted = logits - row_max
    log_denominator = (shifted.exp().sum(axis=1, keepdims=True)).log() \
        + row_max
    index = np.arange(view1.shape[0])
    diagonal = logits[index, index]
    return (log_denominator.squeeze(-1) - diagonal).mean()


def _mean_info_nce(module, pairs, encode, sequences):
    dedup = sequences is not None and module.config.dedup_false_negatives
    total = None
    for pair in pairs:
        mask = (_naive_false_negatives(sequences, pair.window1, pair.window2)
                if dedup else None)
        term = _info_nce_by_hand(encode(pair.view1, pair.window1.row),
                                 encode(pair.view2, pair.window2.row),
                                 module.config.temperature, mask)
        total = term if total is None else total + term
    return total * (1.0 / len(pairs))


def _losses_by_hand(module, c, mask, sequences):
    cfg, rng = module.config, module._rng
    interest_encoder, feature_encoder = (module.interest_encoder,
                                         module.feature_encoder)
    if not cfg.use_multi_interest:
        weights = mask.astype(np.float64)
        weights = weights / np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
        flat = (c * Tensor(weights[:, None, :, None])).sum(axis=2).flatten_from(1)
        view1 = F.dropout(flat, 0.2, rng, training=True)
        view2 = F.dropout(flat, 0.2, rng, training=True)
        loss = _info_nce_by_hand(interest_encoder(view1),
                                 interest_encoder(view2), cfg.temperature)
        return loss, Tensor(0.0)

    maps = module.interest_maps(c)
    pairs = sample_interest_pairs(maps, cfg.num_interest_pairs,
                                  cfg.effective_distance, rng, mask=mask,
                                  seq_len=c.shape[2])
    interest = _mean_info_nce(module, pairs,
                              lambda view, field: interest_encoder(view),
                              sequences)
    if module.fine_extractor is None:
        return interest, Tensor(0.0)
    fine_pairs = sample_feature_pairs(module.fine_extractor(maps),
                                      cfg.num_feature_pairs, rng, mask=mask,
                                      seq_len=c.shape[2], num_fields=c.shape[1])
    if cfg.field_aware_encoder:
        encode = feature_encoder
    else:
        def encode(view, field):
            return feature_encoder(view)
    return interest, _mean_info_nce(module, fine_pairs, encode, sequences)


def _same(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


SMALL = dict(seed=3, num_interest_pairs=3, num_feature_pairs=3)
VARIANTS = {
    "default": (MISSConfig(**SMALL), True),
    "/M": (MISSConfig(**SMALL).without("M"), True),
    "/F": (MISSConfig(**SMALL).without("F"), True),
    "/U": (MISSConfig(**SMALL).without("U"), True),
    "/L": (MISSConfig(**SMALL).without("L"), True),
    "sa": (MISSConfig(extractor="sa", **SMALL), True),
    "lstm": (MISSConfig(extractor="lstm", **SMALL), True),
    "plain-feature-encoder": (MISSConfig(field_aware_encoder=False, **SMALL),
                              True),
    "no-dedup": (MISSConfig(dedup_false_negatives=False, **SMALL), True),
    "no-sequences": (MISSConfig(**SMALL), False),
}


@pytest.mark.parametrize("backend", ["reference", "fused"])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_ssl_losses_equal_the_handwritten_definition(data, batch, variant,
                                                     backend):
    config, with_sequences = VARIANTS[variant]
    sequences = batch.sequences if with_sequences else None
    c_data = np.random.default_rng(11).normal(
        size=(16, data.schema.num_sequential, data.schema.max_seq_len, 8))
    module = MISSModule(data.schema, 8, config, np.random.default_rng(0))
    twin = copy.deepcopy(module)       # same weights, same ``_rng`` stream
    c, c_twin = (Tensor(c_data.copy(), requires_grad=True) for _ in range(2))

    with use_backend(backend):
        got = module.ssl_losses(c, batch.mask, sequences)
        (got[0] + got[1]).backward()
        want = _losses_by_hand(twin, c_twin, batch.mask, sequences)
        (want[0] + want[1]).backward()

    _same(got[0].data, want[0].data)
    _same(got[1].data, want[1].data)
    _same(c.grad, c_twin.grad)
    expected_grads = dict(twin.named_parameters())
    for name, param in module.named_parameters():
        if expected_grads[name].grad is None:
            assert param.grad is None, name
        else:
            _same(param.grad, expected_grads[name].grad)


# ----------------------------------------------------------------------
# (a') The one-node op against the per-pair graphs, and its edges
# ----------------------------------------------------------------------
def _views(rng, *shape):
    return [Tensor(rng.normal(size=shape), requires_grad=True)
            for _ in range(2)]


def _by_hand_over_pairs(views, temperature, masks):
    """Mean over pairs, summed left to right, of the per-pair graphs."""
    view1, view2 = (Tensor(v.data.copy(), requires_grad=True) for v in views)
    total = None
    for p in range(view1.shape[0]):
        term = _info_nce_by_hand(view1[p], view2[p], temperature,
                                 None if masks is None else masks[p])
        total = term if total is None else total + term
    return total * (1.0 / view1.shape[0]), view1, view2


@pytest.mark.parametrize("backend", ["reference", "fused"])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("pairs,batch", [(1, 6), (3, 5), (8, 16), (2, 1)])
def test_one_node_equals_the_per_pair_graphs(pairs, batch, masked, backend):
    rng = np.random.default_rng(pairs * 100 + batch)
    views = _views(rng, pairs, batch, 7)
    masks = rng.random((pairs, batch, batch)) < 0.4 if masked else None
    with use_backend(backend):
        got = info_nce(*views, 0.1, masks)
        got.backward()
        want, want1, want2 = _by_hand_over_pairs(views, 0.1, masks)
        want.backward()
    _same(got.data, want.data)
    _same(views[0].grad, want1.grad)
    _same(views[1].grad, want2.grad)


def test_a_single_pair_is_the_stack_of_one():
    rng = np.random.default_rng(0)
    flat = _views(rng, 6, 4)
    stacked = [Tensor(v.data[None], requires_grad=True) for v in flat]
    mask = rng.random((6, 6)) < 0.3
    info_nce(*flat, 0.2, mask).backward()
    loss = info_nce(*stacked, 0.2, mask[None])
    loss.backward()
    assert loss.item() == info_nce(*flat, 0.2, mask).item()
    for one, many in zip(flat, stacked):
        np.testing.assert_array_equal(one.grad, many.grad[0])


def test_a_batch_of_one_has_nothing_to_contrast():
    views = _views(np.random.default_rng(1), 3, 1, 5)
    loss = info_nce(*views, 0.1)
    loss.backward()
    assert loss.item() == 0.0
    assert not views[0].grad.any() and not views[1].grad.any()


def test_a_row_with_every_negative_masked_only_keeps_its_positive():
    views = _views(np.random.default_rng(2), 2, 4, 5)
    masks = np.zeros((2, 4, 4), dtype=bool)
    masks[:, 1, :] = True           # sample 1 of each pair: diagonal included
    loss = info_nce(*views, 0.1, masks)
    loss.backward()
    want, want1, want2 = _by_hand_over_pairs(views, 0.1, masks)
    want.backward()
    _same(loss.data, want.data)
    _same(views[0].grad, want1.grad)
    # Its own loss term is log(exp(l) / exp(l)) = 0: no pull on its anchor.
    assert not views[0].grad[:, 1].any()


def test_an_all_zero_view_row_gets_a_finite_gradient():
    # ‖x‖ = 0 meets 1 / (‖x‖ + eps) and the sqrt backward's 1e-12 clamp.
    views = _views(np.random.default_rng(3), 2, 4, 5)
    views[0].data[0, 2] = 0.0
    views[1].data[1, 0] = 0.0
    loss = info_nce(*views, 0.1)
    loss.backward()
    want, want1, want2 = _by_hand_over_pairs(views, 0.1, None)
    want.backward()
    assert np.isfinite(loss.item())
    assert np.isfinite(views[0].grad).all() and np.isfinite(views[1].grad).all()
    _same(loss.data, want.data)
    _same(views[0].grad, want1.grad)
    _same(views[1].grad, want2.grad)


def test_the_mask_is_read_never_written():
    views = _views(np.random.default_rng(4), 2, 4, 5)
    masks = np.ones((2, 4, 4), dtype=bool)
    masks.flags.writeable = False
    info_nce(*views, 0.1, masks).backward()
    assert masks.all()


def test_malformed_input_is_refused():
    rng = np.random.default_rng(5)
    z = Tensor(rng.normal(size=(2, 4, 5)))
    with pytest.raises(ValueError, match="shapes differ"):
        info_nce(z, Tensor(rng.normal(size=(2, 4, 6))), 0.1)
    with pytest.raises(ValueError, match="shapes differ"):
        info_nce(z, Tensor(rng.normal(size=(4, 5))), 0.1)
    with pytest.raises(ValueError, match="expected"):
        info_nce(Tensor(np.ones(5)), Tensor(np.ones(5)), 0.1)
    with pytest.raises(ValueError, match="expected"):
        info_nce(Tensor(np.ones((1, 2, 4, 5))), Tensor(np.ones((1, 2, 4, 5))),
                 0.1)
    for temperature in (0.0, -0.1):
        with pytest.raises(ValueError, match="temperature"):
            info_nce(z, z, temperature)
    for shape in [(4, 4), (2, 4, 5), (1, 4, 4), (2, 5, 4)]:
        with pytest.raises(ValueError, match="mask"):
            info_nce(z, z, 0.1, np.zeros(shape, dtype=bool))


# ----------------------------------------------------------------------
# (b) The wrappers: parameter order and the joint objective
# ----------------------------------------------------------------------
# Captured before the two wrappers got their shared base.  Checkpoints,
# artifacts and the distributed FlatLayout depend on this order.
DIN_PARAMETERS = [
    "base.embedder.tables.items.0.weight",
    "base.embedder.tables.items.1.weight",
    "base.embedder.tables.items.2.weight",
    "base.pooling.items.0.scorer.layers.items.0.weight",
    "base.pooling.items.0.scorer.layers.items.0.bias",
    "base.pooling.items.0.scorer.layers.items.1.weight",
    "base.pooling.items.0.scorer.layers.items.1.bias",
    "base.pooling.items.1.scorer.layers.items.0.weight",
    "base.pooling.items.1.scorer.layers.items.0.bias",
    "base.pooling.items.1.scorer.layers.items.1.weight",
    "base.pooling.items.1.scorer.layers.items.1.bias",
    "base.tower.layers.items.0.weight",
    "base.tower.layers.items.0.bias",
    "base.tower.layers.items.0.activation.alpha",
    "base.tower.layers.items.1.weight",
    "base.tower.layers.items.1.bias",
    "base.tower.layers.items.1.activation.alpha",
    "base.tower.layers.items.2.weight",
    "base.tower.layers.items.2.bias",
    "base.tower.layers.items.2.activation.alpha",
    "base.tower.layers.items.3.weight",
    "base.tower.layers.items.3.bias",
]
DIN_BUFFERS = [
    f"base.tower.layers.items.{layer}.activation.running_{stat}@buffer"
    for layer in range(3) for stat in ("mean", "var")
]
MISS_PARAMETERS = [
    "ssl.extractor.branches.items.0.weight",
    "ssl.extractor.branches.items.1.weight",
    "ssl.extractor.branches.items.2.weight",
    "ssl.fine_extractor.branches.items.0.items.0.weight",
    "ssl.fine_extractor.branches.items.0.items.1.weight",
    "ssl.fine_extractor.branches.items.1.items.0.weight",
    "ssl.fine_extractor.branches.items.1.items.1.weight",
    "ssl.fine_extractor.branches.items.2.items.0.weight",
    "ssl.fine_extractor.branches.items.2.items.1.weight",
    "ssl.interest_encoder.mlp.layers.items.0.weight",
    "ssl.interest_encoder.mlp.layers.items.0.bias",
    "ssl.interest_encoder.mlp.layers.items.1.weight",
    "ssl.interest_encoder.mlp.layers.items.1.bias",
    "ssl.feature_encoder.projections.0.weight",
    "ssl.feature_encoder.projections.0.bias",
    "ssl.feature_encoder.projections.1.weight",
    "ssl.feature_encoder.projections.1.bias",
    "ssl.feature_encoder.shared.mlp.layers.items.0.weight",
    "ssl.feature_encoder.shared.mlp.layers.items.0.bias",
    "ssl.feature_encoder.shared.mlp.layers.items.1.weight",
    "ssl.feature_encoder.shared.mlp.layers.items.1.bias",
]
BASELINE_PARAMETERS = [
    "encoder.mlp.layers.items.0.weight",
    "encoder.mlp.layers.items.0.bias",
    "encoder.mlp.layers.items.1.weight",
    "encoder.mlp.layers.items.1.bias",
    "position",
]
WRAPPERS = ["MISS", *SSL_METHODS]


def _wrap(kind, data):
    base = create_model("DIN", data.schema, seed=1)
    if kind == "MISS":
        return attach_miss(base, MISSConfig(seed=2, alpha_interest=0.5,
                                            alpha_feature=0.25))
    return attach_ssl_baseline(kind, base, alpha=0.3, seed=2)


@pytest.mark.parametrize("kind", WRAPPERS)
def test_wrapper_parameter_order_is_the_recorded_one(data, kind):
    model = _wrap(kind, data)
    own = MISS_PARAMETERS if kind == "MISS" else BASELINE_PARAMETERS
    assert [n for n, _ in model.named_parameters()] == DIN_PARAMETERS + own
    assert list(model.state_dict()) == DIN_PARAMETERS + own + DIN_BUFFERS


@pytest.mark.parametrize("kind", WRAPPERS)
def test_wrapper_objective_is_base_loss_plus_weighted_terms(data, batch, kind):
    model = _wrap(kind, data)
    twin = copy.deepcopy(model)
    got = model.training_loss(batch)

    ctr = twin.base.training_loss(batch)
    c = twin.embedder.sequence_embeddings(batch)
    if kind == "MISS":
        interest, feature = twin.ssl.ssl_losses(c, batch.mask, batch.sequences)
        want = ctr + 0.5 * interest + 0.25 * feature
        terms = {"ssl_interest": interest, "ssl_feature": feature}
    else:
        view1, view2 = twin.make_views(batch, c)
        term = info_nce(twin.encoder(view1), twin.encoder(view2),
                        twin.temperature)
        want = ctr + 0.3 * term
        terms = {"ssl": term}

    assert got.item() == want.item()
    assert model.last_loss_components == {
        "logloss": ctr.item(),
        **{name: term.item() for name, term in terms.items()}}


# ----------------------------------------------------------------------
# (c) Said once
# ----------------------------------------------------------------------
def _nodes(*relative_paths):
    for relative in relative_paths:
        for path in sorted((SRC / relative).rglob("*.py")
                           if (SRC / relative).is_dir() else [SRC / relative]):
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _calls(name, *relative_paths):
    return [node for node in _nodes(*relative_paths)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_a_level_is_spelled_out_once():
    # A second InfoNCE call site in miss.py is a second level loop, and a
    # second definition anywhere is a second InfoNCE.
    assert len(_calls("info_nce", "core/miss.py")) == 1
    definitions = [node for node in _nodes(".")
                   if isinstance(node, ast.FunctionDef)
                   and "info_nce" in node.name]
    assert [node.name for node in definitions] == ["info_nce"]
    # No backend fork is left in the level (stacked trunk forward, pooled
    # gradients: both are what every backend does), nor the per-view split.
    gone = {"batches_ssl_views", "pools_gradients", "_split_rows"}
    names = {getattr(node, field, None) for node in _nodes(".")
             for field in ("attr", "id", "name")}
    assert not gone & names
    # Encoders are driven through project()/trunk(), never told apart.
    type_checks = [ast.unparse(node)
                   for name in ("isinstance", "type")
                   for node in _calls(name, "core/miss.py")]
    assert not [check for check in type_checks if "encoder" in check.lower()]
    # One SSL wrapper base owns the de-duplicating parameter walk.
    walks = [node for node in _nodes("core/plugin.py", "ssl_baselines")
             if isinstance(node, ast.FunctionDef)
             and node.name == "named_parameters"]
    assert len(walks) == 1
