"""Tests for the CTR model zoo."""

import numpy as np
import pytest

from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import (
    CIN,
    MODEL_NAMES,
    CrossNetwork,
    CrossNetworkMatrix,
    FeatureEmbedder,
    build_field_graph,
    create_model,
    fm_second_order,
    model_class,
)
from repro.nn import Tensor


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, num_sellers=5,
                                 min_interactions=2, seed=5)
    return build_ctr_data(InterestWorld(config), max_seq_len=10, seed=6)


@pytest.fixture(scope="module")
def batch(data):
    return data.train.batch(np.arange(16))


class TestFeatureEmbedder:
    def test_shapes(self, data, batch):
        emb = FeatureEmbedder(data.schema, 8, np.random.default_rng(0))
        assert emb.categorical_embeddings(batch).shape == (16, data.schema.num_categorical, 8)
        c = emb.sequence_embeddings(batch)
        assert c.shape == (16, data.schema.num_sequential, 10, 8)
        assert emb.field_vectors(batch).shape == (16, data.schema.num_fields, 8)

    def test_sequences_share_candidate_tables(self, data, batch):
        """Item history and candidate item must share one embedding table."""
        emb = FeatureEmbedder(data.schema, 4, np.random.default_rng(0))
        item_index = data.schema.categorical_index("item")
        candidate = emb.candidate_embedding(batch, "item")
        table = emb.tables[item_index].weight.data
        np.testing.assert_allclose(candidate.data,
                                   table[batch.categorical[:, item_index]])
        seq = emb.sequence_field_embedding(batch, 0)
        np.testing.assert_allclose(seq.data, table[batch.sequences[:, 0, :]])

    def test_masked_mean_pool_ignores_padding(self, data):
        emb = FeatureEmbedder(data.schema, 4, np.random.default_rng(0))
        seq = Tensor(np.random.default_rng(1).normal(size=(2, 5, 4)))
        mask = np.array([[False, False, True, True, True]] * 2)
        pooled = emb.masked_mean_pool(seq, mask)
        np.testing.assert_allclose(pooled.data, seq.data[:, 2:, :].mean(axis=1))

    def test_fully_padded_row_pools_to_zero(self, data):
        emb = FeatureEmbedder(data.schema, 4, np.random.default_rng(0))
        seq = Tensor(np.ones((1, 3, 4)))
        pooled = emb.masked_mean_pool(seq, np.zeros((1, 3), dtype=bool))
        np.testing.assert_allclose(pooled.data, np.zeros((1, 4)))


class TestAllModels:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_forward_backward(self, data, batch, name):
        model = create_model(name, data.schema, seed=2)
        logits = model.predict_logits(batch)
        assert logits.shape == (16,)
        loss = model.training_loss(batch)
        assert np.isfinite(loss.item())
        loss.backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing, f"{name}: no gradient for {missing}"

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_predict_proba_bounds(self, data, batch, name):
        model = create_model(name, data.schema, seed=2)
        probs = model.predict_proba(batch)
        assert probs.shape == (16,)
        assert np.all(probs > 0) and np.all(probs < 1)

    @pytest.mark.parametrize("name", ["DIN", "DeepFM", "FiGNN"])
    def test_same_seed_same_model(self, data, batch, name):
        a = create_model(name, data.schema, seed=9)
        b = create_model(name, data.schema, seed=9)
        a.eval()
        b.eval()
        np.testing.assert_allclose(a.predict_logits(batch).data,
                                   b.predict_logits(batch).data)

    def test_unknown_model(self, data):
        with pytest.raises(KeyError):
            create_model("BERT4Rec", data.schema)

    def test_registry_is_one_ordered_table(self, data):
        # CLI ``choices`` and the parser dump depend on this order.
        assert MODEL_NAMES == (
            "LR", "FM", "DeepFM", "IPNN", "DCN", "DCN-M", "xDeepFM", "DIN",
            "DIEN", "SIM(soft)", "DMR", "AutoInt+", "FiGNN")
        for name in MODEL_NAMES:
            assert type(create_model(name, data.schema)) is model_class(name)


class TestComponents:
    def test_fm_second_order_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        fields = rng.normal(size=(4, 5, 3))
        expected = np.zeros(4)
        for i in range(5):
            for j in range(i + 1, 5):
                expected += (fields[:, i, :] * fields[:, j, :]).sum(axis=1)
        got = fm_second_order(Tensor(fields)).data
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_cross_network_identity_at_zero_weights(self):
        net = CrossNetwork(6, 2, np.random.default_rng(0))
        for w, b in zip(net.weights, net.biases):
            w.data[:] = 0.0
            b.data[:] = 0.0
        x = Tensor(np.random.default_rng(1).normal(size=(3, 6)))
        np.testing.assert_allclose(net(x).data, x.data)

    def test_cross_network_matrix_shape(self):
        net = CrossNetworkMatrix(6, 3, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(3, 6)))
        assert net(x).shape == (3, 6)

    def test_cross_network_requires_layers(self):
        with pytest.raises(ValueError):
            CrossNetwork(4, 0, np.random.default_rng(0))

    def test_cin_output_width(self):
        cin = CIN(5, (6, 4), np.random.default_rng(0))
        fields = Tensor(np.random.default_rng(1).normal(size=(3, 5, 7)))
        out = cin(fields)
        assert out.shape == (3, 10)
        assert cin.out_features == 10

    def test_cin_requires_layers(self):
        with pytest.raises(ValueError):
            CIN(4, (), np.random.default_rng(0))

    def test_field_graph_is_complete_digraph(self):
        graph = build_field_graph(5)
        assert graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 5 * 4
        assert not any(graph.has_edge(i, i) for i in range(5))


class TestDIEN:
    def test_auxiliary_loss_finite_and_positive(self, data, batch):
        model = create_model("DIEN", data.schema, seed=3)
        aux = model.auxiliary_loss(batch)
        assert np.isfinite(aux.item())
        assert aux.item() > 0

    def test_training_loss_includes_auxiliary(self, data, batch):
        model = create_model("DIEN", data.schema, seed=3)
        main_only = create_model("DIEN", data.schema, seed=3, aux_weight=0.0)
        assert model.training_loss(batch).item() != pytest.approx(
            main_only.training_loss(batch).item())


class TestSIM:
    def test_retrieval_mask_selects_topk(self, data, batch):
        model = create_model("SIM(soft)", data.schema, seed=3, top_k=3)
        sequence = model.embedder.sequence_field_embedding(batch, 0)
        candidate = model.embedder.candidate_embedding(batch, "item")
        retrieved = model._retrieve_mask(sequence, candidate, batch.mask)
        assert retrieved.shape == batch.mask.shape
        assert np.all(retrieved.sum(axis=1) <= 3)
        assert np.all(retrieved <= batch.mask)

    def test_invalid_topk(self, data):
        with pytest.raises(ValueError):
            create_model("SIM(soft)", data.schema, top_k=0)
