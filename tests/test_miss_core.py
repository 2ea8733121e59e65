"""Tests for the MISS framework: extractors, augmentation, losses, plugin."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FineGrainedExtractor,
    MISSConfig,
    MISSModule,
    MultiInterestExtractor,
    SimilarityTracker,
    attach_miss,
    info_nce,
    sample_feature_pairs,
    sample_interest_pairs,
    stack_views,
)
from repro.data import InterestWorld, InterestWorldConfig, build_ctr_data
from repro.models import create_model
from repro.nn import Tensor
from repro.training import TrainConfig, Trainer

RNG = np.random.default_rng(4)


@pytest.fixture(scope="module")
def data():
    config = InterestWorldConfig(num_users=30, num_items=80, num_topics=6,
                                 num_categories=3, min_interactions=2, seed=5)
    return build_ctr_data(InterestWorld(config), max_seq_len=10, seed=6)


@pytest.fixture(scope="module")
def batch(data):
    return data.train.batch(np.arange(16))


class TestMISSConfig:
    def test_defaults_match_paper(self):
        config = MISSConfig()
        assert config.max_kernel_width == 3        # M tuned in {1..4}
        assert config.max_kernel_height == 2       # N tuned in {1, 2}
        assert config.max_distance == 3            # H tuned in {1..4}
        assert config.temperature == pytest.approx(0.1)
        assert config.interest_encoder_sizes == (20, 20)
        assert config.feature_encoder_sizes == (10, 10)

    def test_without_builds_variants(self):
        config = MISSConfig().without("F", "U")
        assert not config.use_fine_grained
        assert not config.use_union_wise
        assert config.variant_name == "MISS/F/U"
        assert config.effective_width == 1

    def test_without_unknown_practice(self):
        with pytest.raises(KeyError):
            MISSConfig().without("X")

    def test_long_range_ablation_fixes_distance(self):
        assert MISSConfig().without("L").effective_distance == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MISSConfig(temperature=0.0)
        with pytest.raises(ValueError):
            MISSConfig(extractor="transformer")
        with pytest.raises(ValueError):
            MISSConfig(num_interest_pairs=0)


class TestExtractorCounts:
    def test_interest_count_formula(self):
        """|T| = Σ_m (L - m + 1), Eq. 20."""
        extractor = MultiInterestExtractor(3, np.random.default_rng(0))
        assert extractor.num_interests(seq_len=10) == 10 + 9 + 8
        c = Tensor(RNG.normal(size=(2, 2, 10, 4)))
        maps = extractor.sources(c)
        total = sum(g.shape[2] for g in maps)
        assert total == extractor.num_interests(10)

    def test_omega_formula(self):
        """Ω = Σ_n (J - n + 1), Eq. 23."""
        fine = FineGrainedExtractor(1, 2, np.random.default_rng(0))
        assert fine.omega(num_fields=3) == 3 + 2

    def test_branches_skip_too_wide_kernels(self):
        extractor = MultiInterestExtractor(4, np.random.default_rng(0))
        c = Tensor(RNG.normal(size=(1, 2, 3, 4)))  # L=3 < max width 4
        maps = extractor.sources(c)
        assert len(maps) == 3

    def test_fine_maps_shapes(self):
        extractor = MultiInterestExtractor(2, np.random.default_rng(0))
        fine = FineGrainedExtractor(2, 2, np.random.default_rng(1))
        c = Tensor(RNG.normal(size=(2, 3, 8, 4)))
        fine_maps = fine.sources(extractor.sources(c))
        shapes = {g.shape for g in fine_maps}
        # m in {1,2} x n in {1,2}: (J-n+1, L-m+1) combinations.
        assert (2, 3, 8, 4) in shapes and (2, 2, 7, 4) in shapes


class TestAugmentation:
    def _maps(self, batch_size=6, num_fields=2, length=8, dim=3):
        extractor = MultiInterestExtractor(3, np.random.default_rng(0))
        c = Tensor(RNG.normal(size=(batch_size, num_fields, length, dim)))
        return extractor.sources(c), length

    def test_interest_pair_shapes(self):
        maps, length = self._maps()
        samples = sample_interest_pairs(maps, 5, 3, np.random.default_rng(0),
                                        seq_len=length)
        assert len(samples) == 5
        assert all(s.source in maps for s in samples)
        # every first view, then every second: (2P, B, J·K)
        assert stack_views(samples, whole_rows=True).shape == (10, 6, 2 * 3)

    def test_interest_distance_bounds(self):
        maps, length = self._maps()
        for _ in range(20):
            samples = sample_interest_pairs(maps, 3, 2, np.random.default_rng(0),
                                            seq_len=length)
            for s in samples:
                distances = s.window2.cols - s.window1.cols
                assert np.all(distances >= 0)
                assert np.all(distances <= 2)

    def test_mask_confines_positions(self):
        maps, length = self._maps()
        mask = np.zeros((6, length), dtype=bool)
        mask[:, 4:] = True  # only the last 4 positions are valid
        samples = sample_interest_pairs(maps, 8, 3, np.random.default_rng(1),
                                        mask=mask)
        for s in samples:
            assert np.all(s.window1.cols >= 4)

    def test_feature_pair_shapes_and_rows(self):
        maps, length = self._maps(num_fields=3)
        fine = FineGrainedExtractor(3, 2, np.random.default_rng(1))
        fine_maps = fine.sources(maps)
        samples = sample_feature_pairs(fine_maps, 6, np.random.default_rng(2),
                                       seq_len=length, num_fields=3)
        assert stack_views(samples, whole_rows=False).shape == (12, 6, 3)
        for s in samples:
            assert s.source in fine_maps
            if s.window1.height == 1:
                # distinct fields when possible
                assert s.window1.row != s.window2.row

    def test_invalid_arguments(self):
        maps, length = self._maps()
        with pytest.raises(ValueError):
            sample_interest_pairs(maps, 0, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_interest_pairs([], 2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_feature_pairs([], 2, np.random.default_rng(0))


class TestInfoNCE:
    def test_identical_views_near_zero_loss(self):
        z = Tensor(RNG.normal(size=(16, 8)))
        loss = info_nce(z, z, temperature=0.05)
        assert loss.item() < 0.1

    def test_random_views_near_log_batch(self):
        z1 = Tensor(RNG.normal(size=(64, 8)))
        z2 = Tensor(RNG.normal(size=(64, 8)))
        loss = info_nce(z1, z2, temperature=10.0)  # washed out => uniform
        assert loss.item() == pytest.approx(np.log(64), rel=0.05)

    def test_loss_decreases_with_alignment(self):
        anchor = RNG.normal(size=(16, 8))
        noisy = anchor + RNG.normal(size=(16, 8))
        aligned = info_nce(Tensor(anchor), Tensor(anchor), 0.1).item()
        misaligned = info_nce(Tensor(anchor), Tensor(noisy), 0.1).item()
        assert aligned < misaligned

    def test_gradient_flows(self):
        z1 = Tensor(RNG.normal(size=(8, 4)), requires_grad=True)
        z2 = Tensor(RNG.normal(size=(8, 4)), requires_grad=True)
        info_nce(z1, z2, 0.1).backward()
        assert z1.grad is not None and z2.grad is not None

    def test_false_negative_mask_removes_terms(self):
        """Masking a colliding negative must lower the loss."""
        z = RNG.normal(size=(8, 4))
        z[1] = z[0]  # sample 1 duplicates sample 0 → false negative
        plain = info_nce(Tensor(z), Tensor(z), 0.1).item()
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        masked = info_nce(Tensor(z), Tensor(z), 0.1, false_negatives=mask).item()
        assert masked < plain

    def test_diagonal_never_dropped(self):
        z = Tensor(RNG.normal(size=(4, 4)))
        mask = np.ones((4, 4), dtype=bool)  # tries to drop everything
        loss = info_nce(z, z, 0.1, false_negatives=mask)
        assert np.isfinite(loss.item())
        assert loss.item() < 0.1  # only the positive remains

    def test_validation(self):
        z = Tensor(RNG.normal(size=(4, 4)))
        with pytest.raises(ValueError):
            info_nce(z, Tensor(RNG.normal(size=(4, 5))), 0.1)
        with pytest.raises(ValueError):
            info_nce(z, z, 0.0)
        with pytest.raises(ValueError):
            info_nce(z, z, 0.1, false_negatives=np.zeros((3, 3), dtype=bool))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 12), st.floats(0.05, 2.0))
    def test_loss_bounded_by_log_batch(self, batch_size, temperature):
        rng = np.random.default_rng(batch_size)
        z1 = Tensor(rng.normal(size=(batch_size, 6)))
        loss = info_nce(z1, z1, temperature)
        assert 0.0 <= loss.item() <= np.log(batch_size) + 1e-6


class TestMISSModule:
    def test_ssl_losses_finite(self, data, batch):
        module = MISSModule(data.schema, 8, MISSConfig(seed=0),
                            np.random.default_rng(0))
        from repro.models import FeatureEmbedder
        emb = FeatureEmbedder(data.schema, 8, np.random.default_rng(1))
        c = emb.sequence_embeddings(batch)
        li, lf = module.ssl_losses(c, batch.mask, batch.sequences)
        assert np.isfinite(li.item()) and np.isfinite(lf.item())
        assert lf.item() != 0.0

    def test_fine_grained_ablation_zeroes_feature_loss(self, data, batch):
        module = MISSModule(data.schema, 8, MISSConfig(seed=0).without("F"),
                            np.random.default_rng(0))
        from repro.models import FeatureEmbedder
        emb = FeatureEmbedder(data.schema, 8, np.random.default_rng(1))
        _, lf = module.ssl_losses(emb.sequence_embeddings(batch), batch.mask)
        assert lf.item() == 0.0

    def test_sample_level_variant_runs(self, data, batch):
        module = MISSModule(data.schema, 8,
                            MISSConfig(seed=0).without("M", "F", "U", "L"),
                            np.random.default_rng(0))
        from repro.models import FeatureEmbedder
        emb = FeatureEmbedder(data.schema, 8, np.random.default_rng(1))
        li, lf = module.ssl_losses(emb.sequence_embeddings(batch), batch.mask)
        assert np.isfinite(li.item())
        assert lf.item() == 0.0

    @pytest.mark.parametrize("extractor", ["sa", "lstm"])
    def test_alternative_extractors(self, data, batch, extractor):
        module = MISSModule(data.schema, 8, MISSConfig(seed=0, extractor=extractor),
                            np.random.default_rng(0))
        from repro.models import FeatureEmbedder
        emb = FeatureEmbedder(data.schema, 8, np.random.default_rng(1))
        li, _ = module.ssl_losses(emb.sequence_embeddings(batch), batch.mask)
        assert np.isfinite(li.item())

    def test_pair_similarity_in_range(self, data, batch):
        module = MISSModule(data.schema, 8, MISSConfig(seed=0),
                            np.random.default_rng(0))
        from repro.models import FeatureEmbedder
        emb = FeatureEmbedder(data.schema, 8, np.random.default_rng(1))
        sim = module.pair_similarity(emb.sequence_embeddings(batch),
                                     np.random.default_rng(0), mask=batch.mask)
        assert -1.0 <= sim <= 1.0


class TestPlugin:
    def test_prediction_delegates_to_base(self, data, batch):
        base = create_model("DIN", data.schema, seed=7)
        model = attach_miss(base, MISSConfig(seed=0))
        base.eval()
        model.eval()
        np.testing.assert_allclose(model.predict_logits(batch).data,
                                   base.predict_logits(batch).data)

    def test_training_loss_adds_ssl(self, data, batch):
        base = create_model("DIN", data.schema, seed=7)
        model = attach_miss(base, MISSConfig(seed=0))
        total = model.training_loss(batch).item()
        ctr = model.ctr_loss(batch).item()
        assert total > ctr  # InfoNCE terms are positive

    def test_no_duplicate_parameters(self, data):
        base = create_model("DIN", data.schema, seed=7)
        model = attach_miss(base, MISSConfig(seed=0))
        names = [n for n, _ in model.named_parameters()]
        ids = [id(p) for _, p in model.named_parameters()]
        assert len(ids) == len(set(ids))
        assert len(names) == len(set(names))

    def test_state_dict_roundtrip(self, data, batch):
        base = create_model("DIN", data.schema, seed=7)
        model = attach_miss(base, MISSConfig(seed=0))
        state = model.state_dict()
        other = attach_miss(create_model("DIN", data.schema, seed=8),
                            MISSConfig(seed=0))
        other.load_state_dict(state)
        model.eval()
        other.eval()
        np.testing.assert_allclose(other.predict_logits(batch).data,
                                   model.predict_logits(batch).data)

    def test_ssl_gradient_reaches_embeddings(self, data, batch):
        base = create_model("DIN", data.schema, seed=7)
        model = attach_miss(base, MISSConfig(seed=0))
        model.ssl_loss(batch).backward()
        item_table = model.embedder.tables[data.schema.categorical_index("item")]
        assert item_table.weight.grad is not None
        assert np.abs(item_table.weight.grad).sum() > 0

    def test_similarity_tracker(self, data, batch):
        base = create_model("DIN", data.schema, seed=7)
        model = attach_miss(base, MISSConfig(seed=0))
        tracker = SimilarityTracker(every=1)
        tracker(model, batch, step=1)
        assert len(tracker.similarities) == 1
        with pytest.raises(TypeError):
            tracker(base, batch, step=2)

    def test_tracker_does_not_change_the_run_it_observes(self, data):
        # The probe pairs come from the tracker's own generator, never from
        # the module's training stream: the same losses and parameters bit
        # for bit with and without it.
        def fit(observers):
            model = attach_miss(create_model("DIN", data.schema, seed=7),
                                MISSConfig(seed=0))
            config = TrainConfig(epochs=2, batch_size=16, patience=5, seed=0)
            result = Trainer(config).fit(model, data.train, data.validation,
                                         observers=observers)
            digest = hashlib.sha256()
            for name, param in model.named_parameters():
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(param.data).tobytes())
            return [float(v).hex() for v in result.train_losses], digest.digest()

        tracker = SimilarityTracker(every=1)
        assert fit([tracker]) == fit([])
        assert len(tracker.similarities) > 1
        assert tracker.rng is not None

    def test_tracker_respects_every(self, data, batch):
        base = create_model("DIN", data.schema, seed=7)
        model = attach_miss(base, MISSConfig(seed=0))
        tracker = SimilarityTracker(every=2)
        for step in range(1, 5):
            tracker(model, batch, step)
        assert tracker.steps == [2, 4]

    def test_smoothed_window(self):
        tracker = SimilarityTracker()
        tracker.similarities = [0.0, 1.0, 0.0, 1.0]
        smoothed = tracker.smoothed(window=2)
        np.testing.assert_allclose(smoothed, [0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            tracker.smoothed(window=0)
