"""Tests for processing, batching, corruption, stats, and catalogs."""

import numpy as np
import pytest

from repro.data import (
    CTRDataset,
    DataLoader,
    DatasetSchema,
    FieldSpec,
    InterestWorld,
    InterestWorldConfig,
    build_ctr_data,
    compute_stats,
    downsample,
    flip_labels,
    load_dataset,
    make_config,
)


@pytest.fixture(scope="module")
def small_data():
    config = InterestWorldConfig(num_users=40, num_items=100, num_topics=8,
                                 num_categories=4, min_interactions=2, seed=3)
    return build_ctr_data(InterestWorld(config), max_seq_len=12, seed=4)


class TestSchema:
    def test_field_counts(self):
        spec = FieldSpec("user", "categorical", 10)
        schema = DatasetSchema("t", (spec,), (), max_seq_len=5)
        assert schema.num_fields == 1
        assert schema.num_features == 10

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            FieldSpec("x", "numeric", 5)

    def test_paired_with_validation(self):
        cat = (FieldSpec("user", "categorical", 5),)
        seq = (FieldSpec("item_seq", "sequential", 5),)
        with pytest.raises(IndexError):
            DatasetSchema("t", cat, seq, max_seq_len=4, paired_with=(3,))
        with pytest.raises(ValueError):
            DatasetSchema("t", cat, seq, max_seq_len=4, paired_with=(0, 0))

    def test_index_lookups(self, small_data):
        schema = small_data.schema
        assert schema.categorical[schema.categorical_index("item")].name == "item"
        assert schema.sequential[schema.sequential_index("cate_seq")].name == "cate_seq"
        with pytest.raises(KeyError):
            schema.categorical_index("nope")


class TestLeaveLastThreeSplit:
    def test_split_sizes_equal(self, small_data):
        assert len(small_data.train) == len(small_data.validation) == len(small_data.test)

    def test_one_positive_one_negative_per_user(self, small_data):
        for split in small_data.splits.values():
            assert split.labels.mean() == pytest.approx(0.5)

    def test_validation_history_extends_train_history(self, small_data):
        """Validation sees exactly one more behaviour than train per user."""
        train_lens = small_data.train.mask.sum(axis=1)[::2]   # positives
        val_lens = small_data.validation.mask.sum(axis=1)[::2]
        longer = val_lens >= train_lens
        assert longer.all()

    def test_train_positive_is_next_item_in_validation_history(self, small_data):
        """The train target (position L-2 in the paper's indexing) becomes the
        most recent history item of the validation sample."""
        matches = 0
        for i in range(0, len(small_data.train), 2):
            target = small_data.train.categorical[i, 1]
            val_seq = small_data.validation.sequences[i, 0]
            val_mask = small_data.validation.mask[i]
            last_item = val_seq[val_mask.nonzero()[0][-1]]
            matches += int(target == last_item)
        # Truncation can push the behaviour out of the window only when the
        # history overflows max_seq_len, never silently elsewhere.
        assert matches == len(small_data.train) // 2

    def test_padding_is_prefix(self, small_data):
        for split in small_data.splits.values():
            for row in split.mask:
                valid = np.flatnonzero(row)
                if valid.size:
                    assert np.all(np.diff(valid) == 1)
                    assert valid[-1] == row.size - 1

    def test_padded_positions_are_zero_ids(self, small_data):
        seqs = small_data.train.sequences
        mask = small_data.train.mask
        assert np.all(seqs[:, :, :][~np.repeat(mask[:, None, :], seqs.shape[1], 1)] == 0)

    def test_ids_within_vocab(self, small_data):
        schema = small_data.schema
        for i, spec in enumerate(schema.categorical):
            column = small_data.train.categorical[:, i]
            assert column.min() >= 1  # candidates are never padding
            assert column.max() < spec.vocab_size

    def test_negatives_not_in_user_history(self, small_data):
        """Sampled negatives must be items the user never interacted with."""
        data = small_data
        for i in range(1, len(data.test), 2):  # odd rows are negatives
            negative = data.test.categorical[i, 1]
            history = set(data.test.sequences[i, 0][data.test.mask[i]].tolist())
            assert negative not in history


class TestStats:
    def test_table3_invariants(self, small_data):
        stats = compute_stats(small_data)
        assert stats.num_instances == 2 * stats.num_users
        assert stats.num_fields == small_data.schema.num_fields
        assert stats.num_features == small_data.schema.num_features


class TestBatching:
    def test_loader_covers_every_sample(self, small_data):
        loader = DataLoader(small_data.train, batch_size=16, shuffle=True,
                            rng=np.random.default_rng(0))
        seen = sum(len(batch) for batch in loader)
        assert seen == len(small_data.train)

    def test_no_shuffle_is_ordered(self, small_data):
        loader = DataLoader(small_data.train, batch_size=8, shuffle=False)
        first = next(iter(loader))
        np.testing.assert_array_equal(first.labels, small_data.train.labels[:8])

    def test_len(self, small_data):
        n = len(small_data.train)
        assert len(DataLoader(small_data.train, batch_size=n)) == 1
        assert len(DataLoader(small_data.train, batch_size=n - 1)) == 2

    def test_invalid_batch_size(self, small_data):
        with pytest.raises(ValueError):
            DataLoader(small_data.train, batch_size=0)

    def test_dataset_shape_validation(self, small_data):
        with pytest.raises(ValueError):
            CTRDataset(schema=small_data.schema,
                       categorical=small_data.train.categorical[:, :1],
                       sequences=small_data.train.sequences,
                       mask=small_data.train.mask,
                       labels=small_data.train.labels)


class TestCorruption:
    def test_downsample_size(self, small_data):
        out = downsample(small_data.train, 0.5, seed=0)
        assert len(out) == round(0.5 * len(small_data.train))

    def test_downsample_full_rate_identity(self, small_data):
        assert downsample(small_data.train, 1.0) is small_data.train

    def test_downsample_invalid_rate(self, small_data):
        with pytest.raises(ValueError):
            downsample(small_data.train, 0.0)
        with pytest.raises(ValueError):
            downsample(small_data.train, 1.5)

    def test_flip_labels_rate(self, small_data):
        out = flip_labels(small_data.train, 0.5, seed=0)
        flipped = (out.labels != small_data.train.labels).mean()
        assert 0.3 < flipped < 0.7

    def test_flip_zero_identity(self, small_data):
        out = flip_labels(small_data.train, 0.0)
        np.testing.assert_array_equal(out.labels, small_data.train.labels)

    def test_flip_does_not_mutate_original(self, small_data):
        before = small_data.train.labels.copy()
        flip_labels(small_data.train, 0.3, seed=1)
        np.testing.assert_array_equal(small_data.train.labels, before)

    def test_flip_invalid_rate(self, small_data):
        with pytest.raises(ValueError):
            flip_labels(small_data.train, -0.1)


class TestCatalogs:
    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            make_config("movielens")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            make_config("amazon-cds", scale=0)

    def test_presets_have_paper_field_counts(self):
        for name, fields in (("amazon-cds", 5), ("amazon-books", 5),
                             ("alipay", 7)):
            data = load_dataset(name, scale=0.08, seed=0)
            assert data.schema.num_fields == fields

    def test_alipay_has_seller_sequence(self):
        data = load_dataset("alipay", scale=0.08, seed=0)
        assert data.schema.num_sequential == 3
        assert data.schema.sequential_index("seller_seq") == 2
