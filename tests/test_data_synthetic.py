"""Tests for the InterestWorld simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import InterestWorld, InterestWorldConfig


def tiny_config(**overrides) -> InterestWorldConfig:
    defaults = dict(num_users=30, num_items=80, num_topics=8, num_categories=4,
                    seed=0)
    defaults.update(overrides)
    return InterestWorldConfig(**defaults)


class TestConfigValidation:
    def test_rejects_more_topics_than_items(self):
        with pytest.raises(ValueError):
            InterestWorldConfig(num_items=5, num_topics=10)

    def test_rejects_categories_finer_than_topics(self):
        with pytest.raises(ValueError):
            tiny_config(num_categories=20)

    def test_rejects_bad_interest_range(self):
        with pytest.raises(ValueError):
            tiny_config(interests_per_user=(5, 3))
        with pytest.raises(ValueError):
            tiny_config(interests_per_user=(0, 3))

    def test_rejects_too_short_histories(self):
        with pytest.raises(ValueError):
            tiny_config(history_length=(2, 3))


class TestCatalogue:
    def test_every_topic_owns_an_item(self):
        world = InterestWorld(tiny_config())
        owned = set(world.item_topic.tolist())
        assert owned == set(range(world.config.num_topics))

    def test_categories_mostly_track_topics(self):
        config = tiny_config(num_items=400, category_noise=0.0)
        world = InterestWorld(config)
        # With zero noise, all items of a topic share one category.
        for topic in range(config.num_topics):
            cats = world.item_category[world.item_topic == topic]
            assert len(set(cats.tolist())) == 1

    def test_category_noise_perturbs(self):
        clean = InterestWorld(tiny_config(num_items=400, category_noise=0.0))
        noisy = InterestWorld(tiny_config(num_items=400, category_noise=0.5))
        disagreement = (clean.item_category != noisy.item_category).mean()
        assert disagreement > 0.1

    def test_sellers_only_for_alipay_style(self):
        assert InterestWorld(tiny_config()).item_seller is None
        world = InterestWorld(tiny_config(num_sellers=5))
        assert world.item_seller is not None
        assert world.item_seller.min() >= 0
        assert world.item_seller.max() < 5

    def test_popularity_exponent_skews_draws(self):
        flat = InterestWorld(tiny_config(popularity_exponent=0.0))
        skewed = InterestWorld(tiny_config(popularity_exponent=2.0))
        flat_top = max(w.max() for w in flat.topic_weights)
        skewed_top = max(w.max() for w in skewed.topic_weights)
        assert skewed_top > flat_top


class TestUsers:
    def test_history_lengths_in_range(self):
        config = tiny_config(history_length=(10, 15))
        world = InterestWorld(config)
        for user in world.users:
            assert 10 <= user.items.size <= 15
            assert user.items.size == user.topics.size

    def test_interest_counts_in_range(self):
        config = tiny_config(interests_per_user=(2, 4))
        world = InterestWorld(config)
        for user in world.users:
            assert 2 <= user.interest_topics.size <= 4
            assert np.isclose(user.affinities.sum(), 1.0)

    def test_behaviours_come_from_user_topics(self):
        config = tiny_config(missclick_rate=0.0)
        world = InterestWorld(config)
        for user in world.users:
            for topic in user.topics:
                assert topic in user.interest_topics

    def test_missclicks_marked(self):
        config = tiny_config(missclick_rate=0.5, num_users=50)
        world = InterestWorld(config)
        noise = np.concatenate([u.topics for u in world.users]) == -1
        assert 0.3 < noise.mean() < 0.7

    def test_closeness_assumption_holds(self):
        """Adjacent behaviours share a topic far more often than chance."""
        config = tiny_config(num_users=100, missclick_rate=0.0,
                             interests_per_user=(3, 5))
        world = InterestWorld(config)
        same, total = 0, 0
        for user in world.users:
            same += int((user.topics[1:] == user.topics[:-1]).sum())
            total += user.topics.size - 1
        adjacent_rate = same / total
        assert adjacent_rate > 0.45  # >> 1/num_interests ≈ 0.25

    def test_interleaving_produces_recurrence(self):
        """With heavy interleaving, interests recur after interruptions."""
        config = tiny_config(num_users=80, interleave_prob=0.6,
                             missclick_rate=0.0, interests_per_user=(3, 5),
                             history_length=(20, 30))
        world = InterestWorld(config)
        recur, total = 0, 0
        for user in world.users:
            topics = user.topics
            for i in range(2, topics.size):
                if topics[i] != topics[i - 1]:
                    total += 1
                    if topics[i] in topics[max(0, i - 8):i - 1]:
                        recur += 1
        assert total > 0
        assert recur / total > 0.5

    def test_reproducible_from_seed(self):
        a = InterestWorld(tiny_config(seed=7))
        b = InterestWorld(tiny_config(seed=7))
        for ua, ub in zip(a.users, b.users):
            np.testing.assert_array_equal(ua.items, ub.items)

    def test_different_seeds_differ(self):
        a = InterestWorld(tiny_config(seed=1))
        b = InterestWorld(tiny_config(seed=2))
        assert any(not np.array_equal(ua.items, ub.items)
                   for ua, ub in zip(a.users, b.users))


class TestProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_any_seed_builds_valid_world(self, seed):
        world = InterestWorld(tiny_config(seed=seed))
        assert len(world.users) == 30
        for user in world.users:
            assert user.items.min() >= 0
            assert user.items.max() < 80
