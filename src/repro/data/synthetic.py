"""InterestWorld: a latent multi-interest behaviour simulator.

The public Amazon/Alipay datasets are unreachable offline, so this module
implements the closest synthetic equivalent whose generative process contains
exactly the structure MISS exploits (see DESIGN.md §2):

* **Latent interest topics.** The item universe is partitioned into topics;
  each item carries a category (a noisy indicator of its topic), a price band,
  and — in the Alipay preset — a seller.
* **Multi-interest users.** Every user samples 2–6 topics with Dirichlet
  affinities; long-time-span presets (Amazon) draw more topics per user than
  the short-span preset (Alipay), mirroring the paper's §VI-B observation that
  more diverse interests amplify MISS's advantage.
* **Closeness assumption.** Behaviours are emitted in interest *sessions*
  (geometric length), so same-interest behaviours tend to be adjacent on the
  time line yet different interests interleave — precisely the structure the
  horizontal convolutions and the distance-h augmentation rely on.
* **Label noise.** A configurable fraction of behaviours are miss-clicks on
  random items, and labels come from a noisy affinity threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["InterestWorldConfig", "UserHistory", "InterestWorld"]


@dataclass(frozen=True)
class InterestWorldConfig:
    """Knobs of the generative process.

    The defaults are the Amazon-like regime; :mod:`repro.data.catalogs`
    derives the three named presets from this.
    """

    name: str = "interest-world"
    num_users: int = 800
    num_items: int = 600
    num_topics: int = 24
    num_categories: int = 12
    num_sellers: int = 0            # > 0 enables the seller field (Alipay)
    interests_per_user: tuple[int, int] = (2, 6)
    history_length: tuple[int, int] = (12, 36)
    session_mean_length: float = 3.0
    # Interest interleaving (paper Fig. 2): at a session boundary the user
    # returns to the previous-but-one interest with ``interleave_prob``
    # (A B A B ... patterns → long-range same-interest dependencies), stays
    # on the same interest with ``continue_prob``, and otherwise samples a
    # fresh interest by affinity.
    interleave_prob: float = 0.4
    continue_prob: float = 0.15
    missclick_rate: float = 0.05
    popularity_exponent: float = 1.0  # Zipf exponent of within-topic popularity
    category_noise: float = 0.1     # prob. an item's category is off-topic
    min_interactions: int = 5       # paper's frequency filter threshold
    seed: int = 0

    def __post_init__(self):
        if self.num_topics > self.num_items:
            raise ValueError("need at least one item per topic")
        if self.num_categories > self.num_topics:
            raise ValueError("categories are coarser than topics by design")
        lo, hi = self.interests_per_user
        if not 1 <= lo <= hi <= self.num_topics:
            raise ValueError(f"invalid interests_per_user range ({lo}, {hi})")
        lo, hi = self.history_length
        if not 4 <= lo <= hi:
            raise ValueError("history_length must allow the leave-last-3 split")


@dataclass
class UserHistory:
    """One user's chronologically ordered interactions.

    Attributes:
        user_id: Raw user id (0-based, before vocabulary remapping).
        items: Interacted item ids, oldest first.
        topics: The latent topic that generated each behaviour (diagnostics
            only — models never see this).
        interest_topics: The user's sampled interest set.
        affinities: Dirichlet weights over ``interest_topics``.
    """

    user_id: int
    items: np.ndarray
    topics: np.ndarray
    interest_topics: np.ndarray
    affinities: np.ndarray


class InterestWorld:
    """A sampled world: item catalogue + per-user behaviour histories."""

    def __init__(self, config: InterestWorldConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self._rng = rng
        self._build_catalogue(rng)
        self._build_users(rng)

    # ------------------------------------------------------------------
    # Catalogue
    # ------------------------------------------------------------------
    def _build_catalogue(self, rng: np.random.Generator) -> None:
        cfg = self.config
        # Partition items across topics, then give each topic a Zipf
        # popularity profile so that frequency filtering has bite.
        self.item_topic = rng.integers(0, cfg.num_topics, size=cfg.num_items)
        # Guarantee every topic owns at least one item.
        for topic in range(cfg.num_topics):
            if not np.any(self.item_topic == topic):
                self.item_topic[rng.integers(cfg.num_items)] = topic
        # Topic -> category mapping is many-to-one (categories are coarse).
        topic_category = rng.integers(0, cfg.num_categories, size=cfg.num_topics)
        self.item_category = topic_category[self.item_topic].copy()
        noisy = rng.random(cfg.num_items) < cfg.category_noise
        self.item_category[noisy] = rng.integers(0, cfg.num_categories, size=noisy.sum())
        if cfg.num_sellers > 0:
            # Sellers specialise: each seller leans toward one topic.
            seller_topic = rng.integers(0, cfg.num_topics, size=cfg.num_sellers)
            self.item_seller = np.empty(cfg.num_items, dtype=np.int64)
            for i in range(cfg.num_items):
                matching = np.flatnonzero(seller_topic == self.item_topic[i])
                if matching.size and rng.random() < 0.8:
                    self.item_seller[i] = rng.choice(matching)
                else:
                    self.item_seller[i] = rng.integers(cfg.num_sellers)
        else:
            self.item_seller = None
        # Per-topic item lists with within-topic popularity weights.
        self.topic_items: list[np.ndarray] = []
        self.topic_weights: list[np.ndarray] = []
        for topic in range(cfg.num_topics):
            items = np.flatnonzero(self.item_topic == topic)
            ranks = np.arange(1, items.size + 1, dtype=np.float64)
            weights = ranks ** -cfg.popularity_exponent  # Zipf popularity
            self.topic_items.append(items)
            self.topic_weights.append(weights / weights.sum())

    # ------------------------------------------------------------------
    # Users
    # ------------------------------------------------------------------
    def _sample_history(self, rng: np.random.Generator, length: int,
                        interest_topics: np.ndarray, affinities: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        items = np.empty(length, dtype=np.int64)
        topics = np.empty(length, dtype=np.int64)
        position = 0
        previous_topic: int | None = None
        older_topic: int | None = None
        while position < length:
            draw = rng.random()
            if older_topic is not None and draw < cfg.interleave_prob:
                topic = older_topic  # return to the interleaved interest
            elif previous_topic is not None and draw < (cfg.interleave_prob
                                                        + cfg.continue_prob):
                topic = previous_topic
            else:
                topic = rng.choice(interest_topics, p=affinities)
            if topic != previous_topic:
                older_topic = previous_topic
            previous_topic = topic
            session = 1 + rng.geometric(1.0 / cfg.session_mean_length)
            session = min(session, length - position)
            pool = self.topic_items[topic]
            weights = self.topic_weights[topic]
            for _ in range(session):
                if rng.random() < cfg.missclick_rate:
                    items[position] = rng.integers(cfg.num_items)
                    topics[position] = -1  # noise marker
                else:
                    items[position] = rng.choice(pool, p=weights)
                    topics[position] = topic
                position += 1
        return items, topics

    def _build_users(self, rng: np.random.Generator) -> None:
        cfg = self.config
        lo, hi = cfg.interests_per_user
        len_lo, len_hi = cfg.history_length
        self.users: list[UserHistory] = []
        for user_id in range(cfg.num_users):
            k = int(rng.integers(lo, hi + 1))
            interest_topics = rng.choice(cfg.num_topics, size=k, replace=False)
            affinities = rng.dirichlet(np.full(k, 2.0))
            length = int(rng.integers(len_lo, len_hi + 1))
            items, topics = self._sample_history(rng, length, interest_topics, affinities)
            self.users.append(UserHistory(
                user_id=user_id, items=items, topics=topics,
                interest_topics=interest_topics, affinities=affinities))
