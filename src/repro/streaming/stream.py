"""Click-log stream source: InterestWorld in temporal mode.

Offline, :func:`repro.data.processing.build_ctr_data` freezes a world into
three static splits.  Online, user behaviour keeps arriving — and keeps
*changing*: interests drift, cold users show up with no history, and label
quality degrades in bursts (§I of the paper motivates MISS with exactly this
non-stationarity).  :class:`ClickStream` extends the simulator along the time
axis: it emits timestamped micro-batch windows of (user, candidate, history)
rows in the *same processed id space* as an offline
:class:`~repro.data.processing.ProcessedData`, so a model trained offline can
score and keep training on the stream without any re-mapping.

Scenario knobs (all off by default):

* **interest drift** — at ``drift_window`` a fraction of active users resample
  their interest topics and affinities, so the associations a model learned
  offline stop predicting their clicks;
* **cold-user arrival** — a held-out fraction of the offline user vocabulary
  is kept inactive and activated gradually from ``cold_start_window`` on,
  each arriving with only a short bootstrap history;
* **label-noise bursts** — a window interval where the label flip rate jumps
  from ``noise_rate`` to ``noise_burst_rate``, applied through the
  window-invariant :func:`~repro.data.corruption.flip_labels_stream` so the
  corrupted stream does not depend on how it was windowed.

Determinism: a stream is a pure function of ``(world, processed, config)``.
``windows(start=k)`` replays generation from window 0 and yields from ``k``,
so a resumed run sees bit-identical windows (fast-forward is O(stream), which
is fine at simulator scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..data.batching import CTRDataset
from ..data.corruption import flip_labels_stream
from ..data.processing import ProcessedData
from ..data.synthetic import InterestWorld

__all__ = ["StreamConfig", "StreamWindow", "ClickStream"]

#: Synthetic wall-clock length of one window: window ``i`` is stamped
#: ``i * WINDOW_SECONDS``.
WINDOW_SECONDS = 60.0


@dataclass(frozen=True)
class StreamConfig:
    """Shape and scenario schedule of one synthetic click stream."""

    num_windows: int = 40
    impressions_per_window: int = 64   # rows = 2x (one positive + one negative)
    seed: int = 0
    # Interest drift: at ``drift_window`` resample interests for a fraction
    # of the active users.  None disables the scenario.
    drift_window: int | None = None
    drift_fraction: float = 0.5
    # Cold users: hold out ``cold_fraction`` of the user vocabulary and
    # activate ``cold_users_per_window`` of them per window from
    # ``cold_start_window`` on.
    cold_fraction: float = 0.0
    cold_start_window: int = 0
    cold_users_per_window: int = 2
    cold_bootstrap_len: int = 3
    # Relative impression weight of a stream-activated (cold) user vs. a
    # warm one — new arrivals burst with onboarding activity when > 1.
    cold_activity: float = 1.0
    # Label noise: base rate plus an optional burst interval
    # [burst_start, burst_end) at the elevated rate.
    noise_rate: float = 0.0
    noise_burst_rate: float = 0.35
    noise_burst: tuple[int, int] | None = None

    def __post_init__(self):
        if self.num_windows < 1:
            raise ValueError("num_windows must be >= 1")
        if self.impressions_per_window < 1:
            raise ValueError("impressions_per_window must be >= 1")
        if not 0.0 <= self.drift_fraction <= 1.0:
            raise ValueError("drift_fraction must be in [0, 1]")
        if not 0.0 <= self.cold_fraction < 1.0:
            raise ValueError("cold_fraction must be in [0, 1)")
        if self.cold_bootstrap_len < 1:
            raise ValueError("cold_bootstrap_len must be >= 1")
        if self.cold_activity <= 0.0:
            raise ValueError("cold_activity must be > 0")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError("noise_rate must be in [0, 1]")
        if not 0.0 <= self.noise_burst_rate <= 1.0:
            raise ValueError("noise_burst_rate must be in [0, 1]")
        if self.noise_burst is not None:
            lo, hi = self.noise_burst
            if not 0 <= lo < hi:
                raise ValueError("noise_burst must be a (start, end) window "
                                 "interval with start < end")


@dataclass
class StreamWindow:
    """One timestamped micro-batch of the click log.

    ``start_row`` is the global index of the window's first row — the offset
    the window-invariant corruptions key on.  ``injected`` records which
    scenario was live while the window was generated (ground truth for
    detection-latency benchmarks; detectors never see it).
    """

    index: int
    timestamp: float
    start_row: int
    data: CTRDataset
    new_users: list[int] = field(default_factory=list)
    injected: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.data)


class _UserState:
    """Mutable per-user stream state: interests + rolling raw-item history."""

    __slots__ = ("interest_topics", "affinities", "history")

    def __init__(self, interest_topics: np.ndarray, affinities: np.ndarray,
                 history: list[int]):
        self.interest_topics = interest_topics
        self.affinities = affinities
        self.history = history


class ClickStream:
    """Temporal-mode InterestWorld emitting processed-id micro-batches."""

    def __init__(self, world: InterestWorld, processed: ProcessedData,
                 config: StreamConfig):
        self.world = world
        self.processed = processed
        self.config = config
        self.schema = processed.schema
        self._item_map = processed.item_map
        self._user_map = processed.user_map
        # Rebuild the category/seller maps exactly as build_ctr_data did —
        # they are derived deterministically from (world, item_map), so the
        # stream's ids land in the same vocabulary the schema was built for.
        categories = np.unique(world.item_category[list(self._item_map)])
        self._category_map = {int(c): i + 1 for i, c in enumerate(categories)}
        self._has_seller = world.item_seller is not None
        if self._has_seller:
            sellers = np.unique(world.item_seller[list(self._item_map)])
            self._seller_map = {int(s): i + 1 for i, s in enumerate(sellers)}
        # Per-topic item pools restricted to the surviving vocabulary.
        in_vocab = np.zeros(world.config.num_items, dtype=bool)
        in_vocab[list(self._item_map)] = True
        self._topic_items: list[np.ndarray] = []
        self._topic_weights: list[np.ndarray] = []
        for items, weights in zip(world.topic_items, world.topic_weights):
            keep = in_vocab[items]
            kept = items[keep]
            if kept.size:
                w = weights[keep]
                self._topic_items.append(kept)
                self._topic_weights.append(w / w.sum())
            else:
                self._topic_items.append(kept)
                self._topic_weights.append(np.empty(0))
        self._streamable_topics = np.flatnonzero(
            np.array([p.size > 0 for p in self._topic_items]))
        if self._streamable_topics.size == 0:
            raise ValueError("no topic survived the offline frequency filter; "
                             "the stream has nothing to emit")
        self._valid_raw_items = np.fromiter(self._item_map, dtype=np.int64)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _initial_states(self, rng: np.random.Generator
                        ) -> tuple[dict[int, _UserState], list[int]]:
        """Warm users seeded with their offline histories, plus the cold pool."""
        cfg = self.config
        by_id = {u.user_id: u for u in self.world.users}
        streamable = set(self._streamable_topics.tolist())
        eligible = []
        for raw_id in self._user_map:
            user = by_id[raw_id]
            if any(int(t) in streamable for t in user.interest_topics):
                eligible.append(raw_id)
        order = rng.permutation(len(eligible))
        num_cold = int(round(len(eligible) * cfg.cold_fraction))
        if num_cold >= len(eligible):
            num_cold = len(eligible) - 1
        cold = [eligible[i] for i in order[:num_cold]]
        warm = [eligible[i] for i in order[num_cold:]]
        states: dict[int, _UserState] = {}
        for raw_id in warm:
            user = by_id[raw_id]
            keep = np.isin(user.items, self._valid_raw_items)
            states[raw_id] = _UserState(
                interest_topics=self._restrict_interests(user.interest_topics),
                affinities=self._restrict_affinities(user.interest_topics,
                                                     user.affinities),
                history=user.items[keep].tolist())
        return states, cold

    def _restrict_interests(self, topics: np.ndarray) -> np.ndarray:
        streamable = set(self._streamable_topics.tolist())
        kept = np.array([t for t in topics if int(t) in streamable],
                        dtype=np.int64)
        return kept if kept.size else self._streamable_topics[:1].copy()

    def _restrict_affinities(self, topics: np.ndarray,
                             affinities: np.ndarray) -> np.ndarray:
        streamable = set(self._streamable_topics.tolist())
        keep = np.array([int(t) in streamable for t in topics], dtype=bool)
        if not keep.any():
            return np.ones(1)
        kept = affinities[keep]
        return kept / kept.sum()

    def _resample_interests(self, rng: np.random.Generator,
                            exclude: np.ndarray | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Fresh interest set; with ``exclude``, prefer disjoint topics so a
        drifted user genuinely abandons the associations a model learned."""
        pool = self._streamable_topics
        if exclude is not None:
            disjoint = pool[~np.isin(pool, exclude)]
            if disjoint.size:
                pool = disjoint
        k = int(rng.integers(1, min(4, pool.size) + 1))
        topics = rng.choice(pool, size=k, replace=False)
        return topics, rng.dirichlet(np.full(k, 2.0))

    def _activate_cold(self, rng: np.random.Generator, raw_id: int
                       ) -> _UserState:
        topics, affinities = self._resample_interests(rng)
        state = _UserState(topics, affinities, [])
        for _ in range(self.config.cold_bootstrap_len):
            state.history.append(self._next_item(rng, state))
        return state

    def _next_item(self, rng: np.random.Generator, state: _UserState) -> int:
        topic = int(rng.choice(state.interest_topics, p=state.affinities))
        pool = self._topic_items[topic]
        return int(rng.choice(pool, p=self._topic_weights[topic]))

    def _sample_negative(self, rng: np.random.Generator,
                         state: _UserState) -> int:
        recent = set(state.history[-self.schema.max_seq_len:])
        for _ in range(100):
            raw = int(self._valid_raw_items[
                int(rng.integers(self._valid_raw_items.size))])
            if raw not in recent:
                return raw
        return int(self._valid_raw_items[
            int(rng.integers(self._valid_raw_items.size))])

    def _encode_history(self, history: list[int]
                        ) -> tuple[np.ndarray, np.ndarray]:
        max_len = self.schema.max_seq_len
        raw_items = history[-max_len:]
        seqs = np.zeros((self.schema.num_sequential, max_len), dtype=np.int64)
        mask = np.zeros(max_len, dtype=bool)
        offset = max_len - len(raw_items)
        for pos, raw in enumerate(raw_items):
            col = offset + pos
            seqs[0, col] = self._item_map[raw]
            seqs[1, col] = self._category_map[
                int(self.world.item_category[raw])]
            if self._has_seller:
                seqs[2, col] = self._seller_map[
                    int(self.world.item_seller[raw])]
            mask[col] = True
        return seqs, mask

    def _candidate_row(self, raw_user: int, raw_item: int) -> list[int]:
        row = [self._user_map[raw_user], self._item_map[raw_item],
               self._category_map[int(self.world.item_category[raw_item])]]
        if self._has_seller:
            row.append(self._seller_map[int(self.world.item_seller[raw_item])])
        return row

    def noise_rate_at(self, window: int) -> float:
        cfg = self.config
        if cfg.noise_burst is not None and \
                cfg.noise_burst[0] <= window < cfg.noise_burst[1]:
            return cfg.noise_burst_rate
        return cfg.noise_rate

    def windows(self, start: int = 0) -> Iterator[StreamWindow]:
        """Yield windows ``start..num_windows-1``, replaying from 0.

        Generation consumes a single RNG stream strictly in window order, so
        any two iterations of the same stream agree bit-for-bit — the resume
        contract of the incremental trainer.
        """
        if start < 0:
            raise ValueError("start must be >= 0")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        states, cold_pool = self._initial_states(rng)
        activated: set[int] = set()
        global_row = 0
        for index in range(cfg.num_windows):
            new_users: list[int] = []
            if index >= cfg.cold_start_window:
                for _ in range(min(cfg.cold_users_per_window, len(cold_pool))):
                    raw_id = cold_pool.pop(0)
                    states[raw_id] = self._activate_cold(rng, raw_id)
                    activated.add(raw_id)
                    new_users.append(self._user_map[raw_id])
            drifted = 0
            if cfg.drift_window is not None and index == cfg.drift_window:
                active = sorted(states)
                picks = rng.permutation(len(active))
                drifted = int(round(len(active) * cfg.drift_fraction))
                for i in picks[:drifted]:
                    state = states[active[i]]
                    topics, affinities = self._resample_interests(
                        rng, exclude=state.interest_topics)
                    state.interest_topics = topics
                    state.affinities = affinities
            active_ids = sorted(states)
            weights = np.array([cfg.cold_activity if u in activated else 1.0
                                for u in active_ids])
            weights = weights / weights.sum()
            cat_rows, seq_rows, mask_rows, labels = [], [], [], []
            for _ in range(cfg.impressions_per_window):
                raw_user = active_ids[int(rng.choice(len(active_ids),
                                                     p=weights))]
                state = states[raw_user]
                positive = self._next_item(rng, state)
                negative = self._sample_negative(rng, state)
                seqs, mask = self._encode_history(state.history)
                for raw_item, label in ((positive, 1.0), (negative, 0.0)):
                    cat_rows.append(self._candidate_row(raw_user, raw_item))
                    seq_rows.append(seqs)
                    mask_rows.append(mask)
                    labels.append(label)
                state.history.append(positive)
            data = CTRDataset(
                schema=self.schema,
                categorical=np.asarray(cat_rows, dtype=np.int64),
                sequences=np.stack(seq_rows).astype(np.int64),
                mask=np.stack(mask_rows),
                labels=np.asarray(labels, dtype=np.float64),
            )
            rate = self.noise_rate_at(index)
            if rate > 0.0:
                data = flip_labels_stream(data, rate, seed=cfg.seed,
                                          offset=global_row)
            window = StreamWindow(
                index=index,
                timestamp=index * WINDOW_SECONDS,
                start_row=global_row,
                data=data,
                new_users=new_users,
                injected={"drifted_users": drifted, "noise_rate": rate,
                          "cold_arrivals": len(new_users)},
            )
            global_row += len(data)
            if index >= start:
                yield window
