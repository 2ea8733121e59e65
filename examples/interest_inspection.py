"""Looking inside MISS: view-pair similarity and latent-topic recovery.

Two diagnostics from the paper's analysis sections:

1. **Figure 5** — the mean cosine similarity of the augmented view pairs per
   training step, for the CNN extractor versus the self-attention and LSTM
   alternatives.  CNN pairs stay informative (≈0.7-0.8) while SA/LSTM
   collapse toward 1.
2. **Topic recovery** — the simulator knows each item's latent interest
   topic (models never see it).  After training, items of the same topic
   should have much more similar embeddings under MISS than under plain DIN;
   this is the mechanism behind the headline AUC gains.

    python examples/interest_inspection.py
"""

import numpy as np

from repro.core import MISSConfig, SimilarityTracker, attach_miss
from repro.data import InterestWorld, build_ctr_data, make_config
from repro.models import create_model
from repro.training import TrainConfig, Trainer


def topic_cluster_quality(model, data, world) -> tuple[float, float]:
    """Mean cosine similarity of item-embedding pairs, within vs across
    latent topics (diagnostics only: uses simulator ground truth)."""
    inverse = {v: k for k, v in data.item_map.items()}
    topics = np.array([world.item_topic[inverse[i]]
                       for i in range(1, len(data.item_map) + 1)])
    table = model.embedder.tables[data.schema.categorical_index("item")]
    vectors = table.weight.data[1:]
    unit = vectors / (np.linalg.norm(vectors, axis=1, keepdims=True) + 1e-9)
    sims = unit @ unit.T
    same = topics[:, None] == topics[None, :]
    np.fill_diagonal(same, False)
    off_diag = ~np.eye(len(topics), dtype=bool)
    return float(sims[same].mean()), float(sims[off_diag & ~same].mean())


def main() -> None:
    world_config = make_config("amazon-cds", scale=0.4, seed=0)
    world = InterestWorld(world_config)
    data = build_ctr_data(world, max_seq_len=20, seed=1)
    config = TrainConfig(epochs=6, learning_rate=1e-2, weight_decay=1e-5,
                         patience=6, seed=0)

    # --- Figure 5 style diagnostic ------------------------------------
    print("view-pair cosine similarity (mean over training):")
    for extractor in ("cnn", "sa", "lstm"):
        base = create_model("DIN", data.schema, seed=1)
        model = attach_miss(base, MISSConfig(extractor=extractor, seed=2))
        tracker = SimilarityTracker(every=1)
        Trainer(config).fit(model, data.train, data.validation,
                            observers=[tracker])
        mean_similarity = float(np.mean(tracker.similarities))
        print(f"  MISS-{extractor.upper():4s}: {mean_similarity:.3f}"
              + ("  (collapsed — uninformative pairs)" if mean_similarity > 0.9
                 else "  (informative pairs)"))

    # --- Topic recovery ------------------------------------------------
    print("\nitem-embedding similarity, within vs across latent topics:")
    din = create_model("DIN", data.schema, seed=1)
    Trainer(config).fit(din, data.train, data.validation)
    within, across = topic_cluster_quality(din, data, world)
    print(f"  DIN      : within={within:+.3f} across={across:+.3f}")

    base = create_model("DIN", data.schema, seed=1)
    miss = attach_miss(base, MISSConfig(alpha_interest=0.5, alpha_feature=0.5,
                                        seed=2))
    Trainer(config).fit(miss, data.train, data.validation)
    within, across = topic_cluster_quality(miss, data, world)
    print(f"  DIN-MISS : within={within:+.3f} across={across:+.3f}"
          "   <- interest-level SSL clusters items by latent topic")


if __name__ == "__main__":
    main()
