"""Figure 5: cosine similarity of augmented view pairs during training.

The paper plots, on Amazon-Cds, the mean similarity of the generated view
pairs per training batch for the three extractors.  Shape to reproduce: the
CNN extractor's pairs stay clearly below 1 (informative for contrastive
learning, roughly 0.7-0.8 in the paper) while the self-attention and LSTM
extractors collapse toward 1 (pairs carry almost no signal).
"""

from dataclasses import replace

import numpy as np

from repro.bench import (
    bench_dataset,
    bench_miss_config,
    bench_train_config,
    render_series,
)
from repro.core import SimilarityTracker, attach_miss
from repro.models import create_model
from repro.training import Trainer

from .helpers import save_result

EXTRACTORS = ("cnn", "sa", "lstm")
DATASET = "amazon-cds"


def _trace(extractor: str) -> list[float]:
    data = bench_dataset(DATASET, seed=0)
    base = create_model("DIN", data.schema, seed=1)
    model = attach_miss(base, bench_miss_config(0, extractor=extractor))
    tracker = SimilarityTracker(every=1)
    # A few epochs suffice: the similarity regime is visible immediately and
    # stable during training (as in the paper's figure).
    short = replace(bench_train_config(0), epochs=3)
    Trainer(short).fit(model, data.train, data.validation, observers=[tracker])
    return tracker.similarities


def _build_series():
    return {extractor: _trace(extractor) for extractor in EXTRACTORS}


def test_fig05_similarity(benchmark):
    traces = benchmark.pedantic(_build_series, rounds=1, iterations=1)
    length = min(len(t) for t in traces.values())
    steps = list(range(1, length + 1))
    series = {f"MISS-{e.upper()}": traces[e][:length] for e in EXTRACTORS}
    text = render_series(
        f"Figure 5: view-pair cosine similarity per training step ({DATASET})",
        "step", steps, series)
    save_result("fig05_similarity.txt", text)

    # The collapse of SA/LSTM pairs is a trained phenomenon: judge the final
    # third of each trace, after the extractors have settled.
    def settled(extractor: str) -> float:
        trace = traces[extractor]
        return float(np.mean(trace[-max(1, len(trace) // 3):]))

    means = {e: settled(e) for e in EXTRACTORS}
    # SA and LSTM pairs collapse toward similarity 1 (at reduced harness
    # scale the asymptote after a few epochs sits slightly below the paper's
    # ~1.0 but far above the CNN regime) ...
    assert means["sa"] > 0.85, f"SA similarity should be ~1, got {means['sa']:.3f}"
    assert means["lstm"] > 0.85, f"LSTM similarity should be ~1, got {means['lstm']:.3f}"
    # ... while CNN pairs stay informative, clearly below the collapse point.
    assert means["cnn"] < means["sa"] - 0.08
    assert means["cnn"] < means["lstm"] - 0.08
    assert 0.4 < means["cnn"] < 0.95
