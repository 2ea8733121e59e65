"""Fidelity mini-pin (ROADMAP 3(a), first piece).

A bit pin says a change moved nothing; it cannot say that a change which
*did* move bits (a new summation order in the SSL branch, say) left the
paper's result alone.  This is the gate such a change re-pins behind: one
seeded, reduced-scale DIN vs DIN+MISS fit, reduced to the two validation
AUCs.  The expected values were recorded at commit 0c9c572, before the
batched InfoNCE node and the backend-independent gradient pool, and must
hold there and after any change to the core: the plug-in still helps, by
the same amount.
"""

import pytest

from repro.bench.configs import bench_miss_config
from repro.core import attach_miss
from repro.data import load_dataset
from repro.models import create_model
from repro.nn import use_backend
from repro.training import TrainConfig, Trainer

SEED, EPOCHS = 0, 6
# name -> validation AUC of the best epoch (amazon-cds, scale 0.5: 750 rows)
RECORDED = {"DIN": 0.7381475555555556, "DIN+MISS": 0.802432}
TOLERANCE = 0.002


def _validation_auc(miss: bool) -> float:
    data = load_dataset("amazon-cds", scale=0.5, seed=SEED)
    model = create_model("DIN", data.schema, seed=SEED + 1)
    if miss:
        model = attach_miss(model, bench_miss_config(SEED))
    config = TrainConfig(epochs=EPOCHS, batch_size=64, patience=EPOCHS,
                         seed=SEED)
    with use_backend("reference"):
        result = Trainer(config).fit(model, data.train, data.validation)
    return result.validation.auc


def test_the_plug_in_still_helps_by_the_recorded_amount():
    got = {name: _validation_auc(miss=name == "DIN+MISS")
           for name in RECORDED}
    assert got == pytest.approx(RECORDED, abs=TOLERANCE)
    assert got["DIN+MISS"] > got["DIN"]


if __name__ == "__main__":
    for name in RECORDED:
        print(repr(name), repr(_validation_auc(miss=name == "DIN+MISS")))
