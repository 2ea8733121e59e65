"""Trajectory pin (ROADMAP 3(b), first piece).

Eight seeded optimisation steps of DIN+MISS and eight of plain DIN, reduced
to the per-step losses and one sha256 over every parameter.  A change that
claims to move no bit must leave them alone.  Run this file as a script to
print a fresh record.

Every record moves only on purpose, behind ``tests/test_miss_level.py``
(by-hand Eq. 15/16) and ``tests/test_fidelity_pin.py``, and the records it
replaced stay below as ``REPLACED``: the new one must agree with each of
them to ``rtol=1e-9``, so a re-pin can absorb rounding and never a changed
objective.

* Recorded at commit 52a647f (before the keyed masks, the one-pass first
  touch and the segment-sum scatter, which moved no bit).
* ``DIN+MISS`` re-recorded on top of commit 0c9c572: a contrastive level
  became one ``info_nce`` node over one stacked trunk forward, which is
  Eq. 15-16 in another summation order.  Step 1's loss was the old one to
  the last bit; gradients differed from the old graph's by ≤ 7e-11 of a
  parameter's max-norm.
* Both re-recorded on top of commit 8c102b9: the backend seam was deleted
  and ``linear_act`` became one node whose backward folds a rank-3 input
  into one GEMM pair (a batched matmul and an axis sum before).  Plain
  DIN's eight losses are the old ones to the last bit and its parameter
  sha256 moved; one DIN+MISS loss moved by one ulp (1.1e-16 relative).
  Both fidelity-pin AUCs are the recorded ones exactly.
* Both re-recorded on top of commit 4de1e0f: DIN's local activation unit,
  Dice and the MIE/MIMFE convolution became one node each with a
  hand-written backward.  Forward values are the old ones to the bit;
  gradients moved by summation order (the convolution's input gradient is
  now summed over offsets before it meets the input's other gradients).
  Plain DIN's eight losses are the old ones to the last bit and its
  parameter sha256 moved; DIN+MISS losses 7 and 8 moved by one ulp each.
  Both fidelity-pin AUCs are the recorded ones exactly.
* ``DIN+MISS`` re-recorded on top of commit 830ce62: a contrastive level
  cuts its views with one gather node and projects them with one
  field-projection node (one getitem per view, one ``Dense`` per feature
  view and a ``concatenate`` before), and a masked InfoNCE builds no -1e9
  penalty.  Forward values are the old ones to the bit; the gather's and
  the projection's gradients are summed in another order.  Step 1's loss is
  the old one to the bit; losses 3 and 8 moved by two ulps and one ulp
  (≤ 2.4e-16 relative).  Plain DIN's record and both fidelity-pin AUCs are
  unchanged.
* ``DIN+MISS`` re-recorded on top of commit e7cf9de: a level computes its
  views from ``C`` and the convolution kernels in one node (the MIE/MIMFE
  maps, a conv and a ReLU node each, are no longer built), the
  false-negative masks are keyed once per batch and InfoNCE runs in place.
  Forward values are the old ones to the bit; the view node scatters its
  input gradient and sums its kernel gradients in another order (step-1
  gradients within 8e-11 of each parameter's max-norm, the kernel weights;
  below 1e-13 everywhere else).  Step 1's loss is the old one to the bit;
  losses 2 and 3 moved by one ulp and two ulps (≤ 2.4e-16 relative).  Plain
  DIN's record and both fidelity-pin AUCs are unchanged.
* Both re-recorded on top of commit 1b47361: DIN's local activation unit
  folds ``w1``'s row blocks into one per-sample ``K × H`` matrix and a
  shift (``e @ fold + shift``) instead of multiplying the ``[e, c, e - c,
  e·c]`` features by ``w1``, forward and backward.  That is the same
  function rounded differently, so forward values move at round-off (≤ 4e-16
  relative on the kernel) and step-1 gradients by ≤ 5e-14 of each
  parameter's max-norm, except the scorer biases: ``b1`` by ≤ 4.4e-12 and
  ``b2``, whose true gradient is 0, reads other round-off.  Plain DIN's
  eight losses are the old ones to the last bit and its parameter sha256
  moved; DIN+MISS losses 3 and 8 moved by one ulp each.  Both fidelity-pin
  AUCs are the recorded ones exactly.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.core import MISSConfig, attach_miss
from repro.data import DataLoader, load_dataset
from repro.models import create_model
from repro.nn import Adam
from repro.training.step import clip_and_step, forward_backward

STEPS = 8

# name -> the losses of every record it replaced, oldest first.
REPLACED = {
    "DIN+MISS": (
        ("0x1.21d19618d92f4p+3", "0x1.ea5d5d1356c6cp+2",      # 52a647f
         "0x1.d510d4861faebp+2", "0x1.03ee927e875f8p+3",
         "0x1.d3bbc6f5c2070p+2", "0x1.a58c6c517074dp+2",
         "0x1.e9e5119381daep+2", "0x1.bbb2edc56d3eep+2"),
        ("0x1.21d19618d92f4p+3", "0x1.ea5d5d1356c6cp+2",      # 0c9c572
         "0x1.d510d4861faeap+2", "0x1.03ee927e875f9p+3",
         "0x1.d3bbc6f5c2070p+2", "0x1.a58c6c517074ep+2",
         "0x1.e9e5119381dadp+2", "0x1.bbb2edc56d3efp+2"),
        ("0x1.21d19618d92f4p+3", "0x1.ea5d5d1356c6cp+2",      # 8c102b9
         "0x1.d510d4861faeap+2", "0x1.03ee927e875f9p+3",
         "0x1.d3bbc6f5c2070p+2", "0x1.a58c6c517074ep+2",
         "0x1.e9e5119381daep+2", "0x1.bbb2edc56d3efp+2"),
        ("0x1.21d19618d92f4p+3", "0x1.ea5d5d1356c6cp+2",      # 4de1e0f
         "0x1.d510d4861faeap+2", "0x1.03ee927e875f9p+3",
         "0x1.d3bbc6f5c2070p+2", "0x1.a58c6c517074ep+2",
         "0x1.e9e5119381dadp+2", "0x1.bbb2edc56d3eep+2"),
        ("0x1.21d19618d92f4p+3", "0x1.ea5d5d1356c6cp+2",      # 830ce62
         "0x1.d510d4861faecp+2", "0x1.03ee927e875f9p+3",
         "0x1.d3bbc6f5c2070p+2", "0x1.a58c6c517074ep+2",
         "0x1.e9e5119381dadp+2", "0x1.bbb2edc56d3efp+2"),
        ("0x1.21d19618d92f4p+3", "0x1.ea5d5d1356c6bp+2",      # e7cf9de
         "0x1.d510d4861faeap+2", "0x1.03ee927e875f9p+3",
         "0x1.d3bbc6f5c2070p+2", "0x1.a58c6c517074ep+2",
         "0x1.e9e5119381dadp+2", "0x1.bbb2edc56d3efp+2"),
    ),
    "DIN": (
        # 52a647f; 8c102b9, 4de1e0f and 1b47361 recorded the same eight
        # losses (their parameter sha256s differ).
        ("0x1.62cdc8573077fp-1", "0x1.631706c118e57p-1",
         "0x1.62e36d4200f92p-1", "0x1.6244bc1d8eb89p-1",
         "0x1.62a01abd49a2cp-1", "0x1.620828e0895dbp-1",
         "0x1.61aed46e2438ap-1", "0x1.617c90401c61dp-1"),
    ),
}

# name -> (per-step loss as float.hex(), sha256 over all parameters)
PINNED = {
    "DIN+MISS": (
        ("0x1.21d19618d92f4p+3", "0x1.ea5d5d1356c6bp+2",
         "0x1.d510d4861faebp+2", "0x1.03ee927e875f9p+3",
         "0x1.d3bbc6f5c2070p+2", "0x1.a58c6c517074ep+2",
         "0x1.e9e5119381dadp+2", "0x1.bbb2edc56d3f0p+2"),
        "b6739ca7b55133e79eedee99d94db1434d301805282986cb934eda9c794f40c0"),
    "DIN": (
        ("0x1.62cdc8573077fp-1", "0x1.631706c118e57p-1",
         "0x1.62e36d4200f92p-1", "0x1.6244bc1d8eb89p-1",
         "0x1.62a01abd49a2cp-1", "0x1.620828e0895dbp-1",
         "0x1.61aed46e2438ap-1", "0x1.617c90401c61dp-1"),
        "1a147e2b8c8d9f8380e6db984fdae75e769306161260067762eb36d7adee6e83"),
}


def _trajectory(miss: bool) -> tuple[tuple[str, ...], str]:
    data = load_dataset("amazon-cds", scale=0.12, seed=0)
    model = create_model("DIN", data.schema, seed=1)
    if miss:
        model = attach_miss(model, MISSConfig(seed=2))
    model.train()
    loader = DataLoader(data.train, batch_size=64, shuffle=True,
                        rng=np.random.default_rng(3))
    optimizer = Adam(model.parameters(), lr=1e-3, weight_decay=1e-5)
    losses = []
    epochs = itertools.chain.from_iterable(itertools.repeat(loader))
    for batch in itertools.islice(epochs, STEPS):
        losses.append(forward_backward(model, batch, optimizer.parameters))
        clip_and_step(optimizer, 5.0)
    digest = hashlib.sha256()
    for name, param in model.named_parameters():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return tuple(float(v).hex() for v in losses), digest.hexdigest()


@pytest.mark.parametrize("name", list(PINNED))
def test_reference_trajectory_is_pinned(name):
    losses, digest = _trajectory(miss=name == "DIN+MISS")
    want_losses, want_digest = PINNED[name]
    assert len(losses) == STEPS
    assert losses == want_losses
    assert digest == want_digest


@pytest.mark.parametrize("name", list(REPLACED))
def test_a_re_pin_only_absorbed_rounding(name):
    def values(record):
        return [float.fromhex(v) for v in record]

    for record in REPLACED[name]:
        np.testing.assert_allclose(values(PINNED[name][0]), values(record),
                                   rtol=1e-9, atol=0.0)


if __name__ == "__main__":
    for name in PINNED:
        print(repr(name), _trajectory(miss=name == "DIN+MISS"))
