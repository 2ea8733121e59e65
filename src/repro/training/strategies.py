"""Multi-task training strategies for MISS (paper §IV-C and Table IX).

The default, MISS-Joint, is plain ``Trainer(config).fit``: a MISS-enhanced
model's ``training_loss`` is Eq. 17's combined loss.  :func:`train_pretrain`
is the two-stage alternative: first optimise only the SSL losses to shape the
embeddings, then fine-tune with the CTR loss alone.
"""

from __future__ import annotations

import numpy as np

from ..core.plugin import MISSEnhancedModel
from ..data.batching import CTRDataset, DataLoader
from ..nn import Adam
from .step import train_step
from .trainer import TrainConfig, Trainer, TrainResult

__all__ = ["train_pretrain"]


def train_pretrain(model: MISSEnhancedModel, train: CTRDataset,
                   validation: CTRDataset, config: TrainConfig,
                   pretrain_epochs: int = 3, observers=None) -> TrainResult:
    """MISS-Pre: SSL-only pre-training, then CTR-only fine-tuning.

    Stage one runs ``pretrain_epochs`` passes that minimise only the weighted
    SSL loss (no click supervision), initialising the shared embeddings.
    Stage two fine-tunes with the base model's CTR loss; the SSL component is
    frozen out of the objective, matching the paper's description.
    """
    if pretrain_epochs < 1:
        raise ValueError("pretrain_epochs must be >= 1")

    rng = np.random.default_rng(config.seed)
    loader = DataLoader(train, batch_size=config.batch_size, shuffle=True, rng=rng)
    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    model.train()
    for _ in range(pretrain_epochs):
        for batch in loader:
            train_step(model, batch, optimizer, config.grad_clip,
                       objective=model.ssl_loss)

    # Stage two: plain CTR fine-tuning of the base model (embeddings warm).
    return Trainer(config).fit(model.base, train, validation,
                               observers=observers)
