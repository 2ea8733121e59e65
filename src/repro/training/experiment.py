"""High-level experiment runner shared by the benchmark harness and examples.

``run_experiment`` owns the full protocol: train with validation-based model
selection, fit the uniform Platt calibration on validation, and report
calibrated AUC/Logloss on the test split.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.processing import ProcessedData
from ..models.base import CTRModel
from ..obs import EvalEndEvent, ObserverList
from .calibration import PlattScaler
from .metrics import EvalResult, auc_score, logloss_score
from .trainer import TrainConfig, Trainer, TrainResult, predict_logits_array

__all__ = ["ExperimentResult", "calibrated_eval", "run_experiment"]


@dataclass
class ExperimentResult:
    """Outcome of one (model, dataset) cell in a results table."""

    model_name: str
    dataset_name: str
    test: EvalResult
    validation: EvalResult
    train_result: TrainResult

    @property
    def auc(self) -> float:
        return self.test.auc

    @property
    def logloss(self) -> float:
        return self.test.logloss


def calibrated_eval(model: CTRModel, data: ProcessedData,
                    batch_size: int = 512) -> tuple[EvalResult, EvalResult]:
    """(validation, test) metrics after Platt calibration on validation."""
    val_logits = predict_logits_array(model, data.validation, batch_size)
    scaler = PlattScaler.fit(val_logits, data.validation.labels)
    val_probs = scaler.transform(val_logits)
    test_logits = predict_logits_array(model, data.test, batch_size)
    test_probs = scaler.transform(test_logits)
    validation = EvalResult(auc=auc_score(data.validation.labels, val_probs),
                            logloss=logloss_score(data.validation.labels, val_probs))
    test = EvalResult(auc=auc_score(data.test.labels, test_probs),
                      logloss=logloss_score(data.test.labels, test_probs))
    return validation, test


def run_experiment(model: CTRModel, data: ProcessedData, config: TrainConfig,
                   model_name: str = "", train=None, observers=None, *,
                   checkpoint_dir=None, resume: bool = False,
                   checkpoint_every: int | None = None,
                   keep_checkpoints: int = 3,
                   anomaly_guard: bool = False) -> ExperimentResult:
    """Train ``model`` and return calibrated test metrics.

    ``train`` overrides the training split (used by the corruption studies
    and to train straight off a pipeline ``ShardedCTRDataset``);
    validation/test always come from ``data`` untouched.  ``observers`` are
    threaded through to :meth:`Trainer.fit` and additionally receive the
    calibrated test evaluation as a final ``eval_end`` event (after the
    trainer's ``run_end``), so run traces record the reported numbers.

    The resilience options (``checkpoint_dir``/``resume``/
    ``checkpoint_every``/``keep_checkpoints``/``anomaly_guard``) are passed
    straight to :meth:`Trainer.fit` — see :mod:`repro.resilience`.
    """
    obs = ObserverList.build(observers)
    train_split = train if train is not None else data.train
    train_result = Trainer(config).fit(model, train_split, data.validation,
                                       observers=obs,
                                       checkpoint_dir=checkpoint_dir,
                                       resume=resume,
                                       checkpoint_every=checkpoint_every,
                                       keep_checkpoints=keep_checkpoints,
                                       anomaly_guard=anomaly_guard)
    validation, test = calibrated_eval(model, data,
                                       batch_size=config.eval_batch_size)
    if obs:
        obs.emit(EvalEndEvent(
            epoch=train_result.best_epoch, split="test",
            auc=test.auc, logloss=test.logloss))
    return ExperimentResult(
        model_name=model_name or type(model).__name__,
        dataset_name=data.schema.name,
        test=test,
        validation=validation,
        train_result=train_result,
    )
