"""Training harness: metrics, trainer, strategies, calibration, experiments."""

from .calibration import PlattScaler
from .experiment import ExperimentResult, calibrated_eval, run_experiment
from .metrics import EvalResult, auc_score, logloss_score, relative_improvement
from .strategies import train_pretrain
from .trainer import (
    TrainConfig,
    Trainer,
    TrainResult,
    evaluate,
    improvement,
    predict_logits_array,
)

__all__ = [
    "PlattScaler",
    "ExperimentResult", "calibrated_eval", "predict_logits_array", "run_experiment",
    "EvalResult", "auc_score", "logloss_score", "relative_improvement",
    "train_pretrain",
    "TrainConfig", "Trainer", "TrainResult", "evaluate", "improvement",
]
