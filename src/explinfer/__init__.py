"""explinfer: attribute inference attacks against tabular model explanations.

Trains small tabular classifiers, produces attribute-based explanations
(IntegratedGradients, DeepLift, GradientSHAP, SmoothGrad), and measures how
accurately an adversary recovers a sensitive attribute from those
explanations under two threat models, with F1-maximizing threshold
calibration.
"""

from .attack import (AttackSurface, CalibratedThreshold, ThreatModel, build_surface_matrix,
                     calibrate, score, train_attack)
from .data import DatasetSplits, TabularDataset, TabularSchema, encode, load_csv
from .explain import Algorithm, ExplainerConfig, Explanations, explain_batch, mean_baseline
from .metrics import (ConfusionCounts, PrCurve, accuracy, confusion, f1, pearson, pr_curve,
                      precision, recall)
from .nn import (MlpModel, ScalarTarget, TrainConfig, forward, init_model,
                 input_gradient_batch, train)
from .pipeline import AttackReport, ExperimentConfig, emit_report

__version__ = "0.1.0"

__all__ = [
    "Algorithm", "AttackReport", "AttackSurface",
    "CalibratedThreshold", "ConfusionCounts", "DatasetSplits",
    "ExperimentConfig", "ExplainerConfig", "Explanations", "MlpModel", "PrCurve",
    "ScalarTarget", "TabularDataset", "TabularSchema", "ThreatModel",
    "TrainConfig", "accuracy", "build_surface_matrix",
    "calibrate", "confusion", "emit_report", "encode", "explain_batch", "f1",
    "forward", "init_model", "input_gradient_batch", "load_csv", "mean_baseline",
    "pearson", "pr_curve", "precision", "recall", "score",
    "train", "train_attack",
]
