"""Adversary side: attack surfaces, attack models, threshold calibration.

The adversary turns each record's explanation (and the served prediction,
for a surface that takes_prediction) into a feature vector, trains a model
mapping those vectors to the sensitive attribute on the auxiliary split (an
nn.MlpModel or a forest.ForestModel), picks the threshold that maximizes F1
on that same split, and only then touches the evaluation records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import forest as forest_mod
from . import metrics, nn
from .nn import MlpModel, TrainConfig


class ThreatModel(Enum):
    TM1 = "tm1"  # sensitive attribute present in training data and input
    TM2 = "tm2"  # sensitive attribute censored from both


class AttackSurface(Enum):
    PHI_ALL = "phi_all"                # full scores + delta
    PHI_SENSITIVE = "phi_sensitive"    # scores at the sensitive columns
    PHI_NON_SENSITIVE = "phi_non_sensitive"  # scores at the rest + delta
    PRED_PLUS_PHI = "pred_plus_phi"    # prediction, then the non-sensitive vector
    PRED_ONLY = "pred_only"            # prediction scalar alone

    def valid_for(self, tm: ThreatModel) -> bool:
        if self in (AttackSurface.PHI_ALL, AttackSurface.PHI_SENSITIVE):
            return tm is ThreatModel.TM1
        return True

    @property
    def takes_prediction(self) -> bool:
        return self in (AttackSurface.PRED_PLUS_PHI, AttackSurface.PRED_ONLY)


class SurfaceError(ValueError):
    """Surface is incompatible with the threat model or its inputs."""


def build_surface_matrix(
    explanations,
    predictions,
    surface: AttackSurface,
    sensitive_cols: list[int],
) -> np.ndarray:
    """Feature matrix the attack model sees: score columns of an
    explain.Explanations, then each record's delta where the surface takes
    it, after the prediction column for pred_* surfaces. Columns outside
    sensitive_cols (a dataset's sensitive_columns) are non-sensitive."""
    scores, delta = explanations.scores, explanations.delta
    if surface is AttackSurface.PHI_ALL:
        return np.column_stack([scores, delta])
    if surface is AttackSurface.PHI_SENSITIVE:
        if not sensitive_cols:
            raise SurfaceError(
                "phi_sensitive needs sensitive columns in the explained input")
        return scores[:, sensitive_cols]
    # the non-sensitive scores, then delta
    rest = np.column_stack(
        [scores[:, [c for c in range(scores.shape[1]) if c not in sensitive_cols]], delta])
    if surface is AttackSurface.PHI_NON_SENSITIVE:
        return rest
    if not (isinstance(surface, AttackSurface) and surface.takes_prediction):
        raise SurfaceError(f"unknown surface {surface}")
    if predictions is None:
        raise SurfaceError(f"{surface.value} needs the model prediction")
    pred = np.asarray(predictions, dtype=np.float64)[:, None]
    return np.hstack([pred, rest]) if surface is AttackSurface.PRED_PLUS_PHI else pred


def train_attack(
    features,
    s_labels,
    kind: str = "mlp",
    seed: int = 0,
    mlp_hidden: tuple[int, ...] = (64, 128, 32),
    mlp_epochs: int = 500,
    mlp_learning_rate: float = 1e-3,
    mlp_batch_size: int = 256,
    forest_trees: int = 100,
    forest_depth: int = 150,
    forest_min_leaf: int = 1,
) -> MlpModel | forest_mod.ForestModel:
    """Fit the adversary's scorer on explanation-derived features: an MLP
    for kind "mlp", a random forest for kind "forest"."""
    X = np.asarray(features, dtype=np.float64)
    s = np.asarray(s_labels, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != s.shape[0]:
        raise ValueError("features must be a matrix with one sensitive label per row")
    # not np.unique, whose masked-array check would load numpy.ma (about 1 MB)
    if not s.size or np.all(s == s[0]):
        raise ValueError("attack training needs both sensitive classes present")
    if kind == "mlp":
        cfg = TrainConfig(
            epochs=mlp_epochs, learning_rate=mlp_learning_rate,
            batch_size=mlp_batch_size, seed=seed)
        return nn.train(nn.init_model([X.shape[1], *mlp_hidden, 1], seed=seed), X, s, cfg)
    if kind == "forest":
        return forest_mod.fit_forest(
            X, s, n_trees=forest_trees, max_depth=forest_depth,
            min_leaf=forest_min_leaf, seed=seed)
    raise ValueError(f"unknown attack model kind {kind!r}")


def score(model: MlpModel | forest_mod.ForestModel, features) -> np.ndarray:
    """Per-row P(s=1) estimates in [0, 1] of a train_attack model. The features
    must be a matrix of the training width; either model raises ValueError otherwise."""
    if isinstance(model, MlpModel):
        return nn.forward_batch(model, features, nn.ScalarTarget.PROBABILITY)
    return forest_mod.forest_scores(model, features)


@dataclass
class CalibratedThreshold:
    tau_star: float
    achieved_f1_on_aux: float
    curve: metrics.PrCurve


def calibrate_scores(scores_aux, aux_s) -> CalibratedThreshold:
    """Threshold maximizing F1 over the PR curve of the given scores.

    Candidates are the distinct scores; records are predicted positive when
    score >= tau. Ties on F1 resolve to the smallest tau.
    """
    aux_s = np.asarray(aux_s, dtype=np.float64).ravel()
    curve = metrics.pr_curve(scores_aux, aux_s)
    best_f1 = float(np.max(curve.f1s))
    tau = float(np.min(curve.thresholds[curve.f1s == best_f1]))
    return CalibratedThreshold(tau_star=tau, achieved_f1_on_aux=best_f1, curve=curve)


def calibrate(model: MlpModel | forest_mod.ForestModel, aux_features,
              aux_s) -> CalibratedThreshold:
    """Calibrate the decision threshold on auxiliary records with known s."""
    return calibrate_scores(score(model, aux_features), aux_s)

