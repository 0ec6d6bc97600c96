"""Adversary side: attack surfaces, attack models, threshold calibration.

The adversary turns each record's explanation (and optionally the served
prediction) into a feature vector, trains a model mapping those vectors to
the sensitive attribute on the auxiliary split, picks the decision threshold
that maximizes F1 on that same split, and only then touches the evaluation
records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import forest as forest_mod
from . import metrics, nn
from .explain import Attribution, to_attack_vector
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


class SurfaceError(ValueError):
    """Surface is incompatible with the threat model or its inputs."""


def _split_columns(column_groups: dict[str, list[int]], sensitive_column: str,
                   n_scores: int) -> tuple[list[int], list[int]]:
    sens = sorted(column_groups.get(sensitive_column, []))
    non_sens = sorted(set(range(n_scores)) - set(sens))
    return sens, non_sens


def build_surface(
    attribution: Attribution,
    prediction: float | None,
    surface: AttackSurface,
    column_groups: dict[str, list[int]],
    sensitive_column: str,
) -> np.ndarray:
    """Feature vector the attack model sees for one record."""
    scores = attribution.scores
    sens, non_sens = _split_columns(column_groups, sensitive_column, len(scores))
    if surface is AttackSurface.PHI_ALL:
        return to_attack_vector(attribution)
    if surface is AttackSurface.PHI_SENSITIVE:
        if not sens:
            raise SurfaceError(
                "phi_sensitive needs sensitive columns in the explained input")
        return scores[sens]
    if surface is AttackSurface.PHI_NON_SENSITIVE:
        return np.concatenate([scores[non_sens], [attribution.delta]])
    if surface is AttackSurface.PRED_PLUS_PHI:
        if prediction is None:
            raise SurfaceError("pred_plus_phi needs the model prediction")
        return np.concatenate([[prediction], scores[non_sens], [attribution.delta]])
    if surface is AttackSurface.PRED_ONLY:
        if prediction is None:
            raise SurfaceError("pred_only needs the model prediction")
        return np.array([prediction])
    raise SurfaceError(f"unknown surface {surface}")


def build_surface_matrix(
    attributions: list[Attribution],
    predictions,
    surface: AttackSurface,
    column_groups: dict[str, list[int]],
    sensitive_column: str,
) -> np.ndarray:
    if predictions is None:
        predictions = [None] * len(attributions)
    rows = [
        build_surface(a, p, surface, column_groups, sensitive_column)
        for a, p in zip(attributions, predictions)
    ]
    return np.vstack(rows)


@dataclass
class AttackModel:
    kind: str  # "mlp" or "forest"
    mlp: MlpModel | None
    forest: forest_mod.ForestModel | None
    input_dim: int


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
) -> AttackModel:
    """Fit the adversary's scorer on explanation-derived features."""
    X = np.asarray(features, dtype=np.float64)
    s = np.asarray(s_labels, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != s.shape[0]:
        raise ValueError("features must be a matrix with one sensitive label per row")
    if len(np.unique(s)) < 2:
        raise ValueError("attack training needs both sensitive classes present")
    if kind == "mlp":
        model = nn.init_model([X.shape[1], *mlp_hidden, 1], seed=seed)
        cfg = TrainConfig(
            epochs=mlp_epochs, learning_rate=mlp_learning_rate,
            batch_size=mlp_batch_size, seed=seed)
        trained = nn.train(model, X, s, cfg)
        return AttackModel(kind="mlp", mlp=trained, forest=None, input_dim=X.shape[1])
    if kind == "forest":
        f = forest_mod.fit_forest(
            X, s, n_trees=forest_trees, max_depth=forest_depth,
            min_leaf=forest_min_leaf, seed=seed)
        return AttackModel(kind="forest", mlp=None, forest=f, input_dim=X.shape[1])
    raise ValueError(f"unknown attack model kind {kind!r}")


def score(model: AttackModel, features) -> np.ndarray:
    """Per-row P(s=1) estimates in [0, 1]."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(
            f"features must have {model.input_dim} columns, got {X.shape}")
    if model.kind == "mlp":
        return nn.forward_batch(model.mlp, X, nn.ScalarTarget.PROBABILITY)
    return forest_mod.forest_scores(model.forest, X)


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


def calibrate(model: AttackModel, aux_features, aux_s) -> CalibratedThreshold:
    """Calibrate the decision threshold on auxiliary records with known s."""
    return calibrate_scores(score(model, aux_features), aux_s)

