"""Attribute-based explanations of the binary classifier.

Four algorithms produce a per-feature score vector phi for one input record
against a baseline (here conventionally the column-mean of the training
inputs), plus a signed completeness residual

    delta = f(x) - f(baseline) - sum(phi)

IntegratedGradients, DeepLift and GradientSHAP satisfy (approximate or
exact) completeness, so delta measures approximation error. SmoothGrad has
no such guarantee; its delta is recorded with the same formula purely for
uniformity of the attack vector.

Stochastic explainers draw all noise from a generator derived from
(config seed, record id), so serial, parallel and remote executions of the
same record agree bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import nn
from .nn import MlpModel, ScalarTarget

# below this preactivation difference the DeepLift rescale ratio is replaced
# by the ReLU derivative to avoid near-zero division
RESCALE_EPSILON = 1e-7


class Algorithm(Enum):
    INTEGRATED_GRADIENTS = "integrated_gradients"
    DEEPLIFT = "deeplift"
    GRADIENT_SHAP = "gradient_shap"
    SMOOTHGRAD = "smoothgrad"


@dataclass(frozen=True)
class ExplainerConfig:
    ig_steps: int = 50
    shap_samples: int = 20
    shap_stdev: float = 0.1
    smoothgrad_samples: int = 25
    smoothgrad_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.ig_steps < 1 or self.shap_samples < 1 or self.smoothgrad_samples < 1:
            raise ValueError("sample and step counts must be >= 1")
        if self.shap_stdev < 0 or self.smoothgrad_sigma < 0:
            raise ValueError("noise standard deviations must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class Attribution:
    """Scores phi for one record plus the completeness residual delta."""

    algorithm: Algorithm
    scores: np.ndarray
    delta: float
    target: ScalarTarget | None
    baseline_id: str


def baseline_id(baseline: np.ndarray) -> str:
    """Short content hash identifying a baseline vector."""
    return hashlib.sha1(np.ascontiguousarray(baseline).tobytes()).hexdigest()[:12]


def _rng(seed: int, record_id: int | None) -> np.random.Generator:
    if record_id is None:
        return np.random.default_rng([int(seed)])
    if record_id < 0:
        raise ValueError("record_id must be a nonnegative integer")
    return np.random.default_rng([int(seed), int(record_id)])


def mean_baseline(features) -> np.ndarray:
    """Column-wise arithmetic mean of a feature matrix."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("mean_baseline needs a matrix with at least one row")
    return X.mean(axis=0)


def _check_pair(model: MlpModel, x, baseline):
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(baseline, dtype=np.float64)
    if x.shape != (model.input_dim,) or b.shape != (model.input_dim,):
        raise ValueError(
            f"input and baseline must both have length {model.input_dim}, "
            f"got {x.shape} and {b.shape}"
        )
    return x, b


def _attribution(algorithm, model, x, base, scores, target, fb) -> Attribution:
    """scores plus delta = f(x) - f(base) - sum(scores); fb, when given, is
    f(base) computed once by the caller."""
    if fb is None:
        fb = nn.forward(model, base, target)
    return Attribution(
        algorithm=algorithm,
        scores=scores,
        delta=nn.forward(model, x, target) - fb - float(np.sum(scores)),
        target=target,
        baseline_id=baseline_id(base),
    )


def integrated_gradients(
    model: MlpModel,
    x,
    baseline,
    cfg: ExplainerConfig,
    target: ScalarTarget = ScalarTarget.LOGIT,
    fb: float | None = None,
) -> Attribution:
    """Path-integral attribution along the straight line baseline -> x.

    The integral of the gradient over the path is approximated by a midpoint
    Riemann sum over cfg.ig_steps points and multiplied elementwise by
    (x - baseline).
    """
    x, base = _check_pair(model, x, baseline)
    alphas = (np.arange(cfg.ig_steps) + 0.5) / cfg.ig_steps
    points = base[None, :] + alphas[:, None] * (x - base)[None, :]
    grads = nn.input_gradient_batch(model, points, target)
    scores = grads.mean(axis=0) * (x - base)
    return _attribution(Algorithm.INTEGRATED_GRADIENTS, model, x, base, scores,
                        target, fb)


def _rescale_relu(z: np.ndarray, z_ref: np.ndarray) -> np.ndarray:
    dz = z - z_ref
    use_ratio = np.abs(dz) > RESCALE_EPSILON
    safe = np.where(use_ratio, dz, 1.0)
    ratio = (np.maximum(z, 0.0) - np.maximum(z_ref, 0.0)) / safe
    return np.where(use_ratio, ratio, (z > 0).astype(np.float64))


def deeplift(
    model: MlpModel,
    x,
    baseline,
    target: ScalarTarget = ScalarTarget.LOGIT,
    fb: float | None = None,
) -> Attribution:
    """Rescale-rule attribution of the output difference against the baseline.

    Linear layers pass multipliers through their weights; each ReLU unit uses
    the ratio of its activation difference to its preactivation difference
    (or the ReLU derivative when that difference is below RESCALE_EPSILON).
    The scores sum to f(x) - f(baseline) up to float rounding; delta records
    the residual.
    """
    x, base = _check_pair(model, x, baseline)
    # preactivations of every layer for the input and the baseline
    zs, zs_ref = [], []
    a, a_ref = x, base
    for w, b in zip(model.weights, model.biases):
        z = w @ a + b
        z_ref = w @ a_ref + b
        zs.append(z)
        zs_ref.append(z_ref)
        a = np.maximum(z, 0.0)
        a_ref = np.maximum(z_ref, 0.0)

    if target is ScalarTarget.PROBABILITY:
        # the sigmoid head is a nonlinearity of its own; same rescale rule
        dz = zs[-1][0] - zs_ref[-1][0]
        if abs(dz) > RESCALE_EPSILON:
            mult = (nn._sigmoid(zs[-1])[0] - nn._sigmoid(zs_ref[-1])[0]) / dz
        else:
            p = nn._sigmoid(zs[-1])[0]
            mult = p * (1.0 - p)
        m = model.weights[-1][0] * mult
    else:
        m = model.weights[-1][0].copy()

    for i in range(len(model.weights) - 2, -1, -1):
        m = (m * _rescale_relu(zs[i], zs_ref[i])) @ model.weights[i]
    scores = m * (x - base)
    return _attribution(Algorithm.DEEPLIFT, model, x, base, scores, target, fb)


def gradient_shap(
    model: MlpModel,
    x,
    baseline,
    cfg: ExplainerConfig,
    target: ScalarTarget = ScalarTarget.LOGIT,
    record_id: int | None = None,
    fb: float | None = None,
) -> Attribution:
    """Expected-gradient attribution with Gaussian input smoothing.

    Each sample adds N(0, shap_stdev^2) noise to x, picks alpha uniform in
    [0, 1], evaluates the gradient at baseline + alpha * (noisy_x - baseline)
    and weights it by (x - baseline). Scores are the sample mean.
    """
    x, base = _check_pair(model, x, baseline)
    rng = _rng(cfg.seed, record_id)
    n = cfg.shap_samples
    noisy = x[None, :] + rng.normal(0.0, cfg.shap_stdev, size=(n, len(x)))
    alphas = rng.uniform(0.0, 1.0, size=(n, 1))
    points = base[None, :] + alphas * (noisy - base[None, :])
    grads = nn.input_gradient_batch(model, points, target)
    scores = grads.mean(axis=0) * (x - base)
    return _attribution(Algorithm.GRADIENT_SHAP, model, x, base, scores, target, fb)


def smoothgrad(
    model: MlpModel,
    x,
    baseline,
    cfg: ExplainerConfig,
    target: ScalarTarget = ScalarTarget.LOGIT,
    record_id: int | None = None,
    fb: float | None = None,
) -> Attribution:
    """Average gradient over Gaussian-perturbed copies of x.

    The baseline plays no part in the scores; it only anchors the
    informational delta so every algorithm emits the same vector layout.
    """
    x, base = _check_pair(model, x, baseline)
    rng = _rng(cfg.seed, record_id)
    n = cfg.smoothgrad_samples
    points = x[None, :] + rng.normal(0.0, cfg.smoothgrad_sigma, size=(n, len(x)))
    scores = nn.input_gradient_batch(model, points, target).mean(axis=0)
    return _attribution(Algorithm.SMOOTHGRAD, model, x, base, scores, target, fb)


def explain_record(
    model: MlpModel,
    x,
    baseline,
    algorithm: Algorithm,
    cfg: ExplainerConfig,
    target: ScalarTarget = ScalarTarget.LOGIT,
    record_id: int | None = None,
    fb: float | None = None,
) -> Attribution:
    """Dispatch a single record to the requested algorithm; fb, when given,
    is f(baseline)."""
    if algorithm is Algorithm.INTEGRATED_GRADIENTS:
        return integrated_gradients(model, x, baseline, cfg, target, fb)
    if algorithm is Algorithm.DEEPLIFT:
        return deeplift(model, x, baseline, target, fb)
    if algorithm is Algorithm.GRADIENT_SHAP:
        return gradient_shap(model, x, baseline, cfg, target, record_id, fb)
    if algorithm is Algorithm.SMOOTHGRAD:
        return smoothgrad(model, x, baseline, cfg, target, record_id, fb)
    raise ValueError(f"unknown algorithm: {algorithm}")


def explain_batch(
    model: MlpModel,
    X,
    baseline,
    algorithm: Algorithm,
    cfg: ExplainerConfig,
    target: ScalarTarget = ScalarTarget.LOGIT,
    record_ids=None,
) -> list[Attribution]:
    """Explain every row of X; record_ids seed the per-record noise streams.
    f(baseline) is evaluated once for the whole batch."""
    X = np.asarray(X, dtype=np.float64)
    if record_ids is None:
        record_ids = range(X.shape[0])
    record_ids = [int(r) for r in record_ids]
    if len(record_ids) != X.shape[0]:
        raise ValueError("record_ids must match the number of rows")
    fb = nn.forward(model, baseline, target) if record_ids else None
    return [
        explain_record(model, X[i], baseline, algorithm, cfg, target,
                       record_ids[i], fb)
        for i in range(X.shape[0])
    ]


def to_attack_vector(a: Attribution) -> np.ndarray:
    """scores with delta appended: the feature vector the adversary consumes."""
    return np.concatenate([a.scores, [a.delta]])


def write_attributions(path: str, attributions: list[Attribution], record_ids) -> None:
    """One row per record: id, algorithm, target, delta, then the scores.

    Floats are written with round-trip-safe precision (repr).
    """
    record_ids = list(record_ids)
    if len(record_ids) != len(attributions):
        raise ValueError("record_ids must match attributions")
    if attributions:
        dim = len(attributions[0].scores)
    else:
        dim = 0
    header = ["record_id", "algorithm", "target", "delta"] + [
        f"score_{i}" for i in range(dim)
    ]
    lines = [",".join(header)]
    for rid, a in zip(record_ids, attributions):
        fields = [
            str(int(rid)),
            a.algorithm.value,
            a.target.value if a.target else "",
            repr(float(a.delta)),
        ] + [repr(float(v)) for v in a.scores]
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_attributions(path: str) -> tuple[list[int], list[Attribution]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"empty attribution file: {path}")
    ids, attrs = [], []
    for line in lines[1:]:
        parts = line.split(",")
        ids.append(int(parts[0]))
        attrs.append(
            Attribution(
                algorithm=Algorithm(parts[1]),
                scores=np.array([float(v) for v in parts[4:]]),
                delta=float(parts[3]),
                target=ScalarTarget(parts[2]) if parts[2] else None,
                baseline_id="file",
            )
        )
    return ids, attrs
