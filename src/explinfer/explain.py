"""Attribute-based explanations of the binary classifier.

Four algorithms produce a per-feature score vector phi for each input record
against a baseline (here conventionally the column-mean of the training
inputs), plus a signed completeness residual

    delta = f(x) - f(baseline) - sum(phi)

IntegratedGradients, DeepLift and GradientSHAP satisfy (approximate or
exact) completeness, so delta measures approximation error. SmoothGrad has
no such guarantee; its delta is recorded with the same formula purely for
uniformity of the attack surfaces.

explain_batch is the one entry point, and a single record is a batch of one.
It returns one Explanations: the (n, d) scores and (n,) deltas of the batch,
which every consumer takes whole or slices by record.
A record's m gradient points are one slice of a stacked (k, m, d) input, and
every layer runs as one stacked matmul, which numpy computes as one gemm per
slice with the shape a lone record's call has. So a record's scores and
delta never depend on how many records share a call or how they are chunked.
Stochastic explainers draw all noise from a generator derived from (config
seed, record id), so serial, parallel and remote executions of the same
record agree bit-for-bit. A record id must be an integer >= 0
(check_record_ids), so an id of 2.9 raises rather than reuse record 2's noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import nn
from .nn import MlpModel, ScalarTarget

# below this preactivation difference the DeepLift rescale ratio is replaced
# by the derivative of the unit to avoid near-zero division
RESCALE_EPSILON = 1e-7
GRAD_ROWS = 256  # gradient rows per stacked call: a chunk's ReLU masks stay small


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
        for name, integer, positive in (
                ("ig_steps", True, True), ("shap_samples", True, True),
                ("shap_stdev", False, False), ("smoothgrad_samples", True, True),
                ("smoothgrad_sigma", False, False), ("seed", True, False)):
            nn.check_number(name, getattr(self, name), integer, positive)


@dataclass(eq=False)  # an array comparison has no single truth value
class Explanations:
    """The explanations of n records: scores phi (n, d) and the completeness
    residual delta (n,) of each, for one algorithm and explained scalar
    (None for an empty remote fetch, which no answer names). Indexing picks
    records: e[i] is one record, with scores (d,) and a scalar delta, and
    e[a:b] a run of records."""

    algorithm: Algorithm
    target: ScalarTarget | None
    scores: np.ndarray
    delta: np.ndarray

    def __len__(self) -> int:
        return len(self.delta)

    def __getitem__(self, i) -> "Explanations":
        return Explanations(self.algorithm, self.target, self.scores[i], self.delta[i])


def check_record_ids(record_ids, n: int) -> list[int]:
    """record_ids as a list of n ints, each an integer >= 0 by nn.check_number;
    explain_batch and both ends of the service share this rule."""
    ids = [int(nn.check_number(f"record_ids[{i}]", r, True, False))
           for i, r in enumerate(record_ids)]
    if len(ids) != n:
        raise ValueError(f"record_ids has {len(ids)} ids for {n} records")
    return ids


def mean_baseline(features) -> np.ndarray:
    """Column-wise arithmetic mean of a feature matrix."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("mean_baseline needs a matrix with at least one row")
    return X.mean(axis=0)


def _integrated_gradients(model, X, base, cfg, target, ids) -> np.ndarray:
    """Path-integral attribution along the straight line baseline -> x.

    The integral of the gradient over the path is approximated by a midpoint
    Riemann sum over cfg.ig_steps points and multiplied elementwise by
    (x - baseline).
    """
    alphas = (np.arange(cfg.ig_steps) + 0.5) / cfg.ig_steps
    points = base + alphas[:, None] * (X - base)[:, None, :]
    return nn.input_gradient_batch(model, points, target).mean(axis=1) * (X - base)


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _rescale(z, z_ref, f, slope) -> np.ndarray:
    """Rescale-rule multipliers of the unit f: (f(z) - f(z_ref)) / (z - z_ref),
    or slope where |z - z_ref| is at most RESCALE_EPSILON."""
    dz = z - z_ref
    use_ratio = np.abs(dz) > RESCALE_EPSILON
    ratio = (f(z) - f(z_ref)) / np.where(use_ratio, dz, 1.0)
    return np.where(use_ratio, ratio, slope)


def _deeplift(model, X, base, cfg, target, ids) -> np.ndarray:
    """Rescale-rule attribution of the output difference against the baseline.

    Linear layers pass multipliers through their weights; each ReLU unit uses
    the ratio of its activation difference to its preactivation difference
    (or the ReLU derivative when that difference is below RESCALE_EPSILON).
    The scores sum to f(x) - f(baseline) up to float rounding; delta records
    the residual. The baseline pass runs once per chunk.
    """
    # preactivations of every layer: (k, 1, width) for X, (width,) for the baseline
    zs, zs_ref = [], []
    a, a_ref = X[:, None, :], base
    for w, b in zip(model.weights, model.biases):
        zs.append(a @ w.T + b)
        zs_ref.append(w @ a_ref + b)
        a, a_ref = _relu(zs[-1]), _relu(zs_ref[-1])

    m = model.weights[-1][0]
    if target is ScalarTarget.PROBABILITY:
        # the sigmoid head is a nonlinearity of its own; same rescale rule
        p = nn._sigmoid(zs[-1])
        m = m * _rescale(zs[-1], zs_ref[-1], nn._sigmoid, p * (1.0 - p))
    for i in range(len(model.weights) - 2, -1, -1):
        slope = (zs[i] > 0).astype(np.float64)
        m = (m * _rescale(zs[i], zs_ref[i], _relu, slope)) @ model.weights[i]
    return (m * (X - base)[:, None, :])[:, 0]


def _gradient_shap(model, X, base, cfg, target, ids) -> np.ndarray:
    """Expected-gradient attribution with Gaussian input smoothing.

    Each sample adds N(0, shap_stdev^2) noise to x, picks alpha uniform in
    [0, 1], evaluates the gradient at baseline + alpha * (noisy_x - baseline)
    and weights it by (x - baseline). Scores are the sample mean.
    """
    n = cfg.shap_samples
    points = np.empty((len(X), n, X.shape[1]))
    for x, rid, out in zip(X, ids, points):
        rng = np.random.default_rng([cfg.seed, rid])
        noisy = x + rng.normal(0.0, cfg.shap_stdev, size=(n, len(x)))
        out[...] = base + rng.uniform(0.0, 1.0, size=(n, 1)) * (noisy - base)
    return nn.input_gradient_batch(model, points, target).mean(axis=1) * (X - base)


def _smoothgrad(model, X, base, cfg, target, ids) -> np.ndarray:
    """Average gradient over Gaussian-perturbed copies of x.

    The baseline plays no part in the scores; it only anchors the
    informational delta so every algorithm emits the same vector layout.
    """
    n = cfg.smoothgrad_samples
    points = np.stack([
        x + np.random.default_rng([cfg.seed, rid]).normal(0.0, cfg.smoothgrad_sigma, (n, len(x)))
        for x, rid in zip(X, ids)])
    return nn.input_gradient_batch(model, points, target).mean(axis=1)


def _explainer(algorithm: Algorithm, cfg: ExplainerConfig):
    """The algorithm's body, scores of a (k, d) chunk, and the rows each
    record counts against GRAD_ROWS."""
    if algorithm is Algorithm.INTEGRATED_GRADIENTS:
        return _integrated_gradients, cfg.ig_steps
    if algorithm is Algorithm.DEEPLIFT:
        # a record's float preactivations and rescale temporaries of every
        # layer take several gradient rows' memory: at 64 or more records a
        # chunk, the freed chunks raised the peak RSS of a later training
        return _deeplift, 8
    if algorithm is Algorithm.GRADIENT_SHAP:
        return _gradient_shap, cfg.shap_samples
    if algorithm is Algorithm.SMOOTHGRAD:
        return _smoothgrad, cfg.smoothgrad_samples
    raise ValueError(f"unknown algorithm: {algorithm}")


def explain_batch(
    model: MlpModel,
    X,
    baseline,
    algorithm: Algorithm,
    cfg: ExplainerConfig,
    target: ScalarTarget = ScalarTarget.LOGIT,
    record_ids=None,
    *,
    f_baseline=None,
) -> Explanations:
    """Explain every row of X; record_ids (default 0..n-1, else checked by
    check_record_ids) seed the per-record noise streams.

    Records go through in chunks of at most GRAD_ROWS gradient rows (at
    least one record). f(x) is evaluated once per chunk, after the chunk's
    scores, and f(baseline), nn.forward(model, baseline, target), once per
    call unless the caller passes it as f_baseline: the server computes it
    once per served target.
    """
    X = nn._check_matrix(X, model)
    base = np.asarray(baseline, dtype=np.float64)
    if base.shape != (model.input_dim,):
        raise ValueError(f"baseline must have length {model.input_dim}, got {base.shape}")
    ids = list(range(len(X))) if record_ids is None else check_record_ids(record_ids, len(X))
    body, rows = _explainer(algorithm, cfg)
    if f_baseline is None and ids:
        f_baseline = nn.forward(model, base, target)
    scores, delta = np.empty(X.shape), np.empty(len(X))
    k = max(1, GRAD_ROWS // rows)
    for lo in range(0, len(ids), k):
        hi = lo + k
        scores[lo:hi] = body(model, X[lo:hi], base, cfg, target, ids[lo:hi])
        f_x = nn.forward_rows(model, X[lo:hi], target)
        delta[lo:hi] = f_x - f_baseline - scores[lo:hi].sum(axis=1)
    return Explanations(algorithm, target, scores, delta)
