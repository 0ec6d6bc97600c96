"""Fully-connected ReLU binary classifier with exact input gradients.

The network is a stack of linear layers with ReLU on the hidden layers and a
single sigmoid output unit. Besides training (Adam, binary cross-entropy) it
exposes reverse-mode gradients of a chosen scalar output with respect to the
input vector, which is the primitive every explanation algorithm consumes.

All arithmetic is 64-bit. The ReLU subgradient at exactly zero is defined
as 0 so that gradients are a deterministic function of (model, input).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np


class ScalarTarget(Enum):
    """Which scalar output of the model is evaluated/differentiated.

    LOGIT is the pre-sigmoid score of the positive class; PROBABILITY is
    sigmoid(logit). Explanations default to LOGIT, whose gradients do not
    vanish when the sigmoid saturates.
    """

    LOGIT = "logit"
    PROBABILITY = "probability"


class TrainingDivergence(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-3
    batch_size: int = 256
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ValueError("adam betas must lie in (0, 1)")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class MlpModel:
    """Weights and biases of the network.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]); biases[i] has
    length layer_dims[i+1]. The final layer has one output unit.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    init_seed: int | None = None
    train_config: TrainConfig | None = None

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_hidden(self) -> int:
        return len(self.layer_dims) - 2

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_dims=list(self.layer_dims),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            init_seed=self.init_seed,
            train_config=self.train_config,
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_matrix(X, name="features") -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={X.ndim}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite values")
    return X


def _check_input(model: MlpModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"input must be a 1-D vector, got ndim={x.ndim}")
    if x.shape[0] != model.input_dim:
        raise ValueError(
            f"input has length {x.shape[0]}, model expects {model.input_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return x


def init_model(layer_dims: list[int], seed: int) -> MlpModel:
    """Create a model with Glorot-uniform weights and zero biases.

    Weights for layer i are drawn uniformly from +-sqrt(6/(fan_in+fan_out)).
    The same seed always yields bit-identical parameters.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise ValueError("layer_dims needs at least an input and an output entry")
    if any(d <= 0 for d in dims):
        raise ValueError("all layer dimensions must be positive")
    if dims[-1] != 1:
        raise ValueError("the output layer must have exactly one unit")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases, init_seed=int(seed))


def _forward_parts(model: MlpModel, X: np.ndarray):
    """Run the network on a batch, keeping hidden activations and ReLU masks.

    Returns (activations, masks, logits) where activations[i] is the input to
    layer i, masks[i] the ReLU mask of hidden layer i, logits shape (n,).
    """
    activations = [X]
    masks = []
    a = X
    for i in range(len(model.weights) - 1):
        z = a @ model.weights[i].T + model.biases[i]
        mask = z > 0
        a = np.where(mask, z, 0.0)
        activations.append(a)
        masks.append(mask)
    logits = a @ model.weights[-1].T + model.biases[-1]
    return activations, masks, logits[:, 0]


def logits_batch(model: MlpModel, X) -> np.ndarray:
    X = _check_matrix(X)
    if X.shape[1] != model.input_dim:
        raise ValueError(
            f"features have {X.shape[1]} columns, model expects {model.input_dim}"
        )
    _, _, logits = _forward_parts(model, X)
    return logits


def forward_batch(model: MlpModel, X, target: ScalarTarget = ScalarTarget.PROBABILITY) -> np.ndarray:
    """Selected scalar output for every row of X."""
    logits = logits_batch(model, X)
    if target is ScalarTarget.LOGIT:
        return logits
    return _sigmoid(logits)


def forward(model: MlpModel, x, target: ScalarTarget = ScalarTarget.PROBABILITY) -> float:
    """Selected scalar output for a single input vector."""
    x = _check_input(model, x)
    return float(forward_batch(model, x[None, :], target)[0])


def forward_rows(model: MlpModel, X) -> np.ndarray:
    """Probability of each row alone; forward_batch may differ in the last bits."""
    return np.array([forward(model, x) for x in X], dtype=np.float64)


def input_gradient_batch(model: MlpModel, X, target: ScalarTarget = ScalarTarget.LOGIT) -> np.ndarray:
    """Gradient of the selected scalar w.r.t. each row of X, shape (n, d)."""
    X = _check_matrix(X)
    if X.shape[1] != model.input_dim:
        raise ValueError(
            f"features have {X.shape[1]} columns, model expects {model.input_dim}"
        )
    _, masks, logits = _forward_parts(model, X)
    n = X.shape[0]
    g = np.repeat(model.weights[-1], n, axis=0)
    for i in range(len(model.weights) - 2, -1, -1):
        g = (g * masks[i]) @ model.weights[i]
    if target is ScalarTarget.PROBABILITY:
        p = _sigmoid(logits)
        g = g * (p * (1.0 - p))[:, None]
    return g


def input_gradient(model: MlpModel, x, target: ScalarTarget = ScalarTarget.LOGIT) -> np.ndarray:
    x = _check_input(model, x)
    return input_gradient_batch(model, x[None, :], target)[0]


def _bce_loss(logits: np.ndarray, y: np.ndarray) -> float:
    # log(1 + exp(z)) - y*z, computed stably; overflow surfaces as a
    # non-finite value and is reported by train() as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(np.logaddexp(0.0, logits) - y * logits))


def _param_gradients(model: MlpModel, X: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy loss and its gradients for one batch."""
    activations, masks, logits = _forward_parts(model, X)
    n = X.shape[0]
    loss = _bce_loss(logits, y)
    dz = ((_sigmoid(logits) - y) / n)[:, None]
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.weights)
    g = dz
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = g.T @ activations[i]
        grads_b[i] = g.sum(axis=0)
        if i > 0:
            g = (g @ model.weights[i]) * masks[i - 1]
    return loss, grads_w, grads_b


def train(model: MlpModel, features, labels, cfg: TrainConfig) -> MlpModel:
    """Train a copy of the model with Adam on binary cross-entropy.

    The input model is left untouched. Mini-batches are drawn from a fresh
    seeded shuffle each epoch, so (cfg.seed, data order) fully determines the
    returned parameters. Raises TrainingDivergence if the loss goes
    non-finite.
    """
    X = _check_matrix(features)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} feature rows vs {y.shape[0]} labels")
    if X.shape[1] != model.input_dim:
        raise ValueError(
            f"features have {X.shape[1]} columns, model expects {model.input_dim}"
        )
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")

    out = model.copy()
    out.train_config = cfg
    if cfg.epochs == 0:
        return out

    rng = np.random.default_rng(cfg.seed)
    m_w = [np.zeros_like(w) for w in out.weights]
    v_w = [np.zeros_like(w) for w in out.weights]
    m_b = [np.zeros_like(b) for b in out.biases]
    v_b = [np.zeros_like(b) for b in out.biases]
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon, cfg.learning_rate
    t = 0
    n = X.shape[0]
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            loss, gw, gb = _param_gradients(out, X[idx], y[idx])
            if not math.isfinite(loss):
                raise TrainingDivergence(
                    f"non-finite training loss at epoch {epoch}, step {t}"
                )
            t += 1
            c1 = 1.0 - b1**t
            c2 = 1.0 - b2**t
            for i in range(len(out.weights)):
                m_w[i] = b1 * m_w[i] + (1 - b1) * gw[i]
                v_w[i] = b2 * v_w[i] + (1 - b2) * gw[i] ** 2
                out.weights[i] -= lr * (m_w[i] / c1) / (np.sqrt(v_w[i] / c2) + eps)
                m_b[i] = b1 * m_b[i] + (1 - b1) * gb[i]
                v_b[i] = b2 * v_b[i] + (1 - b2) * gb[i] ** 2
                out.biases[i] -= lr * (m_b[i] / c1) / (np.sqrt(v_b[i] / c2) + eps)
    return out


def evaluate_accuracy(model: MlpModel, features, labels) -> float:
    """Fraction of rows where (probability >= 0.5) equals the label."""
    X = _check_matrix(features)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if X.shape[0] == 0:
        raise ValueError("cannot evaluate accuracy on an empty set")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} feature rows vs {y.shape[0]} labels")
    probs = forward_batch(model, X, ScalarTarget.PROBABILITY)
    preds = (probs >= 0.5).astype(np.float64)
    return float(np.mean(preds == y))


def save_model(model: MlpModel, path: str) -> None:
    """Write the model to an npz container; parameters round-trip bit-exactly."""
    meta = {
        "init_seed": model.init_seed,
        "train_config": asdict(model.train_config) if model.train_config else None,
    }
    arrays = {"layer_dims": np.asarray(model.layer_dims, dtype=np.int64),
              "meta": np.array(json.dumps(meta, sort_keys=True))}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"W{i}"] = w
        arrays[f"b{i}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path: str) -> MlpModel:
    with np.load(path, allow_pickle=False) as f:
        dims = [int(d) for d in f["layer_dims"]]
        meta = json.loads(str(f["meta"][()]))
        weights = [f[f"W{i}"] for i in range(len(dims) - 1)]
        biases = [f[f"b{i}"] for i in range(len(dims) - 1)]
    cfg = meta.get("train_config")
    return MlpModel(
        layer_dims=dims,
        weights=weights,
        biases=biases,
        init_seed=meta.get("init_seed"),
        train_config=TrainConfig(**cfg) if cfg else None,
    )
