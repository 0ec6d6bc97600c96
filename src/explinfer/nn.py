"""Fully-connected ReLU binary classifier with exact input gradients.

The network is a stack of linear layers with ReLU on the hidden layers and a
single sigmoid output unit. Besides training (binary cross-entropy, Adam
with the usual fixed betas and epsilon) it exposes reverse-mode gradients of
a chosen scalar output with respect to the input vector, which is the
primitive every explanation algorithm consumes. A model file holds the
layer widths and the parameters, nothing else.

All arithmetic is 64-bit. The ReLU subgradient at exactly zero is defined
as 0 so that gradients are a deterministic function of (model, input).

A forward pass over many rows runs FORWARD_ROWS rows at a time, so its
memory is bounded by one chunk's activations. The chunk boundaries depend
only on the row count, and the bits equal those of one pass over every row.
Training runs Adam inside the backward pass, so it holds the gradients of
one run of layers, not the whole model's. check_number is the package's one
rule for every count, seed, width, rate and record id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

ADAM_BLOCK = 32768  # elements per Adam block, and the least gradient buffer of train
FORWARD_ROWS = 1024  # rows per chunk of a forward pass over many rows
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


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
    seed: int = 0

    def __post_init__(self):
        for name, integer, positive in (("epochs", True, False), ("learning_rate", False, True),
                                        ("batch_size", True, True), ("seed", True, False)):
            check_number(name, getattr(self, name), integer, positive)


def check_number(name: str, value, integer: bool, positive: bool):
    """Return value if it is a number, never a bool: an integer >= 1 (>= 0
    where not positive) where integer is set, else a finite number > 0
    (>= 0). NumPy scalars count. Otherwise raise a ValueError that names
    it, such as `layer_dims[1] must be an integer >= 1, got 4.7`."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    try:
        ok = (isinstance(value, kinds) and not isinstance(value, bool)
              and (integer or math.isfinite(value)) and (value > 0 if positive else value >= 0))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        bound = (">= 1" if positive else ">= 0") if integer else ("> 0" if positive else ">= 0")
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {kind} {bound}, got {value!r}")
    return value


@dataclass
class MlpModel:
    """Weights and biases of the network.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]); biases[i] has
    length layer_dims[i+1]. The final layer has one output unit.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_dims=list(self.layer_dims),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_matrix(X, model: MlpModel, stack: bool = False) -> np.ndarray:
    """X as float64 rows (n, d), or with stack=True also a stack (k, m, d),
    where d is the model's input width."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 and not (stack and X.ndim == 3):
        raise ValueError(f"features must be a 2-D matrix, got ndim={X.ndim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contains non-finite values")
    if X.shape[-1] != model.input_dim:
        raise ValueError(
            f"features have {X.shape[-1]} columns, model expects {model.input_dim}"
        )
    return X


def init_model(layer_dims: list[int], seed: int) -> MlpModel:
    """Create a model with Glorot-uniform weights and zero biases.

    Weights for layer i are drawn uniformly from +-sqrt(6/(fan_in+fan_out)).
    The same seed always yields bit-identical parameters. A width of 4.7 or
    True raises, as check_number takes each width and the seed.
    """
    dims = [int(check_number(f"layer_dims[{i}]", d, True, True)) for i, d in enumerate(layer_dims)]
    if len(dims) < 2:
        raise ValueError("layer_dims needs at least an input and an output entry")
    if dims[-1] != 1:
        raise ValueError("the output layer must have exactly one unit")
    rng = np.random.default_rng(check_number("seed", seed, True, False))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases)


def _forward_parts(model: MlpModel, X: np.ndarray, keep=None):
    """Run the network on rows X (n, d) or on a stack X (k, m, d).

    Each layer is one `a @ w.T`. Over a stack numpy runs one gemm per slice,
    of the shape a lone (m, d) call has, so a slice's result does not depend
    on how many slices share the call. Returns (kept, logits): kept[0] is X,
    kept[i + 1] is keep(output of hidden layer i) (None without keep), and
    logits has the shape of X less its last axis.
    """
    kept, a = [X], X
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w.T
        z += b
        # ReLU in place: np.where(z > 0, z, 0.0), save that z = -0.0 may stay -0.0
        a = np.fmax(z, 0.0, out=z)
        kept.append(None if keep is None else keep(a))
    logits = a @ model.weights[-1].T + model.biases[-1]
    return kept, logits[..., 0]


def _select(logits: np.ndarray, target: ScalarTarget) -> np.ndarray:
    return logits if target is ScalarTarget.LOGIT else _sigmoid(logits)


def _chunked_logits(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """_forward_parts' logits of X, on row ranges that start at multiples of
    FORWARD_ROWS; a last range shorter than FORWARD_ROWS // 2 joins the one
    before it. Their bits equal one pass over all of X (tested at 1 and 2
    BLAS threads); near-equal ranges, or a short last range run alone, did
    not, in the last bits of a few rows."""
    starts = range(0, max(len(X) - FORWARD_ROWS // 2, 0) + 1, FORWARD_ROWS)
    if len(starts) == 1:
        return _forward_parts(model, X)[1]
    logits = np.empty(X.shape[:-1])
    for lo, hi in zip(starts, [*starts[1:], len(X)]):
        logits[lo:hi] = _forward_parts(model, X[lo:hi])[1]
    return logits


def forward_batch(model: MlpModel, X, target: ScalarTarget = ScalarTarget.PROBABILITY) -> np.ndarray:
    """Selected scalar output for every row of X, FORWARD_ROWS rows at a
    time, so a pass over n rows holds the activations of fewer than
    1.5 * FORWARD_ROWS of them."""
    return _select(_chunked_logits(model, _check_matrix(X, model)), target)


def forward(model: MlpModel, x, target: ScalarTarget = ScalarTarget.PROBABILITY) -> float:
    """Selected scalar output for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"input must be a 1-D vector, got ndim={x.ndim}")
    # forward_batch checks the width and that the values are finite
    return float(forward_batch(model, x[None, :], target)[0])


def forward_rows(model: MlpModel, X, target: ScalarTarget = ScalarTarget.PROBABILITY) -> np.ndarray:
    """Selected scalar output of each row of X, each row one slice of one
    stacked forward pass over X[:, None, :]. So every value equals
    forward(model, row) bit for bit, however many rows share the call;
    forward_batch may differ in the last bits. The slices run FORWARD_ROWS
    at a time, as in forward_batch."""
    X = _check_matrix(X, model)
    return _select(_chunked_logits(model, X[:, None, :])[:, 0], target)


def input_gradient_batch(model: MlpModel, X, target: ScalarTarget = ScalarTarget.LOGIT) -> np.ndarray:
    """Gradient of the selected scalar w.r.t. each row of X (n, d), or of
    each row of each slice of a stack X (k, m, d); the result has X's shape.
    The forward pass keeps only the ReLU masks, as bool."""
    X = _check_matrix(X, model, stack=True)
    masks, logits = _forward_parts(model, X, keep=lambda a: a > 0)
    g = np.empty((*X.shape[:-1], model.layer_dims[-2]))
    g[...] = model.weights[-1][0]
    for i in range(len(model.weights) - 2, -1, -1):
        g *= masks[i + 1]
        g = g @ model.weights[i]
    if target is ScalarTarget.PROBABILITY:
        p = _sigmoid(logits)
        g *= (p * (1.0 - p))[..., None]
    return g


def _bce_loss(logits: np.ndarray, y: np.ndarray) -> float:
    # log(1 + exp(z)) - y*z, computed stably
    return float(np.mean(np.logaddexp(0.0, logits) - y * logits))


def _backward(model: MlpModel, activations: list, logits: np.ndarray, y: np.ndarray,
              grads_w: list[np.ndarray], grads_b: list[np.ndarray]):
    """Backward pass of the mean binary cross-entropy over one batch, from
    the kept activations of _forward_parts and its logits. For each layer i,
    last first, it writes the layer's gradients into grads_w[i] and
    grads_b[i], then the gradient rows below the layer, from its weights as
    they stand, into its spent activation, which has their shape, and then
    yields i. So the caller may update layer i's parameters, and reuse the
    gradient buffers of layers i and above, before it resumes the pass."""
    g = ((_sigmoid(logits) - y) / len(y))[:, None]
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(g.T, activations[i], out=grads_w[i])
        np.sum(g, axis=0, out=grads_b[i])
        if i > 0:
            mask = activations[i] > 0
            g = np.matmul(g, model.weights[i], out=activations[i])
            g *= mask
        activations[i] = None
        yield i


def _flat_views(buf: np.ndarray, weights: list, biases: list) -> tuple[list, list]:
    """Views shaped like the weights and biases, layer after layer, into a
    flat buffer from its start."""
    shapes = [a.shape for wb in zip(weights, biases) for a in wb]
    ends = np.cumsum([math.prod(s) for s in shapes])
    views = [buf[e - math.prod(s):e].reshape(s) for s, e in zip(shapes, ends)]
    return views[0::2], views[1::2]


def _adam_step(p, g, m, v, t: int, cfg: TrainConfig, s1, s2) -> None:
    """Adam step t, in place, ADAM_BLOCK elements at a time with scratch s1
    and s2: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g, then
    p -= lr*(m/c1) / (sqrt(v/c2) + eps), each in this operation order."""
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, cfg.learning_rate
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for lo in range(0, p.size, ADAM_BLOCK):
        pb, gb, mb, vb = (x[lo:lo + ADAM_BLOCK] for x in (p, g, m, v))
        a, d = s1[:pb.size], s2[:pb.size]
        mb *= b1
        np.multiply(gb, 1 - b1, out=a)
        mb += a
        vb *= b2
        np.multiply(gb, gb, out=a)
        a *= 1 - b2
        vb += a
        np.divide(mb, c1, out=a)
        a *= lr
        np.divide(vb, c2, out=d)
        np.sqrt(d, out=d)
        d += eps
        a /= d
        pb -= a


def train(model: MlpModel, features, labels, cfg: TrainConfig) -> MlpModel:
    """Train a copy of the model with Adam on binary cross-entropy.

    The input model is left untouched. Mini-batches are drawn from a fresh
    seeded shuffle each epoch, so (cfg.seed, data order) fully determines the
    returned parameters. Raises TrainingDivergence, before any parameter of
    its step changes, if the loss goes non-finite.

    Adam runs inside the backward pass, on each run of consecutive layers
    that fits one gradient buffer of max(largest layer, min(parameters,
    ADAM_BLOCK)) elements, once the run's gradients are written; Adam is
    elementwise, so the bits equal those of one update after the pass.
    Training holds the parameters, both Adam moments, that buffer and one
    batch's activations, which the backward pass overwrites with gradient
    rows; from CPython 3.11 it holds no copy of a model passed inline, as
    in train(init_model(...), ...).
    """
    X = _check_matrix(features, model)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} feature rows vs {y.shape[0]} labels")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")

    # parameters and both Adam moments in three flat buffers; p is read
    # straight from the input model, which this frame then lets go of
    p = np.concatenate([a.ravel() for wb in zip(model.weights, model.biases) for a in wb])
    out = MlpModel(list(model.layer_dims), *_flat_views(p, model.weights, model.biases))
    del model
    m, v = np.zeros_like(p), np.zeros_like(p)
    # layer i is p[at[i]:at[i + 1]]; the run of layers lo..hi-1 has its
    # gradients at the start of g, and runs[lo] is its range in p
    sizes = [w.size + b.size for w, b in zip(out.weights, out.biases)]
    at = [0, *np.cumsum(sizes).tolist()]
    g = np.empty(max(*sizes, min(p.size, ADAM_BLOCK)))
    grads_w, grads_b, runs, hi = [None] * len(sizes), [None] * len(sizes), {}, len(sizes)
    for lo in range(len(sizes) - 1, -1, -1):
        if lo == 0 or at[hi] - at[lo - 1] > g.size:  # layer lo - 1 would not fit
            grads_w[lo:hi], grads_b[lo:hi] = _flat_views(g, out.weights[lo:hi], out.biases[lo:hi])
            runs[lo], hi = (at[lo], at[hi]), lo
    s1, s2 = np.empty(min(p.size, ADAM_BLOCK)), np.empty(min(p.size, ADAM_BLOCK))
    rng = np.random.default_rng(cfg.seed)
    t = 0
    n = X.shape[0]
    # an overflow surfaces as a non-finite loss, which TrainingDivergence reports
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                activations, logits = _forward_parts(out, X[idx], keep=lambda a: a)
                yb = y[idx]
                if not math.isfinite(_bce_loss(logits, yb)):
                    raise TrainingDivergence(
                        f"non-finite training loss at epoch {epoch}, step {t}"
                    )
                t += 1
                for i in _backward(out, activations, logits, yb, grads_w, grads_b):
                    if i in runs:
                        a, b = runs[i]
                        _adam_step(p[a:b], g[:b - a], m[a:b], v[a:b], t, cfg, s1, s2)
    del g, m, v, grads_w, grads_b, s1, s2  # only p is left to copy out
    return out.copy()  # own contiguous arrays, not views of p


def save_model(model: MlpModel, path: str) -> None:
    """Write the model to an npz container; parameters round-trip bit-exactly."""
    arrays = {"layer_dims": np.asarray(model.layer_dims, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"W{i}"] = w
        arrays[f"b{i}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path: str) -> MlpModel:
    with np.load(path, allow_pickle=False) as f:
        dims = [int(d) for d in f["layer_dims"]]
        weights = [f[f"W{i}"] for i in range(len(dims) - 1)]
        biases = [f[f"b{i}"] for i in range(len(dims) - 1)]
    return MlpModel(layer_dims=dims, weights=weights, biases=biases)
