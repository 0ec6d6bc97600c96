import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explinfer import attack, explain, forest, metrics, nn, service
from explinfer.nn import MlpModel, ScalarTarget, TrainConfig, TrainingDivergence


def brute_force_forward(model, x):
    """Independent layer-by-layer re-evaluation with plain Python loops."""
    a = [float(v) for v in x]
    n_layers = len(model.weights)
    for li in range(n_layers):
        w, b = model.weights[li], model.biases[li]
        out = []
        for r in range(w.shape[0]):
            acc = float(b[r])
            for c in range(w.shape[1]):
                acc += float(w[r, c]) * a[c]
            out.append(acc)
        if li < n_layers - 1:
            a = [v if v > 0 else 0.0 for v in out]
        else:
            a = out
    logit = a[0]
    return logit, 1.0 / (1.0 + math.exp(-logit))


def central_differences(model, x, target, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (nn.forward(model, xp, target) - nn.forward(model, xm, target)) / (2 * h)
    return g


def gradient(model, x, target=ScalarTarget.LOGIT):
    """Input gradient of one record, as a batch of one."""
    return nn.input_gradient_batch(model, np.asarray(x)[None, :], target)[0]


def linear_model(w, b=0.0):
    w = np.asarray(w, dtype=np.float64)
    m = nn.init_model([len(w), 1], seed=0)
    m.weights[0] = w[None, :].copy()
    m.biases[0] = np.array([float(b)])
    return m


def min_abs_preactivation(model, x):
    a = x[None, :]
    worst = np.inf
    for i in range(len(model.weights) - 1):
        z = a @ model.weights[i].T + model.biases[i]
        worst = min(worst, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
    return worst


def textbook_train(model, X, y, cfg):
    """Adam on binary cross-entropy as a plain loop: a list of arrays per
    parameter and moment, and a fresh array for every operation."""
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    b1, b2, eps, lr = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPSILON, cfg.learning_rate
    rng = np.random.default_rng(cfg.seed)
    t = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            Xb, yb = X[idx], y[idx]
            activations, masks, a = [Xb], [], Xb
            for w, b in zip(weights[:-1], biases[:-1]):
                z = a @ w.T + b
                masks.append(z > 0)
                a = np.where(masks[-1], z, 0.0)
                activations.append(a)
            logits = (a @ weights[-1].T + biases[-1])[:, 0]
            g = ((nn._sigmoid(logits) - yb) / Xb.shape[0])[:, None]
            gw, gb = [None] * len(weights), [None] * len(weights)
            for i in range(len(weights) - 1, -1, -1):
                gw[i] = g.T @ activations[i]
                gb[i] = g.sum(axis=0)
                if i > 0:
                    g = (g @ weights[i]) * masks[i - 1]
            t += 1
            c1 = 1.0 - b1**t
            c2 = 1.0 - b2**t
            for i in range(len(weights)):
                m_w[i] = b1 * m_w[i] + (1 - b1) * gw[i]
                v_w[i] = b2 * v_w[i] + (1 - b2) * gw[i] ** 2
                weights[i] -= lr * (m_w[i] / c1) / (np.sqrt(v_w[i] / c2) + eps)
                m_b[i] = b1 * m_b[i] + (1 - b1) * gb[i]
                v_b[i] = b2 * v_b[i] + (1 - b2) * gb[i] ** 2
                biases[i] -= lr * (m_b[i] / c1) / (np.sqrt(v_b[i] / c2) + eps)
    return weights, biases


def trained_parameter_digest(layer_dims) -> str:
    """Digest of the parameters of a target trained with 256-row batches
    and a partial last batch (1,200 rows)."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1200, 100))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(float)
    model = nn.init_model(layer_dims, seed=1)
    trained = nn.train(model, X, y, TrainConfig(epochs=2, batch_size=256, seed=2))
    digest = hashlib.sha256()
    for w, b in zip(trained.weights, trained.biases):
        digest.update(w.tobytes() + b.tobytes())
    return digest.hexdigest()


def chunked_forward_mismatches(layer_dims, rows_up_to) -> list:
    """(n, pass) for each n in FORWARD_SIZES at which forward_batch, at either
    target, or, for n <= rows_up_to, forward_rows differs in any bit from one
    unchunked _forward_parts pass over the same rows."""
    model = nn.init_model(layer_dims, seed=1)
    rng = np.random.default_rng(2)
    for b in model.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    found = []
    for n in FORWARD_SIZES:
        X = rng.normal(size=(n, layer_dims[0]))
        logits = nn._forward_parts(model, X)[1]
        passes = [("logit", nn.forward_batch(model, X, ScalarTarget.LOGIT), logits),
                  ("probability", nn.forward_batch(model, X), nn._sigmoid(logits))]
        if n <= rows_up_to:
            passes.append(("rows", nn.forward_rows(model, X, ScalarTarget.LOGIT),
                           nn._forward_parts(model, X[:, None, :])[1][:, 0]))
        found += [(n, name) for name, got, want in passes
                  if got.shape != (n,) or got.tobytes() != want.tobytes()]
    return found


def answers_at_one_and_two_blas_threads(code: str) -> list[str]:
    """stdout of `code` run with `from test_nn import *` in two child processes
    at once, at 1 and at 2 OpenBLAS threads; OpenBLAS reads its thread count
    at load."""
    src = os.path.dirname(os.path.dirname(nn.__file__))
    children = [subprocess.Popen(
        [sys.executable, "-c", f"from test_nn import *\n{code}"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                 PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)])),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for threads in ("1", "2")]
    try:
        answers = []
        for child in children:
            out, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
            answers.append(out)
        return answers
    finally:
        for child in children:
            child.kill()


# a [3, BLOCK_WIDE, BLOCK_WIDE, 1] net has more than ADAM_BLOCK parameters
BLOCK_WIDE = math.isqrt(nn.ADAM_BLOCK) + 1

# the census net of the desk-scale run: bytes of one copy of its parameters,
# of its largest layer's weights and biases, and of the hidden activations of
# one 256-row batch
CENSUS_NET = [100, 1024, 512, 256, 128, 1]
CENSUS_COPY_BYTES = 8 * sum(i * o + o for i, o in zip(CENSUS_NET[:-1], CENSUS_NET[1:]))
CENSUS_LAYER_BYTES = 8 * max(i * o + o for i, o in zip(CENSUS_NET[:-1], CENSUS_NET[1:]))
CENSUS_ACTIVATION_BYTES = 8 * 256 * sum(CENSUS_NET[1:-1])

# row counts around the FORWARD_ROWS boundaries, up to the census test set's
FORWARD_SIZES = [1, 2, 1023, 1024, 1025, 1026, 1060, 1535, 1536, 1537, 2049, 6783, 13567]


class TestInitModel:
    def test_same_seed_identical(self):
        a = nn.init_model([3, 1], seed=7)
        b = nn.init_model([3, 1], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_too_few_dims(self):
        with pytest.raises(ValueError):
            nn.init_model([3], seed=0)

    def test_nonpositive_dim(self):
        with pytest.raises(ValueError):
            nn.init_model([3, 0, 1], seed=0)
        with pytest.raises(ValueError):
            nn.init_model([], seed=0)

    def test_output_must_be_scalar(self):
        with pytest.raises(ValueError):
            nn.init_model([3, 4, 2], seed=0)

    def test_four_hidden_layer_stack(self):
        m = nn.init_model([14, 1024, 512, 256, 128, 1], seed=1)
        assert [w.shape for w in m.weights] == [
            (1024, 14), (512, 1024), (256, 512), (128, 256), (1, 128)]
        assert [len(b) for b in m.biases] == [1024, 512, 256, 128, 1]

    def test_weight_range(self):
        m = nn.init_model([10, 5, 1], seed=3)
        lim0 = math.sqrt(6.0 / (10 + 5))
        assert np.all(np.abs(m.weights[0]) <= lim0)
        assert np.all(m.biases[0] == 0.0)


class TestForward:
    def test_zero_model_probability_half(self):
        m = linear_model([0.0, 0.0, 0.0])
        assert nn.forward(m, [1.0, -2.0, 3.5], ScalarTarget.PROBABILITY) == 0.5

    def test_linear_logit_dot_product(self):
        m = linear_model([2.0, -1.0])
        assert nn.forward(m, [1.0, 1.0], ScalarTarget.LOGIT) == 1.0

    def test_matches_brute_force_reevaluation(self):
        rng = np.random.default_rng(11)
        m = nn.init_model([4, 6, 5, 1], seed=5)
        for _ in range(5):
            x = rng.normal(size=4)
            logit_oracle, prob_oracle = brute_force_forward(m, x)
            assert nn.forward(m, x, ScalarTarget.LOGIT) == pytest.approx(
                logit_oracle, rel=1e-12)
            assert nn.forward(m, x, ScalarTarget.PROBABILITY) == pytest.approx(
                prob_oracle, rel=1e-12)

    def test_dimension_mismatch(self):
        m = nn.init_model([3, 1], seed=0)
        with pytest.raises(ValueError):
            nn.forward(m, [1.0, 2.0])

    def test_input_of_the_wrong_rank(self):
        m = nn.init_model([3, 1], seed=0)
        with pytest.raises(ValueError, match="1-D vector, got ndim=2"):
            nn.forward(m, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="2-D matrix, got ndim=3"):
            nn.forward_batch(m, np.zeros((1, 1, 3)))

    def test_nonfinite_input(self):
        m = nn.init_model([2, 1], seed=0)
        with pytest.raises(ValueError):
            nn.forward(m, [np.nan, 0.0])

    def test_empty_input(self):
        m = nn.init_model([3, 4, 1], seed=0)
        for forward in (nn.forward_batch, nn.forward_rows):
            assert forward(m, np.zeros((0, 3))).shape == (0,)

    def test_chunked_passes_bit_identical_to_one_pass(self):
        """forward_batch and forward_rows run FORWARD_ROWS rows at a time and
        still equal one pass over all rows, at 1 and 2 BLAS threads, on the
        census net, the matrix target, the attack MLP and a small net.
        Near-equal chunks, or a short last chunk run alone, differ in some
        rows. Each of forward_rows' rows is its own slice, so its boundaries
        cannot change bits; it runs every size only on the two small nets,
        where a row costs microseconds, to check that the chunks are joined."""
        nets = [(CENSUS_NET, 2), ([100, 512, 256, 128, 1], 2),
                ([101, 64, 128, 32, 1], 2049), ([5, 16, 8, 1], 2049)]
        code = f"print([chunked_forward_mismatches(*net) for net in {nets}])"
        assert answers_at_one_and_two_blas_threads(code) == [f"{[[]] * 4}\n"] * 2

    def test_peak_memory_of_a_pass_over_many_rows(self):
        """A pass over the census test set's 13,567 rows holds the activations
        of one chunk of under 1.5 * FORWARD_ROWS rows, not of every row."""
        X = np.random.default_rng(0).normal(size=(13567, 100))
        model = nn.init_model(CENSUS_NET, seed=1)
        tracemalloc.start()
        try:
            nn.forward_batch(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * nn.FORWARD_ROWS * sum(CENSUS_NET[1:3])

    def test_probability_in_open_interval(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            m = nn.init_model([6, 8, 1], seed=seed)
            X = rng.normal(size=(20, 6)) * 10
            p = nn.forward_batch(m, X, ScalarTarget.PROBABILITY)
            assert np.all((p > 0.0) & (p < 1.0))


class TestInputGradient:
    def test_linear_model_gradient_is_weights(self):
        w = np.array([0.5, -2.0, 3.0])
        m = linear_model(w)
        g = gradient(m, np.array([1.0, 2.0, 3.0]), ScalarTarget.LOGIT)
        assert np.array_equal(g, w)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 10:
            m = nn.init_model([5, 8, 6, 1], seed=int(rng.integers(10_000)))
            x = rng.normal(size=5)
            if min_abs_preactivation(m, x) < 1e-3:
                continue
            for target in ScalarTarget:
                g = gradient(m, x, target)
                fd = central_differences(m, x, target)
                scale = np.maximum(np.abs(fd), 1e-8)
                assert np.max(np.abs(g - fd) / scale) < 1e-4
            checked += 1

    def test_dead_relu_region_zero_gradient(self):
        m = nn.init_model([3, 4, 1], seed=9)
        m.biases[0] = np.full(4, -100.0)  # all hidden units off near the origin
        g = gradient(m, np.zeros(3), ScalarTarget.LOGIT)
        assert np.array_equal(g, np.zeros(3))

    def test_constant_within_activation_region(self):
        # fixed ReLU pattern => logit affine in x, gradient constant
        m = nn.init_model([4, 6, 5, 1], seed=21)
        rng = np.random.default_rng(3)
        x = rng.normal(size=4)
        g0 = gradient(m, x, ScalarTarget.LOGIT)
        step = 1e-9 * rng.normal(size=4)
        g1 = gradient(m, x + step, ScalarTarget.LOGIT)
        assert np.allclose(g0, g1, rtol=0, atol=1e-12)
        f0 = nn.forward(m, x, ScalarTarget.LOGIT)
        f1 = nn.forward(m, x + step, ScalarTarget.LOGIT)
        assert f1 - f0 == pytest.approx(float(g0 @ step), abs=1e-12)

    def test_dimension_mismatch(self):
        m = nn.init_model([3, 1], seed=0)
        with pytest.raises(ValueError):
            nn.input_gradient_batch(m, np.zeros((1, 4)))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("learning_rate", -math.inf), ("learning_rate", 0.0), ("learning_rate", 10**400),
        ("learning_rate", True), ("learning_rate", "0.1"),
        ("epochs", 1.0), ("epochs", True), ("epochs", -1), ("epochs", "1"),
        ("batch_size", 2.5), ("batch_size", True), ("batch_size", 0),
        ("seed", 0.5), ("seed", False), ("seed", -1)])
    def test_invalid_field_named(self, field, value):
        """A non-finite learning rate once trained to non-finite parameters
        without raising, and a float or bool count passed the checks."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{"epochs": 1, field: value})

    def test_numpy_scalars_accepted(self):
        cfg = TrainConfig(epochs=np.int64(2), learning_rate=np.float64(0.1),
                          batch_size=np.int32(8), seed=np.uint8(3))
        assert cfg.epochs == 2 and cfg.batch_size == 8


def _init_model_with_width(X, y, width):
    return nn.init_model([3, width, 1], 0)


def _explain_with_id(X, y, rid):
    return explain.explain_batch(nn.init_model([3, 1], 0), X[:1], X.mean(axis=0),
                                 explain.Algorithm.SMOOTHGRAD, explain.ExplainerConfig(),
                                 record_ids=[rid])


def _fetch_with_id(X, y, rid):
    return service.client_fetch_explanations("http://127.0.0.1:9", X[:1],
                                             explain.Algorithm.SMOOTHGRAD, record_ids=[rid])


def _fit_forest_with(name):
    return lambda X, y, value: forest.fit_forest(X, y, **{name: value})


def _no_connection(*args, **kwargs):
    raise AssertionError("a connection was opened before the record ids were checked")


class TestLibraryNumbers:
    """Every library entry point that takes a width, size, seed or record id
    checks it by nn.check_number. Each of these once truncated the value
    (a width of 4.7 trained a width-4 layer, a forest seed of 2.9 grew seed
    2's forest, a record id of 2.9 used record 2's noise) or failed late."""

    X = np.random.default_rng(0).normal(size=(8, 3))
    y = np.r_[np.zeros(4), np.ones(4)]

    @pytest.mark.parametrize("call, value, message", [
        (_init_model_with_width, 4.7, "layer_dims[1] must be an integer >= 1"),
        (_init_model_with_width, True, "layer_dims[1] must be an integer >= 1"),
        (lambda X, y, v: attack.train_attack(X, y, mlp_hidden=(v,), mlp_epochs=1), 2.9,
         "layer_dims[1] must be an integer >= 1"),
        (_fit_forest_with("n_trees"), 2.5, "n_trees must be an integer >= 1"),
        (_fit_forest_with("max_depth"), True, "max_depth must be an integer >= 1"),
        (_fit_forest_with("max_depth"), 2.5, "max_depth must be an integer >= 1"),
        (_fit_forest_with("min_leaf"), 1.5, "min_leaf must be an integer >= 1"),
        (_fit_forest_with("seed"), 2.9, "seed must be an integer >= 0"),
        (_explain_with_id, 2.9, "record_ids[0] must be an integer >= 0"),
        (_explain_with_id, True, "record_ids[0] must be an integer >= 0"),
        (_explain_with_id, "3", "record_ids[0] must be an integer >= 0"),
        (_fetch_with_id, 2.9, "record_ids[0] must be an integer >= 0"),
    ])
    def test_non_integer_is_named(self, monkeypatch, call, value, message):
        monkeypatch.setattr(service, "_exchange", _no_connection)
        with pytest.raises(ValueError) as info:
            call(self.X, self.y, value)
        assert str(info.value) == f"{message}, got {value!r}"

    def test_numpy_integers_accepted(self):
        a = nn.init_model([3, 4, 1], 5)
        b = nn.init_model([np.int64(3), np.int32(4), 1], np.int64(5))
        assert a.layer_dims == b.layer_dims
        assert all(np.array_equal(p, q) for p, q in zip(a.weights, b.weights))
        f, g = (forest.fit_forest(self.X, self.y, n_trees=np.int64(2), seed=seed)
                for seed in (2, np.int64(2)))
        assert all(np.array_equal(s.threshold, t.threshold) for s, t in zip(f.trees, g.trees))
        e, h = (explain.explain_batch(a, self.X[:2], self.X.mean(axis=0),
                                      explain.Algorithm.SMOOTHGRAD, explain.ExplainerConfig(),
                                      record_ids=ids)
                for ids in ([3, 4], np.array([3, 4])))
        assert np.array_equal(e.scores, h.scores)


class TestTrain:
    def separable_data(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
        X[y == 1] += 0.6
        X[y == 0] -= 0.6
        return X, y

    def test_separable_reaches_high_accuracy(self):
        X, y = self.separable_data()
        m = nn.init_model([2, 8, 1], seed=1)
        cfg = TrainConfig(epochs=30, learning_rate=1e-2, batch_size=32, seed=4)
        trained = nn.train(m, X, y, cfg)
        assert metrics.accuracy(nn.forward_batch(trained, X), y) >= 0.99

    def test_zero_epochs_identity(self):
        X, y = self.separable_data(50)
        m = nn.init_model([2, 4, 1], seed=1)
        trained = nn.train(m, X, y, TrainConfig(epochs=0))
        for w0, w1 in zip(m.weights, trained.weights):
            assert np.array_equal(w0, w1)
        for got in trained.weights + trained.biases:
            assert got.flags.c_contiguous and got.flags.owndata

    def test_input_model_untouched(self):
        X, y = self.separable_data(50)
        m = nn.init_model([2, 4, 1], seed=1)
        before = [w.copy() for w in m.weights]
        nn.train(m, X, y, TrainConfig(epochs=3, seed=0))
        for w0, w1 in zip(before, m.weights):
            assert np.array_equal(w0, w1)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="a caller before CPython "
                        "3.11 keeps an inline argument alive until the call returns")
    def test_peak_memory_of_census_training(self):
        """Training holds p, m, v, the gradients of one run of layers and one
        batch's activations, which the backward pass reuses for its gradient
        rows: no copy of an initial model passed inline, and no dead buffers
        while it copies the result out. On the census net the peak is 4.42
        copies (3.77 with 8-row batches), against 4.75 (4.11) with a gradient
        buffer for the whole model."""
        def peak_in_copies(batch_size):
            """Peak traced memory of training on two batches, in parameter copies."""
            X = np.random.default_rng(0).normal(size=(2 * batch_size, 100))
            y = (X[:, 0] > 0).astype(float)
            tracemalloc.start()
            try:
                nn.train(nn.init_model(CENSUS_NET, seed=1), X, y,
                         TrainConfig(epochs=1, batch_size=batch_size))
                return tracemalloc.get_traced_memory()[1] / CENSUS_COPY_BYTES
            finally:
                tracemalloc.stop()

        assert peak_in_copies(256) < 3 + (CENSUS_LAYER_BYTES + 1.3 * CENSUS_ACTIVATION_BYTES) \
            / CENSUS_COPY_BYTES
        # with 8-row batches the activations are negligible; the rest is the
        # two ADAM_BLOCK scratch arrays, 0.08 copies
        assert peak_in_copies(8) < 3.15 + CENSUS_LAYER_BYTES / CENSUS_COPY_BYTES

    def test_gradient_pass_releases_each_activation(self):
        """The backward pass writes the gradient rows below each layer into
        that layer's spent activation: its peak is the forward pass's hidden
        activations and one layer's mask, 1.03 batches of them on the census
        net, against 1.33 with a new array for each gradient row and 1.8 with
        every activation held to the end."""
        model = nn.init_model(CENSUS_NET, seed=1)
        X = np.random.default_rng(0).normal(size=(256, 100))
        y = (X[:, 0] > 0).astype(float)
        grads_w, grads_b = nn._flat_views(np.zeros(CENSUS_COPY_BYTES // 8),
                                          model.weights, model.biases)
        tracemalloc.start()
        try:
            activations, logits = nn._forward_parts(model, X, keep=lambda a: a)
            assert list(nn._backward(model, activations, logits, y, grads_w, grads_b)) \
                == [4, 3, 2, 1, 0]
            assert activations == [None] * 5
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * CENSUS_ACTIVATION_BYTES

    def test_deterministic_per_seed(self):
        X, y = self.separable_data(80, seed=5)
        m = nn.init_model([2, 6, 1], seed=2)
        cfg = TrainConfig(epochs=5, seed=11, batch_size=16)
        a = nn.train(m, X, y, cfg)
        b = nn.train(m, X, y, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_loss_decreases(self):
        X, y = self.separable_data(100, seed=7)
        m = nn.init_model([2, 6, 1], seed=3)
        loss0 = nn._bce_loss(nn.forward_batch(m, X, ScalarTarget.LOGIT), y)
        trained = nn.train(m, X, y, TrainConfig(epochs=10, seed=0, batch_size=25))
        loss1 = nn._bce_loss(nn.forward_batch(trained, X, ScalarTarget.LOGIT), y)
        assert loss1 < loss0

    @settings(deadline=None, max_examples=30)
    @given(hidden=st.lists(st.integers(1, 9), max_size=3),
           n=st.integers(1, 40), batch_size=st.integers(1, 50),
           epochs=st.integers(1, 3), seed=st.integers(0, 2**16))
    @example(hidden=[], n=30, batch_size=8, epochs=2, seed=1)  # no hidden layer
    @example(hidden=[5, 3], n=20, batch_size=50, epochs=3, seed=2)  # batch > n
    @example(hidden=[4], n=12, batch_size=1, epochs=2, seed=3)  # batch of one
    @example(hidden=[BLOCK_WIDE, BLOCK_WIDE], n=40, batch_size=16, epochs=2, seed=4)
    def test_bit_identical_to_textbook_loop(self, hidden, n, batch_size, epochs, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = (rng.random(n) < 0.5).astype(float)
        m = nn.init_model([3, *hidden, 1], seed=seed)
        cfg = TrainConfig(epochs=epochs, learning_rate=1e-2, batch_size=batch_size,
                          seed=seed)
        trained = nn.train(m, X, y, cfg)
        weights, biases = textbook_train(m, X, y, cfg)
        for got, want in zip(trained.weights + trained.biases, weights + biases):
            assert got.shape == want.shape
            assert got.flags.c_contiguous and got.flags.owndata
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_census_net_bit_identical_to_textbook_loop(self):
        """Two steps, 256 rows and a partial 44-row batch, of a net whose
        backward pass updates three runs of layers."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 100))
        y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(float)
        m = nn.init_model(CENSUS_NET, seed=1)
        cfg = TrainConfig(epochs=1, batch_size=256, seed=2)
        trained = nn.train(m, X, y, cfg)
        weights, biases = textbook_train(m, X, y, cfg)
        for got, want in zip(trained.weights + trained.biases, weights + biases):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    # a net under ADAM_BLOCK parameters, such as the attack MLP, updates all
    # its layers in one Adam call; the BLOCK_WIDE net of the textbook
    # example and the census net need three each step
    @pytest.mark.parametrize("layer_dims, calls", [
        ([3, 4, 1], 1), ([101, 64, 128, 32, 1], 1), ([3, BLOCK_WIDE, BLOCK_WIDE, 1], 3),
        (CENSUS_NET, 3)])
    def test_adam_calls_per_step(self, layer_dims, calls):
        X = np.random.default_rng(0).normal(size=(24, layer_dims[0]))
        y = (X[:, 0] > 0).astype(float)
        with mock.patch.object(nn, "_adam_step", wraps=nn._adam_step) as adam:
            nn.train(nn.init_model(layer_dims, seed=1), X, y, TrainConfig(epochs=1, batch_size=8))
        assert adam.call_count == 3 * calls
        # the runs, last first, cover every parameter once
        sizes = [call.args[0].size for call in adam.call_args_list[:calls]]
        assert sum(sizes) == sum(i * o + o for i, o in zip(layer_dims[:-1], layer_dims[1:]))

    # a small net, and the census net of the desk-scale run
    @pytest.mark.parametrize("layer_dims", [[100, 256, 128, 64, 1], CENSUS_NET],
                             ids=["small", "census"])
    def test_one_and_two_blas_threads(self, layer_dims):
        answers = answers_at_one_and_two_blas_threads(
            f"print(trained_parameter_digest({layer_dims}))")
        assert answers[0] == answers[1]

    def test_shape_mismatch(self):
        m = nn.init_model([2, 1], seed=0)
        with pytest.raises(ValueError):
            nn.train(m, np.zeros((3, 2)), np.zeros(4), TrainConfig(epochs=1))

    def test_nonbinary_labels(self):
        m = nn.init_model([2, 1], seed=0)
        with pytest.raises(ValueError):
            nn.train(m, np.zeros((3, 2)), np.array([0.0, 0.5, 1.0]), TrainConfig(epochs=1))

    def test_divergence_reported(self):
        X, y = self.separable_data(60)
        m = nn.init_model([2, 4, 1], seed=1)
        m.weights[0] *= 1e200  # overflow the logits on the first step
        m.weights[1] *= 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergence):
                nn.train(m, X, y, TrainConfig(epochs=1, learning_rate=1e3))

    def test_divergence_raises_before_any_update_of_its_step(self):
        """Step 0 moves every parameter by about the learning rate, so the
        loss of step 1 overflows: none of the three Adam calls of step 1
        runs."""
        X, y = self.separable_data(60)
        m = nn.init_model([2, BLOCK_WIDE, BLOCK_WIDE, 1], seed=1)
        with mock.patch.object(nn, "_adam_step", wraps=nn._adam_step) as adam:
            with pytest.raises(TrainingDivergence, match="^non-finite training loss at "
                               "epoch 1, step 1$"):
                nn.train(m, X, y, TrainConfig(epochs=2, learning_rate=1e308))
        assert adam.call_count == 3

    def test_divergence_raises_before_any_warning(self):
        """A diverging step overflows in the forward pass; training reports
        that as TrainingDivergence alone, with no numpy RuntimeWarning."""
        X, y = self.separable_data(60)
        m = nn.init_model([2, 4, 1], seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergence):
                nn.train(m, X, y, TrainConfig(epochs=2, learning_rate=1e308))


class TestEvaluateAccuracy:
    def test_all_correct(self):
        m = linear_model([10.0])
        X = np.array([[1.0], [-1.0], [2.0]])
        y = np.array([1.0, 0.0, 1.0])
        assert metrics.accuracy(nn.forward_batch(m, X), y) == 1.0

    def test_tie_rule_predicts_positive(self):
        # constant-0.5 model: every row predicted 1, half the labels are 1
        m = linear_model([0.0])
        X = np.zeros((10, 1))
        y = np.array([1.0] * 5 + [0.0] * 5)
        assert metrics.accuracy(nn.forward_batch(m, X), y) == 0.5

    def test_matches_hand_count(self):
        # predictions follow the sign of x: [1,0,1,1,0,1,0,1,0,1];
        # hand-tallied against the labels below, 6 of 10 agree
        m = linear_model([1.0])
        X = np.array([[2.0], [-3.0], [1.0], [4.0], [-2.0],
                      [0.5], [-1.0], [3.0], [-0.2], [1.5]])
        y = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        assert metrics.accuracy(nn.forward_batch(m, X), y) == 0.6

    def test_empty_set(self):
        with pytest.raises(ValueError):
            metrics.accuracy(np.zeros(0), np.zeros(0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="2 probabilities vs 3 labels"):
            metrics.accuracy([0.2, 0.8], [0.0, 1.0, 1.0])


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = nn.init_model([5, 7, 3, 1], seed=13)
        path = str(tmp_path / "model.npz")
        nn.save_model(m, path)
        loaded = nn.load_model(path)
        assert loaded.layer_dims == m.layer_dims
        for wa, wb in zip(m.weights, loaded.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(m.biases, loaded.biases):
            assert np.array_equal(ba, bb)
