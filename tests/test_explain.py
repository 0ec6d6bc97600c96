import hashlib
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import explinfer
from explinfer import explain, nn
from explinfer.attack import AttackSurface, build_surface_matrix
from explinfer.explain import Algorithm, ExplainerConfig, Explanations
from explinfer.nn import ScalarTarget


def linear_model(w):
    w = np.asarray(w, dtype=np.float64)
    m = nn.init_model([len(w), 1], seed=0)
    m.weights[0] = w[None, :].copy()
    m.biases[0] = np.array([0.25])
    return m


def explain_one(model, x, base, algorithm, cfg=ExplainerConfig(),
                target=ScalarTarget.LOGIT, record_id=0):
    """One record through explain_batch, as a batch of one."""
    return explain.explain_batch(model, np.asarray(x)[None, :], base, algorithm,
                                 cfg, target, [record_id])[0]


IG, DL = Algorithm.INTEGRATED_GRADIENTS, Algorithm.DEEPLIFT
GS, SG = Algorithm.GRADIENT_SHAP, Algorithm.SMOOTHGRAD


@pytest.fixture()
def random_net():
    return nn.init_model([4, 7, 5, 1], seed=33)


class TestMeanBaseline:
    def test_two_rows(self):
        assert np.array_equal(
            explain.mean_baseline([[0.0, 2.0], [2.0, 0.0]]), np.array([1.0, 1.0]))

    def test_single_row(self):
        row = np.array([3.0, -1.0, 0.5])
        assert np.array_equal(explain.mean_baseline(row[None, :]), row)

    def test_matches_independent_average(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(37, 6))
        # independent per-column average with plain loops
        expected = []
        for c in range(X.shape[1]):
            acc = 0.0
            for r in range(X.shape[0]):
                acc += X[r, c]
            expected.append(acc / X.shape[0])
        assert np.allclose(explain.mean_baseline(X), expected, rtol=0, atol=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            explain.mean_baseline(np.zeros((0, 3)))


class TestIntegratedGradients:
    def test_linear_closed_form_any_steps(self):
        w = np.array([1.5, -0.5, 2.0])
        m = linear_model(w)
        x = np.array([1.0, 2.0, -1.0])
        base = np.array([0.5, 0.0, 0.5])
        for steps in (1, 3, 50):
            a = explain_one(
                m, x, base, IG, ExplainerConfig(ig_steps=steps), ScalarTarget.LOGIT)
            assert np.allclose(a.scores, w * (x - base), rtol=0, atol=1e-12)
            assert abs(a.delta) <= 1e-12

    def test_input_equals_baseline(self, random_net):
        x = np.full(4, 0.3)
        a = explain_one(random_net, x, x, IG, ExplainerConfig())
        assert np.array_equal(a.scores, np.zeros(4))
        assert a.delta == 0.0

    def test_against_high_resolution_quadrature(self, small_trained_net):
        model, X = small_trained_net
        base = explain.mean_baseline(X)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.normal(size=5)
            coarse = explain_one(
                model, x, base, IG, ExplainerConfig(ig_steps=50)).scores
            fine = explain_one(
                model, x, base, IG, ExplainerConfig(ig_steps=5000)).scores
            denom = max(np.linalg.norm(fine), 1e-12)
            assert np.linalg.norm(coarse - fine) / denom < 1e-2

    def test_completeness_small_delta(self, small_trained_net):
        # quadrature error leaves a small residual on almost every point
        model, X = small_trained_net
        base = explain.mean_baseline(X)
        rng = np.random.default_rng(4)
        ok = 0
        for _ in range(20):
            x = rng.normal(size=5)
            a = explain_one(
                model, x, base, IG, ExplainerConfig(ig_steps=200))
            fx = nn.forward(model, x, ScalarTarget.LOGIT)
            fb = nn.forward(model, base, ScalarTarget.LOGIT)
            ok += abs(a.delta) <= 1e-2 * max(1.0, abs(fx - fb))
        assert ok >= 18

    def test_dimension_mismatch(self, random_net):
        with pytest.raises(ValueError):
            explain_one(
                random_net, np.zeros(3), np.zeros(4), IG, ExplainerConfig())
        with pytest.raises(ValueError):
            explain_one(
                random_net, np.zeros(4), np.zeros(3), IG, ExplainerConfig())


def test_wrong_number_of_record_ids_is_refused(random_net):
    with pytest.raises(ValueError, match="record_ids has 1 ids for 2 records"):
        explain.explain_batch(random_net, np.zeros((2, 4)), np.zeros(4),
                              Algorithm.SMOOTHGRAD, ExplainerConfig(), record_ids=[0])


class TestDeepLift:
    def test_linear_matches_integrated_gradients(self):
        w = np.array([0.3, -1.2])
        m = linear_model(w)
        x = np.array([2.0, 1.0])
        base = np.array([-1.0, 0.0])
        dl = explain_one(m, x, base, DL)
        ig = explain_one(m, x, base, IG, ExplainerConfig())
        assert np.allclose(dl.scores, w * (x - base), rtol=0, atol=1e-12)
        assert np.allclose(dl.scores, ig.scores, rtol=0, atol=1e-12)

    def test_input_equals_baseline(self, random_net):
        x = np.full(4, -0.2)
        a = explain_one(random_net, x, x, DL)
        assert np.array_equal(a.scores, np.zeros(4))

    def test_summation_to_delta_exact(self):
        # both sides evaluated directly: sum(scores) vs f(x) - f(baseline)
        rng = np.random.default_rng(5)
        for seed in range(10):
            m = nn.init_model([6, 9, 7, 1], seed=seed)
            x = rng.normal(size=6)
            base = rng.normal(size=6)
            for target in ScalarTarget:
                a = explain_one(m, x, base, DL, target=target)
                fx = nn.forward(m, x, target)
                fb = nn.forward(m, base, target)
                assert abs(np.sum(a.scores) - (fx - fb)) <= 1e-9
                assert abs(a.delta) <= 1e-9

    def test_matches_forward_contribution_oracle(self):
        # independent route: accumulate per-input contribution matrices
        # forward through the net instead of propagating multipliers back
        rng = np.random.default_rng(44)
        for seed in range(5):
            m = nn.init_model([5, 8, 6, 1], seed=seed)
            x = rng.normal(size=5)
            base = rng.normal(size=5)

            contrib = np.diag(x - base)  # row u: how input u reaches each unit
            a, a_ref = x, base
            for li, (w, b) in enumerate(zip(m.weights, m.biases)):
                z = w @ a + b
                z_ref = w @ a_ref + b
                contrib = contrib @ w.T
                if li < len(m.weights) - 1:
                    dz = z - z_ref
                    ratio = np.where(
                        np.abs(dz) > explain.RESCALE_EPSILON,
                        (np.maximum(z, 0) - np.maximum(z_ref, 0))
                        / np.where(np.abs(dz) > explain.RESCALE_EPSILON, dz, 1.0),
                        (z > 0).astype(float))
                    contrib = contrib * ratio[None, :]
                    a, a_ref = np.maximum(z, 0), np.maximum(z_ref, 0)
            oracle_scores = contrib[:, 0]

            got = explain_one(m, x, base, DL).scores
            assert np.allclose(got, oracle_scores, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self, random_net):
        with pytest.raises(ValueError):
            explain_one(random_net, np.zeros(5), np.zeros(4), DL)


class TestGradientShap:
    def test_linear_exact_regardless_of_noise(self):
        w = np.array([1.0, -2.0, 0.5])
        m = linear_model(w)
        x = np.array([0.2, 0.4, 0.6])
        base = np.array([-0.5, 0.5, 0.0])
        a = explain_one(
            m, x, base, GS, ExplainerConfig(shap_samples=5, shap_stdev=3.0, seed=2))
        assert np.allclose(a.scores, w * (x - base), rtol=0, atol=1e-12)

    def test_single_sample_definition(self, random_net):
        # replay the documented draw order: noise matrix first, then alpha
        cfg = ExplainerConfig(shap_samples=1, shap_stdev=0.0, seed=77)
        x = np.array([0.1, -0.3, 0.5, 0.9])
        base = np.zeros(4)
        rng = np.random.default_rng([77, 5])
        rng.normal(0.0, 0.0, size=(1, 4))
        alpha = rng.uniform(0.0, 1.0, size=(1, 1))[0, 0]
        point = base + alpha * (x - base)
        expected = nn.input_gradient_batch(random_net, point[None, :])[0] * (x - base)
        a = explain_one(random_net, x, base, GS, cfg, record_id=5)
        assert np.array_equal(a.scores, expected)

    def test_input_equals_baseline(self, random_net):
        x = np.full(4, 0.7)
        cfg = ExplainerConfig(shap_samples=4, shap_stdev=0.5, seed=9)
        a = explain_one(random_net, x, x, GS, cfg)
        assert np.array_equal(a.scores, np.zeros(4))

    def test_against_large_sample_oracle(self, small_trained_net):
        model, X = small_trained_net
        base = explain.mean_baseline(X)
        point_rng = np.random.default_rng(29)
        n_oracle = 20_000
        cfg = ExplainerConfig(shap_samples=20, shap_stdev=0.1, seed=6)
        for _ in range(3):
            x = point_rng.normal(size=5)
            # independent oracle: same estimator, its own noise, huge n
            orng = np.random.default_rng(991)
            noisy = x[None, :] + orng.normal(0.0, 0.1, size=(n_oracle, 5))
            alphas = orng.uniform(0.0, 1.0, size=(n_oracle, 1))
            pts = base[None, :] + alphas * (noisy - base[None, :])
            contrib = nn.input_gradient_batch(model, pts) * (x - base)[None, :]
            mean_o = contrib.mean(axis=0)
            sd = contrib.std(axis=0, ddof=1)
            se = sd * np.sqrt(1.0 / cfg.shap_samples + 1.0 / n_oracle)
            got = explain_one(model, x, base, GS, cfg).scores
            assert np.all(np.abs(got - mean_o) <= np.maximum(3.0 * se, 1e-10))


class TestSmoothGrad:
    def test_zero_sigma_equals_gradient(self, random_net):
        x = np.array([0.4, -0.1, 0.2, 0.7])
        cfg = ExplainerConfig(smoothgrad_samples=10, smoothgrad_sigma=0.0, seed=1)
        a = explain_one(random_net, x, np.zeros(4), SG, cfg)
        assert np.allclose(
            a.scores, nn.input_gradient_batch(random_net, x[None, :])[0],
            rtol=0, atol=1e-15)

    def test_linear_model_returns_weights(self):
        w = np.array([2.0, 0.0, -1.0])
        m = linear_model(w)
        cfg = ExplainerConfig(smoothgrad_samples=8, smoothgrad_sigma=2.5, seed=3)
        a = explain_one(m, np.ones(3), np.zeros(3), SG, cfg)
        assert np.allclose(a.scores, w, rtol=0, atol=1e-12)

    def test_against_large_sample_oracle(self, small_trained_net):
        model, X = small_trained_net
        base = explain.mean_baseline(X)
        point_rng = np.random.default_rng(31)
        n_oracle = 20_000
        cfg = ExplainerConfig(smoothgrad_samples=25, smoothgrad_sigma=0.1, seed=9)
        for _ in range(3):
            x = point_rng.normal(size=5)
            orng = np.random.default_rng(445)
            pts = x[None, :] + orng.normal(0.0, 0.1, size=(n_oracle, 5))
            grads = nn.input_gradient_batch(model, pts)
            mean_o = grads.mean(axis=0)
            sd = grads.std(axis=0, ddof=1)
            se = sd * np.sqrt(1.0 / cfg.smoothgrad_samples + 1.0 / n_oracle)
            got = explain_one(model, x, base, SG, cfg).scores
            assert np.all(np.abs(got - mean_o) <= np.maximum(3.0 * se, 1e-10))


def one_record(algorithm, scores, delta, target=None) -> Explanations:
    return Explanations(algorithm, target, np.array([scores]), np.array([delta]))


def explain_run(model, x, base, algorithm, cfg=ExplainerConfig()) -> Explanations:
    """One record through explain_batch, kept as a run of one record."""
    return explain.explain_batch(model, np.asarray(x)[None, :], base, algorithm, cfg)


class TestAttackVector:
    """Each record's scores with its delta appended: the phi_all surface."""

    @staticmethod
    def vector(explanations):
        return build_surface_matrix(explanations, None, AttackSurface.PHI_ALL, [])[0]

    def test_append_delta(self):
        a = one_record(Algorithm.DEEPLIFT, [0.2, -0.1], 0.05, ScalarTarget.LOGIT)
        assert np.array_equal(self.vector(a), np.array([0.2, -0.1, 0.05]))

    def test_zero_attribution(self, random_net):
        x = np.full(4, 0.1)
        a = explain_run(random_net, x, x, DL)
        vec = self.vector(a)
        assert vec.shape == (5,)
        assert np.allclose(vec, 0.0, atol=1e-12)

    def test_last_element_is_delta(self, small_trained_net):
        model, X = small_trained_net
        base = explain.mean_baseline(X)
        a = explain_run(model, X[0], base, IG, ExplainerConfig())
        assert self.vector(a)[-1] == a.delta[0]


class TestRestrict:
    """Scores restricted to a column group, as the attack surfaces take them."""

    @staticmethod
    def restrict(a, columns, surface=AttackSurface.PHI_SENSITIVE):
        return build_surface_matrix(a, None, surface, columns)[0]

    def test_all_columns(self):
        a = one_record(Algorithm.SMOOTHGRAD, [1.0, 2.0, 3.0], 0.0)
        assert np.array_equal(self.restrict(a, [0, 1, 2]), a.scores[0])

    def test_subset(self):
        a = one_record(Algorithm.SMOOTHGRAD, [1.0, 2.0, 3.0], 0.0)
        assert np.array_equal(self.restrict(a, [1]), np.array([2.0]))

    def test_partition(self):
        scores = np.array([5.0, -2.0, 7.0, 1.0])
        a = one_record(Algorithm.DEEPLIFT, scores, 0.5)
        left = self.restrict(a, [0, 2])
        right = self.restrict(a, [0, 2], AttackSurface.PHI_NON_SENSITIVE)
        assert right[-1] == a.delta[0]
        assert sorted(np.concatenate([left, right[:-1]])) == sorted(scores)

    def test_out_of_range(self):
        a = one_record(Algorithm.DEEPLIFT, [1.0], 0.0)
        with pytest.raises(IndexError):
            self.restrict(a, [1])


class TestExplainerConfig:
    @pytest.mark.parametrize("field, value", [
        ("shap_stdev", float("nan")), ("shap_stdev", float("inf")), ("shap_stdev", -0.1),
        ("smoothgrad_sigma", float("nan")), ("smoothgrad_sigma", float("inf")),
        ("smoothgrad_sigma", True),
        ("ig_steps", 50.0), ("ig_steps", True), ("ig_steps", 0),
        ("shap_samples", 2.5), ("shap_samples", "20"),
        ("smoothgrad_samples", 25.0), ("smoothgrad_samples", 0),
        ("seed", 1.5), ("seed", -1)])
    def test_invalid_field_named(self, field, value):
        """A non-finite noise scale once failed inside explain_batch as
        non-finite features, and a float count as a TypeError."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExplainerConfig(**{field: value})


class TestReproducibility:
    @pytest.mark.parametrize("algorithm", [Algorithm.GRADIENT_SHAP,
                                           Algorithm.SMOOTHGRAD])
    def test_same_seed_bit_identical(self, small_trained_net, algorithm):
        model, X = small_trained_net
        base = explain.mean_baseline(X)
        cfg = ExplainerConfig(seed=55)
        a = explain_one(model, X[3], base, algorithm, cfg, record_id=3)
        b = explain_one(model, X[3], base, algorithm, cfg, record_id=3)
        assert np.array_equal(a.scores, b.scores)
        assert a.delta == b.delta

    def test_record_id_changes_stream(self, small_trained_net):
        model, X = small_trained_net
        base = explain.mean_baseline(X)
        cfg = ExplainerConfig(seed=55)
        a = explain_one(model, X[3], base, GS, cfg, record_id=3)
        b = explain_one(model, X[3], base, GS, cfg, record_id=4)
        assert not np.array_equal(a.scores, b.scores)

    def test_batch_matches_single_records(self, small_trained_net):
        model, X = small_trained_net
        base = explain.mean_baseline(X)
        cfg = ExplainerConfig(seed=12)
        for algorithm in Algorithm:
            batch = explain.explain_batch(
                model, X[:4], base, algorithm, cfg, record_ids=[10, 11, 12, 13])
            for i, rid in enumerate([10, 11, 12, 13]):
                single = explain_one(
                    model, X[i], base, algorithm, cfg, record_id=rid)
                assert np.array_equal(batch[i].scores, single.scores)
                # f(baseline) evaluated once per batch is the same float
                assert batch[i].delta == single.delta


def assert_batch_bit_identical(dims, n, steps, samples, grad_rows, seed,
                               target=ScalarTarget.LOGIT) -> str:
    """explain_batch over n records equals each record alone and a random
    split of the records into calls, bit for bit, for all four algorithms,
    with GRAD_ROWS gradient rows per stacked call: record by record, and as
    slices of the whole batch. A batch of no records is empty. forward_rows
    equals forward on each row. Returns a digest of the answers."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(seed)
    model = nn.init_model(dims, seed=seed)
    for b in model.biases:
        b += rng.normal(0.0, 0.1, size=b.shape)
    X = rng.normal(size=(n, dims[0]))
    base = X.mean(axis=0)
    ids = rng.integers(0, 2**31, size=n).tolist()
    cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, 3), replace=False).tolist())
    cfg = ExplainerConfig(ig_steps=steps, shap_samples=samples,
                          smoothgrad_samples=samples, seed=seed)
    with mock.patch.object(explain, "GRAD_ROWS", grad_rows):
        for algorithm in Algorithm:
            whole = explain.explain_batch(model, X, base, algorithm, cfg, target, ids)
            assert len(whole) == n and whole.scores.shape == X.shape
            singles = [explain_one(model, X[i], base, algorithm, cfg, target, ids[i])
                       for i in range(n)]
            parts = [(whole[lo:hi], explain.explain_batch(model, X[lo:hi], base, algorithm,
                                                          cfg, target, ids[lo:hi]))
                     for lo, hi in zip([0, *cuts], [*cuts, n])]
            for run, part in parts:
                assert run.scores.tobytes() == part.scores.tobytes(), algorithm
                assert run.delta.tobytes() == part.delta.tobytes(), algorithm
            split = [a for _, part in parts for a in part]
            for a, b, c in zip(whole, singles, split, strict=True):
                assert a.scores.tobytes() == b.scores.tobytes() == c.scores.tobytes(), algorithm
                assert a.delta == b.delta == c.delta, algorithm
                digest.update(a.scores.tobytes() + np.float64(a.delta).tobytes())
            empty = explain.explain_batch(model, X[:0], base, algorithm, cfg, target, [])
            assert len(empty) == 0 and list(empty) == []
            assert empty.scores.shape == (0, dims[0]) and empty.delta.shape == (0,)
    alone = np.array([nn.forward(model, x, target) for x in X])
    assert nn.forward_rows(model, X, target).tobytes() == alone.tobytes()
    digest.update(alone.tobytes())
    return digest.hexdigest()


# each record is one slice of a stacked matmul; a flat (k*m, d) batch gives
# some rows of these two nets different last bits
WIDE_NET = dict(dims=[100, 512, 256, 128, 1], n=12, steps=5, samples=20,
                   grad_rows=256, seed=1)
NARROW_NET = dict(dims=[100, 64, 128, 32, 1], n=12, steps=50, samples=20,
                     grad_rows=256, seed=2)


class TestBatchBitIdentity:
    @settings(deadline=None, max_examples=30)
    @given(dims=st.builds(lambda d, hidden: [d, *hidden, 1], st.integers(1, 12),
                          st.lists(st.integers(1, 48), max_size=3)),
           n=st.integers(1, 9), steps=st.integers(1, 60), samples=st.integers(1, 30),
           grad_rows=st.integers(1, 300), seed=st.integers(0, 2**16),
           target=st.sampled_from(ScalarTarget))
    @example(target=ScalarTarget.LOGIT, **WIDE_NET)
    @example(target=ScalarTarget.LOGIT, **NARROW_NET)
    def test_batch_equals_singles_and_splits(self, dims, n, steps, samples,
                                             grad_rows, seed, target):
        assert_batch_bit_identical(dims, n, steps, samples, grad_rows, seed, target)

    def test_one_and_two_blas_threads(self):
        # child processes, since OpenBLAS reads its thread count at load
        src = os.path.dirname(os.path.dirname(explinfer.__file__))
        code = ("from test_explain import *\n"
                "print(assert_batch_bit_identical(**WIDE_NET))\n"
                "print(assert_batch_bit_identical(**NARROW_NET))\n")
        answers = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
            child = subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True, timeout=300)
            assert child.returncode == 0, child.stderr
            answers.append(child.stdout)
        assert answers[0] == answers[1]
