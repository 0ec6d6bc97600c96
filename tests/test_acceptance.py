"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 7 and 8 need the
public Adult census CSV (header row, the 14 usual attribute names plus an
`income` column); point EXPLINFER_ADULT_CSV at it or place it at
data/adult.csv. Without the file those two criteria report SKIP.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from explinfer import attack, explain, metrics, nn, pipeline, service
from explinfer.explain import Algorithm, ExplainerConfig
from explinfer.nn import ScalarTarget
from explinfer.synth import write_synthetic_dataset


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL "
              f"(runtime {elapsed:.1f}s over budget {budget_seconds}s)")
        raise AssertionError(f"criterion {num} exceeded its runtime budget")
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)")


def explain_one(model, x, base, algorithm, cfg, record_id=0):
    """One record through explain_batch, as a batch of one."""
    return explain.explain_batch(model, x[None, :], base, algorithm, cfg,
                                 record_ids=[record_id])[0]


def min_abs_preactivation(model, x):
    a = x[None, :]
    worst = np.inf
    for i in range(len(model.weights) - 1):
        z = a @ model.weights[i].T + model.biases[i]
        worst = min(worst, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
    return worst


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient vs central finite differences", 10):
        rng = np.random.default_rng(101)
        h = 1e-5
        checked = 0
        while checked < 50:
            dims = [int(rng.integers(3, 8)), int(rng.integers(4, 12)),
                    int(rng.integers(3, 9)), 1]
            model = nn.init_model(dims, seed=int(rng.integers(1_000_000)))
            x = rng.normal(size=dims[0]) * 2.0
            if min_abs_preactivation(model, x) < 1e-3:
                continue
            g = nn.input_gradient_batch(model, x[None, :], ScalarTarget.LOGIT)[0]
            fd = np.zeros_like(x)
            for i in range(len(x)):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (nn.forward(model, xp, ScalarTarget.LOGIT)
                         - nn.forward(model, xm, ScalarTarget.LOGIT)) / (2 * h)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
            assert np.max(rel) < 1e-4, f"pair {checked}: rel error {np.max(rel)}"
            checked += 1


def test_criterion_2_linear_closed_form():
    with criterion(2, "linear-model closed forms", 5):
        rng = np.random.default_rng(202)
        for trial in range(10):
            d = int(rng.integers(2, 9))
            w = rng.normal(size=d) * 3.0
            model = nn.init_model([d, 1], seed=trial)
            model.weights[0] = w[None, :].copy()
            model.biases[0] = rng.normal(size=1)
            x = rng.normal(size=d)
            base = rng.normal(size=d)
            expected = w * (x - base)
            cfg = ExplainerConfig(ig_steps=7, shap_samples=5, shap_stdev=1.5,
                                  smoothgrad_samples=6,
                                  smoothgrad_sigma=float(rng.uniform(0, 3)),
                                  seed=trial)
            ig, dl, gs, sg = (
                explain_one(model, x, base, alg, cfg, trial)
                for alg in (Algorithm.INTEGRATED_GRADIENTS, Algorithm.DEEPLIFT,
                            Algorithm.GRADIENT_SHAP, Algorithm.SMOOTHGRAD))
            assert np.max(np.abs(ig.scores - expected)) < 1e-9
            assert np.max(np.abs(dl.scores - expected)) < 1e-9
            assert np.max(np.abs(gs.scores - expected)) < 1e-9
            assert np.max(np.abs(sg.scores - w)) < 1e-9


def test_criterion_3_completeness(small_trained_net):
    with criterion(3, "completeness / summation-to-delta", 30):
        model, X = small_trained_net
        base = explain.mean_baseline(X)
        rng = np.random.default_rng(303)
        cfg = ExplainerConfig(ig_steps=200)
        within = 0
        for _ in range(500):
            x = rng.normal(size=5)
            dl = explain_one(model, x, base, Algorithm.DEEPLIFT, cfg)
            assert abs(dl.delta) <= 1e-9
            ig = explain_one(model, x, base, Algorithm.INTEGRATED_GRADIENTS, cfg)
            fx = nn.forward(model, x, ScalarTarget.LOGIT)
            fb = nn.forward(model, base, ScalarTarget.LOGIT)
            within += abs(ig.delta) <= 1e-2 * max(1.0, abs(fx - fb))
        assert within >= 475, f"only {within}/500 within the quadrature bound"


def test_criterion_4_monte_carlo_consistency(small_trained_net):
    with criterion(4, "Monte-Carlo estimates vs 50k oracle", 120):
        model, X = small_trained_net
        base = explain.mean_baseline(X)
        rng = np.random.default_rng(404)
        n_oracle = 50_000
        cfg = ExplainerConfig(seed=17)
        z_squares = []
        for point in range(20):
            x = rng.normal(size=5)
            orng = np.random.default_rng([515, point])

            noisy = x[None, :] + orng.normal(0.0, cfg.shap_stdev, (n_oracle, 5))
            alphas = orng.uniform(0.0, 1.0, (n_oracle, 1))
            pts = base[None, :] + alphas * (noisy - base[None, :])
            contrib = nn.input_gradient_batch(model, pts) * (x - base)[None, :]
            se = contrib.std(axis=0, ddof=1) * np.sqrt(
                1.0 / cfg.shap_samples + 1.0 / n_oracle)
            gs = explain_one(model, x, base, Algorithm.GRADIENT_SHAP, cfg, point)
            err = np.abs(gs.scores - contrib.mean(axis=0))
            assert np.all(err <= np.maximum(3.0 * se, 1e-10)), f"GS point {point}"
            z_squares.extend((err / np.maximum(se, 1e-300)) ** 2)

            pts = x[None, :] + orng.normal(0.0, cfg.smoothgrad_sigma, (n_oracle, 5))
            grads = nn.input_gradient_batch(model, pts)
            se = grads.std(axis=0, ddof=1) * np.sqrt(
                1.0 / cfg.smoothgrad_samples + 1.0 / n_oracle)
            sg = explain_one(model, x, base, Algorithm.SMOOTHGRAD, cfg, point)
            err = np.abs(sg.scores - grads.mean(axis=0))
            assert np.all(err <= np.maximum(3.0 * se, 1e-10)), f"SG point {point}"
            z_squares.extend((err / np.maximum(se, 1e-300)) ** 2)
        # aggregate guard: a correctly scaled unbiased estimator has
        # E[(estimate - truth)^2 / SE^2] = 1; gross estimator bugs move this
        # far from 1 even when individual components stay under 3 SE
        mean_z2 = float(np.mean(z_squares))
        assert 0.3 <= mean_z2 <= 2.5, f"aggregate z^2 {mean_z2}"


def test_criterion_5_threshold_calibration_oracle():
    with criterion(5, "calibration vs brute-force threshold scan", 5):
        rng = np.random.default_rng(505)
        for trial in range(100):
            n = int(rng.integers(20, 200))
            scores = rng.random(n)
            if trial % 2 == 0:
                scores = np.round(scores, 2)  # force ties
            truth = np.r_[rng.integers(0, 2, n - 2), 0, 1].astype(float)
            thr = attack.calibrate_scores(scores, truth)
            best_f1, best_tau = -1.0, None
            for tau in np.unique(scores):
                pred = (scores >= tau).astype(float)
                c = metrics.confusion(pred, truth)
                f = metrics.f1(c)
                if f > best_f1:
                    best_f1, best_tau = f, float(tau)
            assert thr.achieved_f1_on_aux == best_f1, f"trial {trial}"
            assert thr.tau_star == best_tau, f"trial {trial} (tie rule)"


def test_criterion_6_metric_unit_truths():
    with criterion(6, "metric fixtures and conventions", 1):
        c = metrics.confusion([1, 1, 1, 0, 0, 0, 0, 1, 0, 0],
                              [1, 1, 0, 0, 1, 0, 0, 1, 1, 0])
        assert (c.tp, c.fp, c.tn, c.fn) == (3, 1, 4, 2)
        assert metrics.precision(c) == 3 / 4
        assert metrics.recall(c) == 3 / 5
        assert metrics.f1(c) == 2 / 3  # 2*3 / (2*3 + 1 + 2)

        perfect = metrics.confusion([1, 0, 1], [1, 0, 1])
        assert metrics.precision(perfect) == metrics.recall(perfect) == 1.0
        assert metrics.f1(perfect) == 1.0

        none_predicted = metrics.confusion([0, 0, 0], [1, 0, 1])
        assert metrics.precision(none_predicted) == 0.0
        assert metrics.recall(none_predicted) == 0.0
        assert metrics.f1(none_predicted) == 0.0

        no_positives = metrics.confusion([0, 0], [0, 0])
        assert metrics.recall(no_positives) == 0.0
        assert metrics.f1(no_positives) == 0.0

        curve = metrics.pr_curve([0.9, 0.8, 0.3, 0.3, 0.1],
                                 [1, 0, 1, 0, 0])
        assert list(curve.thresholds) == [0.9, 0.8, 0.3, 0.1]
        assert list(curve.precisions) == [1.0, 0.5, 0.5, 0.4]
        assert list(curve.recalls) == [0.5, 0.5, 1.0, 1.0]
        assert curve.base_rate == 0.4

        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert metrics.pearson(a, a) == 1.0
        assert metrics.pearson(a, -a) == -1.0
        assert metrics.pearson(a, np.array([2.0, 1.0, 4.0, 3.0])) == \
            pytest.approx(0.6)
        with pytest.raises(ValueError):
            metrics.pearson(np.ones(4), a)


# --- desk-scale CENSUS reproduction (criteria 7 and 8) ---------------------

from conftest import adult_csv_path, adult_schema_dict  # noqa: E402


@pytest.fixture(scope="module")
def census_runs(tmp_path_factory):
    csv_path = adult_csv_path()
    if csv_path is None:
        print("\nACCEPTANCE 07 desk-scale CENSUS reproduction: SKIP "
              "(Adult CSV not found; see README)")
        print("ACCEPTANCE 08 correlation audit character: SKIP (same reason)")
        pytest.skip("Adult census CSV not available")
    d = tmp_path_factory.mktemp("census")
    schema_path = str(d / "adult_schema.json")
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(adult_schema_dict(), fh)
    start = time.perf_counter()
    common = dict(
        dataset_csv=csv_path, schema=schema_path, dataset_name="census",
        explainer="integrated_gradients",
        target_hidden=[1024, 512, 256, 128], target_epochs=30,
        target_learning_rate=1e-3, target_batch_size=256,
        attack_hidden=[64, 128, 32], attack_epochs=500,
        attack_learning_rate=1e-3, attack_batch_size=256,
        ig_steps=50, split_seed=11, model_seed=12, attack_seed=13,
        explainer_seed=14, output_dir=str(d / "out"))
    tm1 = pipeline.run_matrix([pipeline.ExperimentConfig(
        threat_model="tm1", surfaces=["phi_all"], **common)])
    tm2 = pipeline.run_matrix([pipeline.ExperimentConfig(
        threat_model="tm2", surfaces=["phi_non_sensitive"], **common)])
    elapsed = time.perf_counter() - start
    return tm1, tm2, elapsed


def test_criterion_7_census_reproduction(census_runs):
    tm1, tm2, elapsed = census_runs
    with criterion(7, "desk-scale CENSUS reproduction", 900):
        assert elapsed < 900, f"runs took {elapsed:.0f}s"
        [target1], [target2] = tm1.manifest["targets"], tm2.manifest["targets"]
        acc = target1["target_test_accuracy"]
        print(f"  [census] tm1 accuracy={acc:.4f} "
              f"tm2 accuracy={target2['target_test_accuracy']:.4f}")
        assert 0.792 <= acc <= 0.852, f"tm1 test accuracy {acc}"
        row1 = tm1.rows[0]
        print(f"  [census] tm1 phi_all F1={row1.f1:.4f} "
              f"(P={row1.precision:.3f} R={row1.recall:.3f} "
              f"base_f1={row1.baseline_f1:.3f})")
        assert row1.f1 >= 0.90
        row2 = tm2.rows[0]
        print(f"  [census] tm2 phi_non_sensitive F1={row2.f1:.4f} "
              f"(P={row2.precision:.3f} R={row2.recall:.3f} "
              f"base_f1={row2.baseline_f1:.3f})")
        assert row2.f1 >= 0.85
        for row in tm1.rows + tm2.rows:
            assert row.f1 > row.baseline_f1, row.surface


def test_criterion_8_correlation_audit(census_runs):
    tm1, _, _ = census_runs
    with criterion(8, "correlation audit character", 60):
        phi_x = next(r for r in tm1.correlations
                     if r.group == "phi_non_sensitive")
        mean_abs = float(np.mean(np.abs(phi_x.coefficients)))
        print(f"  [census] mean |pearson(s, phi_x col)| = {mean_abs:.4f} "
              f"over {phi_x.n_columns} columns")
        assert mean_abs <= 0.1


def test_criterion_9_synthetic_perfect_recovery(tmp_path):
    with criterion(9, "synthetic perfect recovery", 60):
        csv_path, schema_path = write_synthetic_dataset(str(tmp_path), n=300,
                                                        seed=0)
        cfg = pipeline.ExperimentConfig(
            dataset_csv=csv_path, schema=schema_path,
            threat_model="tm1", explainer="integrated_gradients",
            surfaces=["phi_all"],
            target_hidden=[32, 16], target_epochs=150, target_batch_size=32,
            attack_hidden=[16, 8], attack_epochs=500, attack_batch_size=64,
            output_dir=str(tmp_path / "out"))
        report = pipeline.run_matrix([cfg])
        row = report.rows[0]
        assert row.f1 == 1.0, f"F1 {row.f1}"
        assert row.precision == 1.0 and row.recall == 1.0


def test_criterion_10_wire_equivalence(tmp_path):
    with criterion(10, "wire vs in-process pipeline equivalence", 300):
        csv_path, schema_path = write_synthetic_dataset(str(tmp_path), n=300,
                                                        seed=0)
        common = dict(
            dataset_csv=csv_path, schema=schema_path,
            threat_model="tm2", explainer="gradient_shap",
            surfaces=["phi_non_sensitive", "pred_plus_phi", "pred_only"],
            target_hidden=[32, 16], target_epochs=100, target_batch_size=32,
            attack_hidden=[16, 8], attack_epochs=300, attack_batch_size=64)
        local_cfg = pipeline.ExperimentConfig(
            output_dir=str(tmp_path / "local"), **common)
        local = pipeline.run_matrix([local_cfg])

        prep = pipeline.prepare(local_cfg)
        server = service.serve(prep.model, prep.baseline,
                               local_cfg.explainer_config,
                               target=local_cfg.scalar_target)
        try:
            remote_cfg = pipeline.ExperimentConfig(
                output_dir=str(tmp_path / "remote"), transport=server.url,
                **common)
            remote = pipeline.run_matrix([remote_cfg])
        finally:
            server.shutdown()

        assert len(local.rows) == len(remote.rows) == 3
        for lrow, rrow in zip(local.rows, remote.rows):
            assert abs(lrow.precision - rrow.precision) <= 1e-6, lrow.surface
            assert abs(lrow.recall - rrow.recall) <= 1e-6, lrow.surface
            assert abs(lrow.f1 - rrow.f1) <= 1e-6, lrow.surface
