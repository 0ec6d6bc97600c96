import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explinfer import attack, forest, metrics, nn
from explinfer.attack import (AttackSurface, SurfaceError, ThreatModel,
                              build_surface_matrix, calibrate, score, train_attack)
from explinfer.explain import Algorithm, Explanations
from explinfer.nn import ScalarTarget


def brute_force_best_threshold(scores, truth):
    """Exhaustive scan over all distinct scores; smallest tau on F1 ties."""
    best_f1, best_tau = -1.0, None
    for tau in sorted(set(float(v) for v in scores)):
        pred = (np.asarray(scores) >= tau).astype(float)
        c = metrics.confusion(pred, truth)
        f = metrics.f1(c)
        if f > best_f1:
            best_f1, best_tau = f, tau
    return best_tau, best_f1


def walk_tree(tree, x):
    """Independent traversal of the flat node arrays for a single record."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] < tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.value[node]


def make_attribution(scores, delta=0.5):
    """The Explanations of one record."""
    return Explanations(
        algorithm=Algorithm.DEEPLIFT, target=ScalarTarget.LOGIT,
        scores=np.asarray([scores], dtype=float), delta=np.array([delta]))


def build_surface(a, prediction, surface, sensitive_cols):
    """The surface row of a one-record Explanations, through the batch form."""
    predictions = None if prediction is None else [prediction]
    return build_surface_matrix(a, predictions, surface, sensitive_cols)[0]


class TestSurfaces:
    sens = [3, 4]  # of 5 columns

    def test_phi_all_length(self):
        a = make_attribution([1.0, 2.0, 3.0, 4.0, 5.0], delta=9.0)
        v = build_surface(a, None, AttackSurface.PHI_ALL, self.sens)
        assert v.shape == (6,)
        assert v[-1] == 9.0

    def test_phi_sensitive_single_column(self):
        a = make_attribution([1.0, 2.0, 7.0])
        v = build_surface(a, None, AttackSurface.PHI_SENSITIVE, [2])
        assert np.array_equal(v, np.array([7.0]))

    def test_phi_non_sensitive_appends_delta(self):
        a = make_attribution([1.0, 2.0, 3.0, 4.0, 5.0], delta=-0.25)
        v = build_surface(a, None, AttackSurface.PHI_NON_SENSITIVE, self.sens)
        assert np.array_equal(v, np.array([1.0, 2.0, 3.0, -0.25]))

    def test_pred_plus_phi_leads_with_prediction(self):
        a = make_attribution([1.0, 2.0, 3.0, 4.0, 5.0], delta=0.0)
        v = build_surface(a, 0.87, AttackSurface.PRED_PLUS_PHI, self.sens)
        assert v[0] == 0.87
        assert v.shape == (5,)

    def test_pred_only(self):
        a = make_attribution([1.0, 2.0])
        v = build_surface(a, 0.31, AttackSurface.PRED_ONLY, [])
        assert np.array_equal(v, np.array([0.31]))

    def test_missing_prediction_rejected(self):
        a = make_attribution([1.0, 2.0])
        with pytest.raises(SurfaceError):
            build_surface(a, None, AttackSurface.PRED_PLUS_PHI, [])

    def test_phi_sensitive_without_a_sensitive_column_rejected(self):
        a = make_attribution([1.0, 2.0])
        with pytest.raises(SurfaceError, match="sensitive columns"):
            build_surface(a, None, AttackSurface.PHI_SENSITIVE, [])

    def test_matrix_rows_are_records(self):
        explanations = Explanations(
            Algorithm.DEEPLIFT, ScalarTarget.LOGIT,
            np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0, 9.0, 10.0]]),
            np.array([0.5, -0.5]))
        sens = self.sens
        vectors = build_surface_matrix(explanations, None, AttackSurface.PHI_ALL, sens)
        assert vectors.shape == (2, 6)
        m = build_surface_matrix(explanations, [0.1, 0.9], AttackSurface.PRED_PLUS_PHI, sens)
        assert np.array_equal(m, np.array([[0.1, 1.0, 2.0, 3.0, 0.5],
                                           [0.9, 6.0, 7.0, 8.0, -0.5]]))
        for surface in AttackSurface:
            rows = [build_surface(explanations[i:i + 1], p, surface, sens)
                    for i, p in enumerate([0.1, 0.9])]
            assert np.array_equal(
                build_surface_matrix(explanations, [0.1, 0.9], surface, sens),
                np.vstack(rows))

    def test_threat_model_validity(self):
        assert AttackSurface.PHI_ALL.valid_for(ThreatModel.TM1)
        assert not AttackSurface.PHI_ALL.valid_for(ThreatModel.TM2)
        assert not AttackSurface.PHI_SENSITIVE.valid_for(ThreatModel.TM2)
        for s in (AttackSurface.PHI_NON_SENSITIVE, AttackSurface.PRED_PLUS_PHI,
                  AttackSurface.PRED_ONLY):
            assert s.valid_for(ThreatModel.TM1) and s.valid_for(ThreatModel.TM2)


class TestTrainAttack:
    def test_perfectly_informative_feature(self):
        rng = np.random.default_rng(0)
        s = rng.integers(0, 2, 120).astype(float)
        X = s[:, None].copy()
        model = train_attack(X, s, kind="mlp", seed=1, mlp_epochs=200)
        preds = (score(model, X) >= 0.5).astype(float)
        assert np.mean(preds == s) == 1.0

    def test_depth_one_tree_cannot_solve_xor(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 25)
        s = np.array([0.0, 1.0, 1.0, 0.0] * 25)
        model = train_attack(
            X, s, kind="forest", seed=3, forest_trees=1, forest_depth=1)
        preds = (score(model, X) >= 0.5).astype(float)
        assert np.mean(preds == s) <= 0.75

    @pytest.mark.parametrize("kind", ["mlp", "forest"])
    @pytest.mark.parametrize("s", [np.zeros(10), np.ones(10), np.zeros(0)])
    def test_single_class_rejected(self, kind, s):
        """All-0, all-1 and empty sensitive labels leave nothing to learn."""
        with pytest.raises(ValueError) as info:
            train_attack(np.zeros((len(s), 2)), s, kind=kind)
        assert str(info.value) == "attack training needs both sensitive classes present"

    @pytest.mark.parametrize("kind", ["mlp", "forest"])
    def test_two_classes_train(self, kind):
        s = np.r_[np.zeros(5), np.ones(5)]
        model = train_attack(s[:, None], s, kind=kind, mlp_epochs=1, forest_trees=1)
        assert isinstance(model, {"mlp": nn.MlpModel, "forest": forest.ForestModel}[kind])
        assert score(model, s[:, None]).shape == (10,)

    @pytest.mark.parametrize("kind", ["mlp", "forest"])
    def test_shape_mismatch(self, kind):
        with pytest.raises(ValueError, match="one sensitive label per row"):
            train_attack(np.zeros((3, 2)), np.array([0.0, 1.0]), kind=kind)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            train_attack(np.zeros((10, 2)), np.r_[np.ones(5), np.zeros(5)],
                         kind="svm")

    @pytest.mark.parametrize("learning_rate", [float("nan"), float("inf")])
    def test_nonfinite_learning_rate_rejected(self, learning_rate):
        """It once trained to a scorer that gave every row NaN."""
        with pytest.raises(ValueError, match="^learning_rate must be"):
            train_attack(np.eye(4), np.r_[np.ones(2), np.zeros(2)], kind="mlp",
                         mlp_epochs=1, mlp_learning_rate=learning_rate)


def per_feature_best_split(X, y, rows, features, min_leaf):
    """Split search one candidate feature at a time: a later feature wins
    only with a strictly lower cost, and argmin takes the first cut."""
    n = len(rows)
    best = None
    for f in features:
        v = X[rows, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        if vs[0] == vs[-1]:
            continue
        cum_pos = np.cumsum(y[rows][order])
        ln = np.arange(1, n)
        rn = n - ln
        valid = (vs[1:] != vs[:-1]) & (ln >= min_leaf) & (rn >= min_leaf)
        if not np.any(valid):
            continue
        lp = cum_pos[:-1]
        rp = cum_pos[-1] - lp
        gini_l = 2.0 * (lp / ln) * (1.0 - lp / ln)
        gini_r = 2.0 * (rp / rn) * (1.0 - rp / rn)
        cost = np.where(valid, (ln * gini_l + rn * gini_r) / n, np.inf)
        i = int(np.argmin(cost))
        if best is None or cost[i] < best[0]:
            best = (float(cost[i]), int(f), float((vs[i] + vs[i + 1]) / 2.0))
    return best


class TestForest:
    def test_scores_match_independent_traversal(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(50, 4))
        s = (X[:, 0] + X[:, 1] ** 2 > 0.5).astype(float)
        model = train_attack(X, s, kind="forest", seed=5, forest_trees=12,
                             forest_depth=6)
        got = score(model, X)
        # oracle: per-record, per-tree python traversal, averaged
        for r in range(X.shape[0]):
            vals = [walk_tree(t, X[r]) for t in model.trees]
            assert got[r] == pytest.approx(sum(vals) / len(vals), abs=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        s = (X[:, 0] > 0).astype(float)
        a = forest.fit_forest(X, s, n_trees=7, seed=11)
        b = forest.fit_forest(X, s, n_trees=7, seed=11)
        Xq = rng.normal(size=(20, 3))
        assert np.array_equal(forest.forest_scores(a, Xq),
                              forest.forest_scores(b, Xq))

    @pytest.mark.parametrize("size", ["n_trees", "max_depth", "min_leaf"])
    def test_size_below_one_rejected(self, size):
        # forest_trees 0 once scored every record nan and calibrated tau* = nan
        X = np.arange(8.0).reshape(4, 2)
        s = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=size):
            forest.fit_forest(X, s, **{size: 0})

    @pytest.mark.parametrize("X, s, message", [
        (np.zeros((4, 2)), [0.0, 1.0, 0.0], "one label per row"),
        (np.zeros(4), [0.0, 1.0, 0.0, 1.0], "one label per row"),
        (np.zeros((4, 2)), [0.0, 1.0, 0.5, 1.0], "labels must be 0 or 1"),
    ], ids=["row_count", "not_a_matrix", "not_binary"])
    def test_features_and_labels_checked(self, X, s, message):
        with pytest.raises(ValueError, match=message):
            forest.fit_forest(X, s)

    def test_pure_training_set_scores_constant_one(self):
        X = np.r_[np.ones((30, 2)), np.zeros((30, 2))]
        s = np.r_[np.ones(30), np.zeros(30)]
        model = forest.fit_forest(X, s, n_trees=5, seed=0)
        assert np.all(forest.forest_scores(model, np.ones((4, 2))) == 1.0)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        s = rng.integers(0, 2, 40).astype(float)
        model = forest.fit_forest(X, s, n_trees=3, min_leaf=5, seed=2)
        # count training rows per leaf by re-running the bootstrap draw
        for t, tree in enumerate(model.trees):
            rng_t = np.random.default_rng([2, t])
            rows = rng_t.integers(0, 40, size=40)
            leaf_counts = {}
            for r in rows:
                node = 0
                while tree.feature[node] >= 0:
                    if X[r, tree.feature[node]] < tree.threshold[node]:
                        node = tree.left[node]
                    else:
                        node = tree.right[node]
                leaf_counts[node] = leaf_counts.get(node, 0) + 1
            assert min(leaf_counts.values()) >= 5

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 80), d=st.integers(1, 12),
           levels=st.integers(1, 4), min_leaf=st.integers(1, 5),
           max_depth=st.sampled_from([2, 6, 150]))
    def test_bit_identical_to_per_feature_split_search(
            self, seed, n, d, levels, min_leaf, max_depth):
        # few distinct values give tied values and tied costs; column 0 is constant
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n, d)).astype(float)
        X[:, 0] = 1.0
        s = (rng.random(n) < 0.4).astype(float)
        kw = dict(n_trees=4, max_depth=max_depth, min_leaf=min_leaf, seed=seed)
        got = forest.fit_forest(X, s, **kw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_best_split", per_feature_best_split)
            want = forest.fit_forest(X, s, **kw)
        for tg, tw in zip(got.trees, want.trees):
            for field in ("feature", "threshold", "left", "right", "value"):
                a, b = getattr(tg, field), getattr(tw, field)
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), field


class TestScore:
    def test_zero_weight_mlp_scores_half(self):
        m = nn.init_model([3, 1], seed=0)
        m.weights[0][:] = 0.0
        assert np.all(score(m, np.random.default_rng(0).normal(size=(5, 3))) == 0.5)

    def test_batch_equals_rowwise(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        s = (X[:, 0] > 0).astype(float)
        model = train_attack(X, s, kind="forest", seed=1, forest_trees=5)
        batch = score(model, X)
        rows = np.array([score(model, X[i : i + 1])[0] for i in range(30)])
        assert np.array_equal(batch, rows)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        s = (X[:, 0] > 0).astype(float)
        model = train_attack(X, s, kind="mlp", seed=1, mlp_epochs=2)
        with pytest.raises(ValueError):
            score(model, np.zeros((5, 4)))

    def test_dimension_mismatch_forest(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        s = (X[:, 0] > 0).astype(float)
        model = train_attack(X, s, kind="forest", seed=1, forest_trees=2)
        with pytest.raises(ValueError):
            score(model, np.zeros((5, 4)))


class TestCalibrate:
    def test_perfect_separation_example(self):
        thr = attack.calibrate_scores([0.1, 0.2, 0.9], [0, 0, 1])
        assert thr.tau_star == 0.9 and thr.achieved_f1_on_aux == 1.0

    def test_constant_scores_single_candidate(self):
        thr = attack.calibrate_scores([0.4, 0.4, 0.4], [0, 1, 1])
        c = metrics.confusion(np.ones(3), [0, 1, 1])
        assert thr.tau_star == 0.4
        assert thr.achieved_f1_on_aux == pytest.approx(metrics.f1(c))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force_scan(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random(60), 2)
        truth = np.r_[rng.integers(0, 2, 58), 0, 1].astype(float)
        thr = attack.calibrate_scores(scores, truth)
        btau, bbest = brute_force_best_threshold(scores, truth)
        assert thr.achieved_f1_on_aux == pytest.approx(bbest, abs=1e-12)
        assert thr.tau_star == pytest.approx(btau, abs=1e-12)

    def test_calibrate_via_attack_model(self):
        # end to end through a real model: calibrated threshold must beat 0.5
        rng = np.random.default_rng(3)
        n = 300
        s = (rng.random(n) < 0.8).astype(float)  # imbalanced
        X = np.c_[s + rng.normal(0, 0.6, n), rng.normal(size=n)]
        model = train_attack(X, s, kind="mlp", seed=2, mlp_epochs=150)
        thr = calibrate(model, X, s)
        sc = score(model, X)
        f_default = metrics.f1(metrics.confusion((sc >= 0.5).astype(float), s))
        assert thr.achieved_f1_on_aux >= f_default - 1e-12
        # candidate thresholds are the distinct scores
        assert thr.tau_star in set(np.round(sc, 20))


class TestInfer:
    """The pipeline's decision rule: s = 1 iff score >= tau_star."""

    def make_forest_model(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 2))
        s = (X[:, 0] > 0).astype(float)
        return train_attack(X, s, kind="forest", seed=0, forest_trees=9), X, s

    def test_threshold_half(self):
        model, X, s = self.make_forest_model()
        thr = attack.CalibratedThreshold(0.5, 0.0, None)
        sc = score(model, X)
        assert np.array_equal(sc >= thr.tau_star, sc >= 0.5)

    def test_zero_threshold_all_positive(self):
        model, X, _ = self.make_forest_model()
        thr = attack.CalibratedThreshold(0.0, 0.0, None)
        assert np.all(score(model, X) >= thr.tau_star)

    def test_raising_tau_never_adds_positives(self):
        model, X, _ = self.make_forest_model()
        sc = score(model, X)
        counts = []
        for tau in np.linspace(0, 1, 21):
            thr = attack.CalibratedThreshold(float(tau), 0.0, None)
            counts.append(int(np.sum(sc >= thr.tau_star)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

