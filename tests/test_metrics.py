import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explinfer import metrics
from explinfer.metrics import ConfusionCounts


def brute_force_point(scores, truth, tau):
    """Independent recomputation of one PR operating point at threshold tau."""
    tp = fp = fn = 0
    for s, t in zip(scores, truth):
        pred = 1 if s >= tau else 0
        if pred and t:
            tp += 1
        elif pred and not t:
            fp += 1
        elif not pred and t:
            fn += 1
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f


class TestConfusion:
    def test_perfect_prediction(self):
        y = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0], dtype=float)
        c = metrics.confusion(y, y)
        assert c == ConfusionCounts(tp=4, fp=0, tn=6, fn=0)

    def test_all_positive_against_all_negative(self):
        c = metrics.confusion(np.ones(7), np.zeros(7))
        assert c.fp == 7 and c.tp == c.tn == c.fn == 0

    def test_matches_hand_tally(self):
        # tallied by hand: rows (pred, truth) ->
        #   (1,1) x4, (1,0) x3, (0,0) x8, (0,1) x5
        pred = [1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        truth = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        c = metrics.confusion(pred, truth)
        assert c == ConfusionCounts(tp=4, fp=3, tn=8, fn=5)
        assert c.tp + c.fp + c.tn + c.fn == 20

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.confusion([1, 0], [1, 0, 1])

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            metrics.confusion([0.5, 1], [0, 1])

    def test_no_records(self):
        with pytest.raises(ValueError, match="no records"):
            metrics.confusion([], [])


class TestPrf:
    def test_perfect(self):
        c = ConfusionCounts(tp=1, fp=0, tn=0, fn=0)
        assert metrics.precision(c) == metrics.recall(c) == metrics.f1(c) == 1.0

    def test_unit_recall_and_precision_give_unit_f1(self):
        c = ConfusionCounts(tp=25, fp=0, tn=10, fn=0)
        assert metrics.recall(c) == 1.0
        assert metrics.precision(c) == 1.0
        assert metrics.f1(c) == 1.0

    def test_zero_conventions(self):
        c = ConfusionCounts(tp=0, fp=0, tn=5, fn=0)
        assert metrics.precision(c) == 0.0
        assert metrics.recall(c) == 0.0
        assert metrics.f1(c) == 0.0
        assert metrics.f1(ConfusionCounts(tp=0, fp=3, tn=2, fn=4)) == 0.0

    def test_hand_computed_fixture(self):
        c = ConfusionCounts(tp=6, fp=2, tn=9, fn=3)
        assert metrics.precision(c) == pytest.approx(6 / 8)
        assert metrics.recall(c) == pytest.approx(6 / 9)
        assert metrics.f1(c) == pytest.approx(2 * (6 / 8) * (6 / 9) / (6 / 8 + 6 / 9))

    @given(st.integers(1, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_f1_between_precision_and_recall(self, tp, fp, tn, fn):
        c = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        p, r, f = metrics.precision(c), metrics.recall(c), metrics.f1(c)
        if p > 0 and r > 0:
            # equality holds when p == r; allow float rounding either side
            assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
        else:
            assert f == 0.0


class TestPrCurve:
    def test_perfect_separation_has_perfect_point(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        truth = np.array([0, 0, 1, 1], dtype=float)
        curve = metrics.pr_curve(scores, truth)
        assert any(p == 1.0 and r == 1.0 for _, p, r, _ in curve.points)

    def test_constant_scores_single_point(self):
        curve = metrics.pr_curve(np.full(6, 0.3), [1, 0, 0, 1, 0, 0])
        assert len(curve.thresholds) == 1
        th, p, r, f = curve.points[0]
        assert th == 0.3 and r == 1.0
        assert p == curve.base_rate == pytest.approx(2 / 6)

    def test_base_rate(self):
        curve = metrics.pr_curve([0.1, 0.9, 0.5, 0.7], [0, 1, 0, 1])
        assert curve.base_rate == 0.5

    def test_thresholds_descend_recall_monotone(self):
        rng = np.random.default_rng(0)
        curve = metrics.pr_curve(rng.random(50), rng.integers(0, 2, 50))
        assert np.all(np.diff(curve.thresholds) < 0)
        assert np.all(np.diff(curve.recalls) >= 0)

    def test_every_point_matches_brute_force(self):
        rng = np.random.default_rng(7)
        scores = np.round(rng.random(100), 2)  # ties on purpose
        truth = rng.integers(0, 2, 100).astype(float)
        curve = metrics.pr_curve(scores, truth)
        assert len(curve.thresholds) == len(np.unique(scores))
        for th, p, r, f in curve.points:
            bp, br, bf = brute_force_point(scores, truth, th)
            assert p == pytest.approx(bp, abs=1e-12)
            assert r == pytest.approx(br, abs=1e-12)
            assert f == pytest.approx(bf, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            metrics.pr_curve([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
            metrics.pr_curve([0.1, 0.2], [0, 1, 1])

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_transform_leaves_points_invariant(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(30)
        truth = np.r_[rng.integers(0, 2, 28), 0, 1].astype(float)
        a = metrics.pr_curve(scores, truth)
        b = metrics.pr_curve(np.exp(3.0 * scores), truth)  # strictly increasing map
        assert np.allclose(a.precisions, b.precisions)
        assert np.allclose(a.recalls, b.recalls)


class TestPearson:
    def test_self_correlation(self):
        a = np.array([1.0, 2.0, 5.0, 3.0])
        assert metrics.pearson(a, a) == 1.0

    def test_anticorrelation(self):
        a = np.array([1.0, 2.0, 5.0, 3.0])
        assert metrics.pearson(a, -a) == -1.0

    def test_constant_is_error(self):
        with pytest.raises(ValueError):
            metrics.pearson([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_one_value_is_error(self):
        with pytest.raises(ValueError, match="size >= 2"):
            metrics.pearson([1.0], [2.0])

    def test_hand_computed(self):
        # deviations: a [-1.5,-0.5,0.5,1.5], b [-0.5,-1.5,1.5,0.5];
        # sum of products 3.0 over sqrt(5)*sqrt(5) -> 0.6
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([2.0, 1.0, 4.0, 3.0])
        assert metrics.pearson(a, b) == pytest.approx(0.6)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1),
           st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    def test_positive_affine_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        r0 = metrics.pearson(a, b)
        r1 = metrics.pearson(scale * a + shift, b)
        assert r1 == pytest.approx(r0, abs=1e-9)
        assert -1.0 <= r0 <= 1.0
