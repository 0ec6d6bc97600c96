"""Accuracy, precision, recall, F1, precision-recall curves and Pearson correlation.

Zero-denominator conventions: precision, recall and F1 each return 0.0 when
their denominator is 0. Decision rules everywhere are inclusive: a record is
predicted positive iff its score >= the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def _binary_vector(v, name) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).ravel()
    if not np.all((v == 0.0) | (v == 1.0)):
        raise ValueError(f"{name} must contain only 0 and 1")
    return v


def confusion(predicted, truth) -> ConfusionCounts:
    p = _binary_vector(predicted, "predicted")
    t = _binary_vector(truth, "truth")
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} vs {t.shape[0]}")
    if p.shape[0] == 0:
        raise ValueError("cannot build a confusion matrix from no records")
    tp = int(np.sum((p == 1) & (t == 1)))
    fp = int(np.sum((p == 1) & (t == 0)))
    tn = int(np.sum((p == 0) & (t == 0)))
    fn = int(np.sum((p == 0) & (t == 1)))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def accuracy(probabilities, labels) -> float:
    """Fraction of rows where (probability >= 0.5) equals the label."""
    p = np.asarray(probabilities, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if p.shape[0] == 0:
        raise ValueError("cannot evaluate accuracy on an empty set")
    if p.shape != y.shape:
        raise ValueError(f"{p.shape[0]} probabilities vs {y.shape[0]} labels")
    return float(np.mean((p >= 0.5) == y))


def precision(c: ConfusionCounts) -> float:
    denom = c.tp + c.fp
    return c.tp / denom if denom else 0.0


def recall(c: ConfusionCounts) -> float:
    denom = c.tp + c.fn
    return c.tp / denom if denom else 0.0


def f1(c: ConfusionCounts) -> float:
    # harmonic mean of precision and recall, evaluated as one exact-integer
    # division so equal rational F1 values compare equal as floats
    denom = 2 * c.tp + c.fp + c.fn
    return 2 * c.tp / denom if denom else 0.0


@dataclass
class PrCurve:
    """One operating point per distinct score threshold, thresholds descending."""

    thresholds: np.ndarray
    precisions: np.ndarray
    recalls: np.ndarray
    f1s: np.ndarray
    base_rate: float


def pr_curve(scores, truth) -> PrCurve:
    """Precision/recall/F1 at every distinct score used as a >= threshold."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    t = _binary_vector(truth, "truth")
    if s.shape != t.shape:
        raise ValueError(f"length mismatch: {s.shape[0]} vs {t.shape[0]}")
    n_pos = int(t.sum())
    if n_pos == 0 or n_pos == t.shape[0]:
        raise ValueError("both classes must be present to sweep thresholds")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    cum_tp = np.cumsum(t_sorted)
    counts = np.arange(1, len(s) + 1)
    # last occurrence of each distinct score in the descending order gives
    # the operating point of "predict positive iff score >= that value"
    last = np.nonzero(np.r_[s_sorted[1:] != s_sorted[:-1], True])[0]
    thresholds = s_sorted[last]
    prec = cum_tp[last] / counts[last]
    rec = cum_tp[last] / n_pos
    # 2*tp / (2*tp + fp + fn) in one division; fp = predicted - tp,
    # fn = n_pos - tp, so the denominator is predicted + n_pos
    f1s = 2.0 * cum_tp[last] / (counts[last] + n_pos)
    return PrCurve(
        thresholds=thresholds,
        precisions=prec,
        recalls=rec,
        f1s=f1s,
        base_rate=n_pos / t.shape[0],
    )


def pearson(a, b) -> float:
    """Sample Pearson correlation; constant inputs are an error, not 0."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape or a.shape[0] < 2:
        raise ValueError("pearson needs two equal-length vectors of size >= 2")
    da = a - a.mean()
    db = b - b.mean()
    aa = np.sum(da * da)
    bb = np.sum(db * db)
    if aa == 0.0 or bb == 0.0:
        raise ValueError("pearson correlation is undefined for constant input")
    # single square root keeps perfectly (anti)correlated inputs at exactly +-1
    r = float(np.sum(da * db) / np.sqrt(aa * bb))
    return min(1.0, max(-1.0, r))

