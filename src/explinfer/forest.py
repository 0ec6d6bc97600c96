"""Random forest of CART trees for the adversary's attack model.

Trees are grown greedily on Gini impurity over bootstrap row samples, with
sqrt(d) features drawn per split. Leaves store the positive-class fraction
of the training rows they hold; the forest scores a record by averaging
leaf values over trees. Every random draw flows from a generator derived
from (seed, tree index), so fitting trees in parallel or serially yields
identical forests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class FlatTree:
    """Array-of-nodes tree; feature == -1 marks a leaf. Split rule: x < threshold goes left."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass
class ForestModel:
    trees: list[FlatTree]
    n_features: int


def _best_split(X, y, rows, features, min_leaf):
    """Lowest weighted-Gini split over the candidate features, scoring every
    (cut, candidate) pair at once. Ties go to the first candidate, then to
    the first cut, as in a feature-by-feature scan that takes only a strictly
    lower cost. Returns (cost, feature, threshold) or None when no feature
    admits a split honoring min_leaf."""
    n = len(rows)
    v = X[np.ix_(rows, features)]
    order = np.argsort(v, axis=0, kind="stable")
    vs = np.take_along_axis(v, order, axis=0)
    cum_pos = np.cumsum(y[rows][order], axis=0)
    ln = np.arange(1, n)[:, None]  # size of the left child at each cut
    rn = n - ln
    lp = cum_pos[:-1]
    rp = cum_pos[-1] - lp
    gini_l = 2.0 * (lp / ln) * (1.0 - lp / ln)
    gini_r = 2.0 * (rp / rn) * (1.0 - rp / rn)
    cost = (ln * gini_l + rn * gini_r) / n
    valid = (vs[1:] != vs[:-1]) & (ln >= min_leaf) & (rn >= min_leaf)
    cost[~valid] = np.inf
    j, i = divmod(int(np.argmin(cost.T)), n - 1)  # feature-major
    if cost[i, j] == np.inf:
        return None
    return (float(cost[i, j]), int(features[j]),
            float((vs[i, j] + vs[i + 1, j]) / 2.0))


def _grow_tree(X, y, rows, rng, max_depth, min_leaf, n_sub):
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def build(rows, depth):
        node = new_node()
        value[node] = float(np.mean(y[rows]))
        if depth >= max_depth or len(rows) < 2 * min_leaf:
            return node
        if value[node] in (0.0, 1.0):  # pure node
            return node
        cand = rng.choice(X.shape[1], size=n_sub, replace=False)
        best = _best_split(X, y, rows, cand, min_leaf)
        if best is None:
            return node
        _, f, th = best
        go_left = X[rows, f] < th
        feature[node] = f
        threshold[node] = th
        left[node] = build(rows[go_left], depth + 1)
        right[node] = build(rows[~go_left], depth + 1)
        return node

    build(rows, 0)
    return FlatTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def fit_forest(
    features,
    labels,
    n_trees: int = 100,
    max_depth: int = 150,
    min_leaf: int = 1,
    seed: int = 0,
) -> ForestModel:
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be a matrix with one label per row")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    for name, size in (("n_trees", n_trees), ("max_depth", max_depth), ("min_leaf", min_leaf)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    n = X.shape[0]
    n_sub = max(1, int(round(math.sqrt(X.shape[1]))))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([int(seed), t])
        rows = rng.integers(0, n, size=n)  # bootstrap sample
        trees.append(_grow_tree(X, y, rows, rng, max_depth, min_leaf, n_sub))
    return ForestModel(trees=trees, n_features=X.shape[1])


def tree_scores(tree: FlatTree, X: np.ndarray) -> np.ndarray:
    """Leaf value reached by every row, via vectorized level-wise descent."""
    nodes = np.zeros(X.shape[0], dtype=np.int64)
    active = tree.feature[nodes] >= 0
    while np.any(active):
        idx = np.nonzero(active)[0]
        cur = nodes[idx]
        go_left = X[idx, tree.feature[cur]] < tree.threshold[cur]
        nodes[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
        active[idx] = tree.feature[nodes[idx]] >= 0
    return tree.value[nodes]


def forest_scores(model: ForestModel, features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"features must have {model.n_features} columns, got {X.shape}")
    acc = np.zeros(X.shape[0])
    for tree in model.trees:
        acc += tree_scores(tree, X)
    return acc / len(model.trees)
