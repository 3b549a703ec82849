"""Binary meta-classifiers for membership attacks.

Three interchangeable models, all seeded and deterministic, fit on a
feature matrix X (one row per sample) and membership labels y in {0, 1}:

- "lr": logistic regression, full-batch gradient descent on binary
  cross-entropy;
- "rf": random forest of CART trees with Gini splits, per-node feature
  subsampling of sqrt(d), bootstrap bagging, and leaf-fraction
  probabilities averaged over trees; each tree is five flat node arrays
  (``Tree``), as in scikit-learn's tree layout;
- "mlp": one-hidden-layer perceptron (ReLU, sigmoid output) trained with
  full-batch gradient descent on binary cross-entropy.

``score_proba`` always lands in [0, 1]; ``predict`` thresholds at exactly
0.5 with ties resolved to member.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDataError, InputError, ShapeError

_SIG_CLIP = 1e-12


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(p, _SIG_CLIP, 1.0 - _SIG_CLIP)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


@dataclass
class LrHyper:
    learning_rate: float = 0.5
    epochs: int = 1500
    l2: float = 1e-4


@dataclass
class RfHyper:
    n_trees: int = 100
    max_depth: int = 12
    min_leaf: int = 1
    bootstrap: bool = True


@dataclass
class MlpHyper:
    hidden: int = 64
    learning_rate: float = 0.1
    epochs: int = 400
    l2: float = 1e-4
    dropout: float = 0.0        # hidden-layer dropout during fitting only
    input_dropout: float = 0.0  # feature dropout during fitting only
    standardize: bool = True


class LogisticMeta:
    """Logistic regression; zero-initialized, so fitting is deterministic."""

    kind = "lr"

    def __init__(self, weights: np.ndarray, bias: float, seed: int = 0):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = float(bias)
        self.seed = seed

    def score_proba(self, features: np.ndarray):
        X = _check_features(features, self.weights.shape[0])
        p = _sigmoid(X @ self.weights + self.bias)
        return float(p[0]) if X.shape[0] == 1 and np.asarray(features).ndim == 1 else p


def lr_loss_and_gradients(weights, bias, X, y, l2: float = 0.0):
    """BCE objective and gradients for logistic regression (gradcheck hook)."""
    p = _sigmoid(X @ weights + bias)
    loss = bce_loss(p, y) + 0.5 * l2 * float(np.sum(weights**2))
    err = (p - y) / X.shape[0]
    gw = X.T @ err + l2 * weights
    gb = float(np.sum(err))
    return loss, gw, gb


def _fit_lr(X, y, hyper: LrHyper, seed: int) -> LogisticMeta:
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(hyper.epochs):
        _, gw, gb = lr_loss_and_gradients(w, b, X, y, hyper.l2)
        w = w - hyper.learning_rate * gw
        b = b - hyper.learning_rate * gb
    return LogisticMeta(w, b, seed)


class Tree(NamedTuple):
    """One CART tree as flat node arrays; node 0 is the root.

    Nodes are numbered in preorder. A leaf has ``left == right == -1``
    (and ``feature == -1``); an inner node sends a row left when
    ``x[feature] < threshold``. ``value`` is the member fraction of the
    node's training rows.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _gini_best_split(cols, y, min_leaf):
    """Best (candidate column, threshold) for a node's rows, or None.

    ``cols`` holds the node's rows of the candidate features. Each column
    is sorted and every midpoint between distinct consecutive values is
    scored with the weighted Gini impurity, vectorized over all candidates
    through cumulative positive counts. Ties go to the earlier candidate
    column, then to the lower midpoint.
    """
    n = y.shape[0]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    lp = np.cumsum(y[order], axis=0)[:-1]
    left_n = np.arange(1, n)[:, None]
    valid = xs[1:] != xs[:-1]
    if min_leaf > 1:
        valid &= (left_n >= min_leaf) & (n - left_n >= min_leaf)
    rn = n - left_n
    rp = int(y.sum()) - lp
    gini_l = 1.0 - (lp / left_n) ** 2 - ((left_n - lp) / left_n) ** 2
    gini_r = 1.0 - (rp / rn) ** 2 - ((rn - rp) / rn) ** 2
    score = np.where(valid, (left_n * gini_l + rn * gini_r) / n, np.inf)
    rows = np.argmin(score, axis=0)
    col_best = score[rows, np.arange(score.shape[1])]
    j = int(np.argmin(col_best))
    if not np.isfinite(col_best[j]):
        return None
    i = rows[j]
    return j, float((xs[i, j] + xs[i + 1, j]) / 2.0)


def _grow_tree(X, y, rows, rng, hyper: RfHyper, n_sub) -> Tree:
    """Grow one tree on the rows ``rows`` of (X, y), depth-first, left first.

    Nodes are visited in preorder from an explicit stack, so each node's
    feature subset is drawn from ``rng`` in that order. A stack entry is
    (row indices into X, depth, parent node, whether the node is the
    parent's left child).
    """
    feature, threshold, left, right, value = [], [], [], [], []
    stack = [(rows, 0, -1, True)]
    while stack:
        rows, depth, parent, is_left = stack.pop()
        node = len(value)
        if parent >= 0:
            (left if is_left else right)[parent] = node
        yr = y[rows]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(yr.mean()))
        if depth >= hyper.max_depth or rows.size < 2 * hyper.min_leaf or yr.min() == yr.max():
            continue
        feature_ids = rng.permutation(X.shape[1])[:n_sub]
        best = _gini_best_split(X[np.ix_(rows, feature_ids)], yr, hyper.min_leaf)
        if best is None:
            continue
        j, thr = best
        f = int(feature_ids[j])
        feature[node], threshold[node] = f, thr
        mask = X[rows, f] < thr
        stack.append((rows[~mask], depth + 1, node, False))
        stack.append((rows[mask], depth + 1, node, True))
    return Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=float),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value, dtype=float),
    )


def _leaf_values(tree: Tree, X) -> np.ndarray:
    """Each row's leaf value: all rows move down one level per gather."""
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        inner = tree.left[node] >= 0
        if not inner.any():
            return tree.value[node]
        go_left = X[rows, tree.feature[node]] < tree.threshold[node]
        node = np.where(inner, np.where(go_left, tree.left[node], tree.right[node]), node)


class RandomForestMeta:
    """Bagged CART forest; probability = mean leaf member-fraction."""

    kind = "rf"

    def __init__(self, trees: list[Tree], n_features: int, seed: int = 0, bootstrap: bool = True):
        self.trees = trees
        self.n_features = n_features
        self.seed = seed
        self.bootstrap = bootstrap

    def score_proba(self, features: np.ndarray):
        X = _check_features(features, self.n_features)
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += _leaf_values(tree, X)
        p = acc / len(self.trees)
        return float(p[0]) if X.shape[0] == 1 and np.asarray(features).ndim == 1 else p


def _tree_seeds(seed: int, n_trees: int):
    return np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF).spawn(n_trees)


def _fit_rf(X, y, hyper: RfHyper, seed: int) -> RandomForestMeta:
    n, d = X.shape
    n_sub = max(1, int(np.floor(np.sqrt(d))))
    trees = []
    for tree_seed in _tree_seeds(seed, hyper.n_trees):
        rng = np.random.default_rng(tree_seed)
        if hyper.bootstrap:
            idx = rng.integers(0, n, n)
        else:
            idx = np.arange(n)
        trees.append(_grow_tree(X, y, idx, rng, hyper, n_sub))
    return RandomForestMeta(trees, d, seed, bootstrap=hyper.bootstrap)


def out_of_bag_proba(clf: RandomForestMeta, X: np.ndarray) -> np.ndarray:
    """Each training row's mean leaf probability over the trees that left it out.

    ``X`` is the training matrix in fitting order; the bootstrap draws are
    replayed from the forest's seed. A row sits out of about e^-1 of the
    trees, so its estimate averages that share of the forest.
    """
    if not clf.bootstrap:
        raise InputError("out-of-bag scores need a bagged forest")
    X = _check_features(X, clf.n_features)
    n = X.shape[0]
    total, count = np.zeros(n), np.zeros(n)
    for tree, tree_seed in zip(clf.trees, _tree_seeds(clf.seed, len(clf.trees))):
        left_out = np.ones(n, dtype=bool)
        left_out[np.random.default_rng(tree_seed).integers(0, n, n)] = False
        rows = np.flatnonzero(left_out)
        total[rows] += _leaf_values(tree, X[rows])
        count[rows] += 1
    if np.any(count == 0):
        raise DegenerateDataError("a training row is in every bootstrap sample")
    return total / count


class MlpMeta:
    """One-hidden-layer binary classifier with sigmoid output.

    Inputs are standardized with the training mean and deviation, so
    mixed-scale features (posterior entries next to loss values) train
    stably.
    """

    kind = "mlp"

    def __init__(self, W1, b1, w2, b2: float, seed: int = 0, mean=None, std=None):
        self.W1 = np.asarray(W1, dtype=float)
        self.b1 = np.asarray(b1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)
        self.b2 = float(b2)
        self.seed = seed
        d = self.W1.shape[1]
        self.mean = np.zeros(d) if mean is None else np.asarray(mean, dtype=float)
        self.std = np.ones(d) if std is None else np.asarray(std, dtype=float)

    def score_proba(self, features: np.ndarray):
        X = _check_features(features, self.W1.shape[1])
        X = (X - self.mean) / self.std
        h = np.maximum(X @ self.W1.T + self.b1, 0.0)
        p = _sigmoid(h @ self.w2 + self.b2)
        return float(p[0]) if X.shape[0] == 1 and np.asarray(features).ndim == 1 else p


def mlp_loss_and_gradients(W1, b1, w2, b2, X, y, l2: float = 0.0, hidden_mask=None):
    """BCE objective and gradients for the MLP meta-classifier.

    ``hidden_mask`` is an inverted-dropout mask applied to the hidden
    activations (training-time regularization); None disables it.
    """
    z1 = X @ W1.T + b1
    h = np.maximum(z1, 0.0)
    if hidden_mask is not None:
        h = h * hidden_mask
    p = _sigmoid(h @ w2 + b2)
    loss = bce_loss(p, y) + 0.5 * l2 * (float(np.sum(W1**2)) + float(np.sum(w2**2)))
    err = (p - y) / X.shape[0]
    gw2 = h.T @ err + l2 * w2
    gb2 = float(np.sum(err))
    dh = np.outer(err, w2)
    if hidden_mask is not None:
        dh = dh * hidden_mask
    dh = dh * (z1 > 0.0)
    gW1 = dh.T @ X + l2 * W1
    gb1 = dh.sum(axis=0)
    return loss, gW1, gb1, gw2, gb2


def _fit_mlp(X, y, hyper: MlpHyper, seed: int) -> MlpMeta:
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    if hyper.standardize:
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < 1e-12] = 1.0
    else:
        mean = np.zeros(X.shape[1])
        std = np.ones(X.shape[1])
    Xs = (X - mean) / std
    d = X.shape[1]
    W1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(hyper.hidden, d))
    b1 = np.zeros(hyper.hidden)
    w2 = rng.normal(0.0, np.sqrt(1.0 / hyper.hidden), size=hyper.hidden)
    b2 = 0.0
    for _ in range(hyper.epochs):
        mask = None
        if hyper.dropout > 0.0:
            mask = (rng.random((X.shape[0], hyper.hidden)) >= hyper.dropout) / (1.0 - hyper.dropout)
        Xe = Xs
        if hyper.input_dropout > 0.0:
            keep = (rng.random(Xs.shape) >= hyper.input_dropout) / (1.0 - hyper.input_dropout)
            Xe = Xs * keep
        _, gW1, gb1, gw2, gb2 = mlp_loss_and_gradients(W1, b1, w2, b2, Xe, y, hyper.l2, mask)
        W1 = W1 - hyper.learning_rate * gW1
        b1 = b1 - hyper.learning_rate * gb1
        w2 = w2 - hyper.learning_rate * gw2
        b2 = b2 - hyper.learning_rate * gb2
    return MlpMeta(W1, b1, w2, b2, seed, mean=mean, std=std)


_DEFAULT_HYPERS = {"lr": LrHyper, "rf": RfHyper, "mlp": MlpHyper}
_FITTERS = {"lr": _fit_lr, "rf": _fit_rf, "mlp": _fit_mlp}


def fit(kind: str, X: np.ndarray, y: np.ndarray, hyper=None, seed: int = 0):
    """Train a meta-classifier of the given kind on features X and labels y.

    X is (n, d) with finite values; y holds n membership labels in {0, 1}
    with both classes present.
    """
    if kind not in _FITTERS:
        raise InputError(f"unknown meta-classifier kind {kind!r}")
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ShapeError(f"features {X.shape} and labels {y.shape} are not (n, d) and (n,)")
    if X.shape[0] == 0:
        raise InputError("no meta rows supplied")
    if not np.all(np.isfinite(X)):
        raise InputError("meta features must be finite")
    if not np.all((y == 0) | (y == 1)):
        raise InputError("membership label must be 0 or 1")
    y = y.astype(np.int64)
    if y.min() == y.max():
        raise DegenerateDataError("meta rows contain a single class")
    if hyper is None:
        hyper = _DEFAULT_HYPERS[kind]()
    return _FITTERS[kind](X, y, hyper, int(seed) & 0xFFFFFFFFFFFFFFFF)


def score_proba(clf, features: np.ndarray):
    """Membership probability in [0, 1] for one vector or a batch."""
    return clf.score_proba(features)


def predict(clf, features: np.ndarray):
    """Membership decision at threshold 0.5; ties go to member."""
    p = score_proba(clf, features)
    if np.isscalar(p):
        return p >= 0.5
    return np.asarray(p) >= 0.5


def _check_features(features, expected: int) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != expected:
        raise ShapeError(f"feature length {X.shape[-1]} != {expected}")
    return X
