"""Meta-classifier tests: separability, gradients, determinism, tie rules."""

import numpy as np
import pytest

from compaudit import meta
from compaudit.errors import DegenerateDataError, InputError, ShapeError


def one_d_separable(n=40, seed=0):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = (np.where(y == 1, 1.0, -1.0) + 0.05 * rng.normal(size=n)).reshape(-1, 1)
    return X, y


class TestLogistic:
    def test_separable_data_perfect_accuracy(self):
        X, y = one_d_separable()
        clf = meta.fit("lr", X, y, seed=0)
        assert np.mean(meta.predict(clf, X) == (y == 1)) == 1.0

    def test_duplicate_point_with_both_labels_scores_half(self):
        X = np.array([[0.3, -0.2], [0.3, -0.2]])
        y = np.array([0, 1])
        clf = meta.fit("lr", X, y, seed=0)
        assert meta.score_proba(clf, X[0]) == pytest.approx(0.5, abs=1e-9)

    def test_zero_weights_score_half(self):
        clf = meta.LogisticMeta(np.zeros(3), 0.0)
        assert meta.score_proba(clf, np.array([5.0, -2.0, 9.9])) == 0.5

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 4))
        y = rng.integers(0, 2, 12)
        w = rng.normal(size=4) * 0.3
        b = 0.1
        l2 = 0.01
        _, gw, gb = meta.lr_loss_and_gradients(w, b, X, y, l2)
        h = 1e-5
        for i in range(4):
            w_up, w_dn = w.copy(), w.copy()
            w_up[i] += h
            w_dn[i] -= h
            up, _, _ = meta.lr_loss_and_gradients(w_up, b, X, y, l2)
            dn, _, _ = meta.lr_loss_and_gradients(w_dn, b, X, y, l2)
            assert gw[i] == pytest.approx((up - dn) / (2 * h), rel=1e-4, abs=1e-8)
        up, _, _ = meta.lr_loss_and_gradients(w, b + h, X, y, l2)
        dn, _, _ = meta.lr_loss_and_gradients(w, b - h, X, y, l2)
        assert gb == pytest.approx((up - dn) / (2 * h), rel=1e-4, abs=1e-8)

    def test_refit_reproduces_parameters(self):
        X, y = one_d_separable(seed=3)
        a = meta.fit("lr", X, y, seed=7)
        b = meta.fit("lr", X, y, seed=7)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


class TestRandomForest:
    def test_depth_one_tree_cannot_solve_xor(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        hyper = meta.RfHyper(n_trees=1, max_depth=1, bootstrap=False)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=0)
        acc = np.mean(meta.predict(clf, X) == (y == 1))
        assert acc <= 0.75

    def test_deep_forest_solves_xor(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        hyper = meta.RfHyper(n_trees=25, max_depth=4, bootstrap=False)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=1)
        assert np.mean(meta.predict(clf, X) == (y == 1)) == 1.0

    def test_unanimous_trees_score_one(self):
        X, y = one_d_separable(seed=4)
        hyper = meta.RfHyper(n_trees=10, max_depth=3, bootstrap=False)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=2)
        assert meta.score_proba(clf, np.array([1.0])) == 1.0
        assert meta.score_proba(clf, np.array([-1.0])) == 0.0

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 6))
        y = rng.integers(0, 2, 80)
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=15, max_depth=4), seed=3)
        p = meta.score_proba(clf, rng.normal(size=(40, 6)))
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_seeded_refit_identical_structure(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 5))
        y = rng.integers(0, 2, 60)
        hyper = meta.RfHyper(n_trees=8, max_depth=5)
        a = meta.fit("rf", X, y, hyper=hyper, seed=11)
        b = meta.fit("rf", X, y, hyper=hyper, seed=11)
        assert len(a.trees) == len(b.trees) == 8
        for ta, tb in zip(a.trees, b.trees):
            assert all(np.array_equal(u, v) for u, v in zip(ta, tb))

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_scores_match_a_per_row_walk_of_the_node_arrays(self, min_leaf):
        rng = np.random.default_rng(12)
        X = np.round(rng.normal(size=(120, 7)), 1)  # rounding makes ties
        y = (X[:, 0] + rng.normal(size=120) > 0).astype(int)
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=30, min_leaf=min_leaf), seed=4)

        def leaf_value(tree, x):
            node = 0
            while tree.left[node] >= 0:
                go_left = x[tree.feature[node]] < tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            return tree.value[node]

        Xt = rng.normal(size=(50, 7))
        expect = np.zeros(50)
        for tree in clf.trees:
            expect += [leaf_value(tree, x) for x in Xt]
        assert np.array_equal(meta.score_proba(clf, Xt), expect / len(clf.trees))

        total, count = np.zeros(120), np.zeros(120)
        for tree, seq in zip(clf.trees, np.random.SeedSequence(4).spawn(len(clf.trees))):
            in_bag = set(np.random.default_rng(seq).integers(0, 120, 120).tolist())
            for i in sorted(set(range(120)) - in_bag):
                total[i] += leaf_value(tree, X[i])
                count[i] += 1
        assert np.array_equal(meta.out_of_bag_proba(clf, X), total / count)

    def test_out_of_bag_scores_ignore_in_bag_rows(self):
        # labels carry no signal: deep trees memorize their bootstrap rows,
        # so in-sample scores look separable while out-of-bag scores do not
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 4))
        y = np.arange(200) % 2
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=40, max_depth=30), seed=5)

        def ba(p):
            return 0.5 * (np.mean(p[y == 1] >= 0.5) + np.mean(p[y == 0] < 0.5))

        oob = meta.out_of_bag_proba(clf, X)
        assert np.all((oob >= 0.0) & (oob <= 1.0))
        assert ba(meta.score_proba(clf, X)) >= 0.9
        assert 0.35 <= ba(oob) <= 0.65

    def test_out_of_bag_needs_bagging_and_a_left_out_tree(self):
        X, y = one_d_separable(seed=8)
        unbagged = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=5, bootstrap=False))
        with pytest.raises(InputError):
            meta.out_of_bag_proba(unbagged, X)
        single = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=1), seed=1)
        with pytest.raises(DegenerateDataError):
            meta.out_of_bag_proba(single, X)


def _reference_split(cols, y, min_leaf):
    """Best (candidate, threshold) for one node by the one-node-at-a-time search."""
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


def _reference_tree(X, y, rows, rng, hyper, n_sub):
    """One tree grown alone, depth-first from an explicit stack over row indices.

    Returns the tree and how many searched nodes found no valid split.
    """
    feature, threshold, left, right, value = [], [], [], [], []
    dead_ends = 0
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
        best = _reference_split(X[np.ix_(rows, feature_ids)], yr, hyper.min_leaf)
        if best is None:
            dead_ends += 1
            continue
        j, thr = best
        f = int(feature_ids[j])
        feature[node], threshold[node] = f, thr
        mask = X[rows, f] < thr
        stack.append((rows[~mask], depth + 1, node, False))
        stack.append((rows[mask], depth + 1, node, True))
    tree = meta.Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=float),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value, dtype=float),
    )
    return tree, dead_ends


def reference_forest(X, y, hyper, seed):
    """The forest grown one tree after another; returns it and its dead-end count."""
    n, d = X.shape
    n_sub = max(1, int(np.floor(np.sqrt(d))))
    trees, dead_ends = [], 0
    for tree_seed in np.random.SeedSequence(seed).spawn(hyper.n_trees):
        rng = np.random.default_rng(tree_seed)
        rows = rng.integers(0, n, n) if hyper.bootstrap else np.arange(n)
        tree, dead = _reference_tree(X, y, rows, rng, hyper, n_sub)
        trees.append(tree)
        dead_ends += dead
    return meta.RandomForestMeta(trees, d, seed, hyper.bootstrap), dead_ends


def growth_data(kind, n=150, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        X = rng.normal(size=(n, 6))
    elif kind == "ties":
        X = np.round(rng.normal(size=(n, 6)), 1)
    elif kind == "discrete":  # a one-hot block, small integers and a coarse score
        X = np.concatenate([np.eye(4)[rng.integers(0, 4, n)], rng.integers(0, 3, (n, 2)),
                            np.round(rng.random((n, 1)), 1)], axis=1)
    elif kind == "one_column":
        X = np.round(rng.normal(size=(n, 1)), 1)
    elif kind == "adjacent":  # the midpoint of 1 and the next float rounds down to 1
        X = np.where(rng.random((n, 1)) < 0.5, 1.0, np.nextafter(1.0, 2.0))
    else:  # "constant": most candidate pairs hold only constant columns
        X = np.concatenate([rng.normal(size=(n, 1)), np.ones((n, 4))], axis=1)
    y = (X[:, 0] + rng.normal(size=n) > 0).astype(int)
    return X, y


class TestLockstepGrowth:
    """The lockstep grower against the trees grown one at a time."""

    @staticmethod
    def assert_same_forest(clf, ref):
        assert len(clf.trees) == len(ref.trees)
        for got, want in zip(clf.trees, ref.trees):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("kind, bootstrap, min_leaf, max_depth", [
        ("continuous", True, 1, 12),
        ("continuous", False, 1, 12),
        ("ties", True, 3, 12),
        ("ties", False, 3, 12),
        ("discrete", True, 1, 12),
        ("discrete", False, 3, 12),
        ("discrete", True, 1, 2),
        ("one_column", True, 1, 12),
        ("one_column", False, 3, 2),
        ("constant", True, 1, 12),
        ("adjacent", False, 1, 4),
    ])
    @pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value")
    def test_trees_match_the_one_at_a_time_grower(self, kind, bootstrap, min_leaf, max_depth):
        X, y = growth_data(kind)
        hyper = meta.RfHyper(n_trees=15, max_depth=max_depth, min_leaf=min_leaf,
                             bootstrap=bootstrap)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=21)
        ref, dead_ends = reference_forest(X, y, hyper, 21)
        self.assert_same_forest(clf, ref)
        if kind == "constant":
            assert dead_ends > 0  # searched nodes whose candidates were all constant
        if max_depth == 2:  # some tree reaches the cap: it has a node at depth 2
            assert 3 < max(t.value.size for t in clf.trees) <= 7
        if kind == "adjacent":  # the split sends every row right and leaves an empty left leaf
            assert np.isnan(clf.trees[0].value).any()
        if bootstrap:
            assert np.array_equal(meta.out_of_bag_proba(clf, X), meta.out_of_bag_proba(ref, X))

    def test_groups_of_uneven_size(self, monkeypatch):
        groups = []
        grow = meta._grow_lockstep

        def counting(X, y, ranks, values, group, hyper, n_sub):
            groups.append(len(group))
            return grow(X, y, ranks, values, group, hyper, n_sub)

        monkeypatch.setattr(meta, "_grow_lockstep", counting)
        monkeypatch.setattr(meta, "_STEP_CELLS", 1000)
        X, y = growth_data("ties", n=120, seed=3)
        hyper = meta.RfHyper(n_trees=23)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=8)
        assert len(groups) > 2 and sum(groups) == 23 and 23 % groups[0] != 0
        ref, _ = reference_forest(X, y, hyper, 8)
        self.assert_same_forest(clf, ref)
        assert np.array_equal(meta.out_of_bag_proba(clf, X), meta.out_of_bag_proba(ref, X))


class TestMlp:
    def test_separable_data(self):
        X, y = one_d_separable(seed=7)
        clf = meta.fit("mlp", X, y, seed=5)
        assert np.mean(meta.predict(clf, X) == (y == 1)) == 1.0

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, 30)
        clf = meta.fit("mlp", X, y, seed=6)
        p = meta.score_proba(clf, X)
        perm = rng.permutation(30)
        p_perm = meta.score_proba(clf, X[perm])
        assert np.allclose(p[perm], p_perm)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, 10)
        W1 = rng.normal(size=(4, 3)) * 0.5
        b1 = rng.normal(size=4) * 0.1
        w2 = rng.normal(size=4) * 0.5
        b2 = 0.05
        l2 = 0.01
        _, gW1, gb1, gw2, gb2 = meta.mlp_loss_and_gradients(W1, b1, w2, b2, X, y, l2)
        h = 1e-5

        def loss(W1_, b1_, w2_, b2_):
            return meta.mlp_loss_and_gradients(W1_, b1_, w2_, b2_, X, y, l2)[0]

        for (i, j), g in np.ndenumerate(gW1):
            up, dn = W1.copy(), W1.copy()
            up[i, j] += h
            dn[i, j] -= h
            assert g == pytest.approx((loss(up, b1, w2, b2) - loss(dn, b1, w2, b2)) / (2 * h),
                                      rel=1e-4, abs=1e-8)
        for i, g in enumerate(gw2):
            up, dn = w2.copy(), w2.copy()
            up[i] += h
            dn[i] -= h
            assert g == pytest.approx((loss(W1, b1, up, b2) - loss(W1, b1, dn, b2)) / (2 * h),
                                      rel=1e-4, abs=1e-8)
        assert gb2 == pytest.approx(
            (loss(W1, b1, w2, b2 + h) - loss(W1, b1, w2, b2 - h)) / (2 * h), rel=1e-4, abs=1e-8
        )

    def test_refit_reproduces_parameters(self):
        X, y = one_d_separable(seed=10)
        a = meta.fit("mlp", X, y, seed=9)
        b = meta.fit("mlp", X, y, seed=9)
        assert np.array_equal(a.W1, b.W1) and np.array_equal(a.w2, b.w2)


class TestContracts:
    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            meta.fit("lr", np.ones((5, 2)), np.ones(5))

    def test_mismatched_feature_length_rejected(self):
        # a ragged record list cannot exist as an array: the row counts of
        # X and y are what can disagree
        with pytest.raises(ShapeError):
            meta.fit("lr", np.ones((3, 2)), np.array([1, 0]))

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ShapeError):
            meta.fit("lr", np.array([0.1, 0.9]), np.array([1, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.array([[0.1, 0.2], [0.3, bad]])
        with pytest.raises(InputError):
            meta.fit("lr", X, np.array([1, 0]))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_labels_outside_zero_one_rejected(self, bad):
        with pytest.raises(InputError):
            meta.fit("lr", np.ones((2, 2)), np.array([1, bad]))

    def test_no_rows_rejected(self):
        with pytest.raises(InputError):
            meta.fit("lr", np.ones((0, 2)), np.array([], dtype=np.int64))

    def test_score_length_mismatch_rejected(self):
        X, y = one_d_separable()
        clf = meta.fit("lr", X, y)
        with pytest.raises(ShapeError):
            meta.score_proba(clf, np.ones(5))

    def test_tie_goes_to_member(self):
        clf = meta.LogisticMeta(np.zeros(2), 0.0)  # every score exactly 0.5
        assert meta.predict(clf, np.zeros(2))
