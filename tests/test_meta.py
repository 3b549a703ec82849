"""Meta-classifier tests: separability, gradients, determinism, tie rules."""

import numpy as np
import pytest

from compaudit import attacks, checkpoint, meta
from compaudit.errors import DegenerateDataError, InputError, ShapeError


def accuracy(clf, X, y):
    """Share of rows decided right at threshold 0.5, ties to member."""
    return np.mean((meta.score_proba(clf, X) >= 0.5) == (y == 1))


def one_d_separable(n=40, seed=0):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = (np.where(y == 1, 1.0, -1.0) + 0.05 * rng.normal(size=n)).reshape(-1, 1)
    return X, y


class TestLogistic:
    def test_separable_data_perfect_accuracy(self):
        X, y = one_d_separable()
        clf = meta.fit("lr", X, y, seed=0)
        assert accuracy(clf, X, y) == 1.0

    def test_duplicate_point_with_both_labels_scores_half(self):
        X = np.array([[0.3, -0.2], [0.3, -0.2]])
        y = np.array([0, 1])
        clf = meta.fit("lr", X, y, seed=0)
        assert meta.score_proba(clf, X[:1])[0] == pytest.approx(0.5, abs=1e-9)

    def test_zero_weights_score_half(self):
        clf = meta.LogisticMeta(np.zeros(3), 0.0)
        assert meta.score_proba(clf, np.array([[5.0, -2.0, 9.9]]))[0] == 0.5

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


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def in_every_bag(clf, X):
    """Whether every tree's bootstrap sample holds every distinct row of ``X``."""
    distinct = np.unique(X, axis=0)
    return all(np.unique(X[bag], axis=0).shape == distinct.shape for bag in clf.in_bag)


class TestRandomForest:
    # 25 copies of each XOR pattern: every bootstrap sample of the 100 rows holds all four
    def test_depth_one_tree_cannot_solve_xor(self):
        X, y = np.tile(XOR_X, (25, 1)), np.tile(XOR_Y, 25)
        hyper = meta.RfHyper(n_trees=1, max_depth=1)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=0)
        assert in_every_bag(clf, X)
        acc = accuracy(clf, XOR_X, XOR_Y)
        assert acc <= 0.75

    def test_deep_forest_solves_xor(self):
        X, y = np.tile(XOR_X, (25, 1)), np.tile(XOR_Y, 25)
        hyper = meta.RfHyper(n_trees=25, max_depth=4)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=1)
        assert in_every_bag(clf, X)
        assert accuracy(clf, XOR_X, XOR_Y) == 1.0

    def test_unanimous_trees_score_one(self):
        X, y = one_d_separable(seed=4)
        hyper = meta.RfHyper(n_trees=10, max_depth=3)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=2)
        # every bag holds both classes, so every tree splits them apart
        assert all(len(set(y[bag])) == 2 for bag in clf.in_bag)
        assert meta.score_proba(clf, np.array([[1.0]]))[0] == 1.0
        assert meta.score_proba(clf, np.array([[-1.0]]))[0] == 0.0

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

    def test_scores_match_a_per_row_walk_of_the_node_arrays(self):
        rng = np.random.default_rng(12)
        X = np.round(rng.normal(size=(120, 7)), 1)  # rounding makes ties
        y = (X[:, 0] + rng.normal(size=120) > 0).astype(int)
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=30), seed=4)

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

    def test_out_of_bag_needs_a_left_out_tree(self):
        X, y = one_d_separable(seed=8)
        single = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=1), seed=1)
        with pytest.raises(DegenerateDataError):
            meta.out_of_bag_proba(single, X)

    def test_out_of_bag_needs_the_fitted_bags(self, tmp_path):
        X, y = one_d_separable(seed=8)
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=5), seed=1)
        checkpoint.save_classifier(tmp_path / "rf.json", clf)
        loaded = checkpoint.load_classifier(tmp_path / "rf.json")
        assert loaded.in_bag is None
        assert np.array_equal(meta.score_proba(loaded, X), meta.score_proba(clf, X))
        with pytest.raises(InputError, match="bags"):
            meta.out_of_bag_proba(loaded, X)

    @pytest.mark.parametrize("rows", [39, 41])
    def test_out_of_bag_needs_the_training_row_count(self, rows):
        X, y = one_d_separable(n=40, seed=8)
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=5), seed=1)
        other = np.resize(X, (rows, 1))
        with pytest.raises(InputError, match="40 training rows"):
            meta.out_of_bag_proba(clf, other)


def _reference_split(cols, y):
    """Best (candidate, threshold) for one node by the one-node-at-a-time search."""
    n = y.shape[0]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    lp = np.cumsum(y[order], axis=0)[:-1]
    left_n = np.arange(1, n)[:, None]
    valid = xs[1:] != xs[:-1]
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
    lower, upper = xs[i, j], xs[i + 1, j]
    # a midpoint that rounds down to the lower value would not separate them
    thr = (lower + upper) / 2.0
    return j, float(thr if thr > lower else upper)


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
        if depth >= hyper.max_depth or yr.min() == yr.max():
            continue
        feature_ids = rng.permutation(X.shape[1])[:n_sub]
        best = _reference_split(X[np.ix_(rows, feature_ids)], yr)
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
    """The forest grown one tree after another; returns it and its dead-end count.

    Each tree's bootstrap is drawn here from the tree's seed, so the
    reference's ``in_bag`` checks the bags that the fit records.
    """
    n, d = X.shape
    n_sub = max(1, int(np.floor(np.sqrt(d))))
    trees, dead_ends = [], 0
    in_bag = np.zeros((hyper.n_trees, n), dtype=bool)
    for t, tree_seed in enumerate(np.random.SeedSequence(seed).spawn(hyper.n_trees)):
        rng = np.random.default_rng(tree_seed)
        rows = rng.integers(0, n, n)
        in_bag[t, rows] = True
        tree, dead = _reference_tree(X, y, rows, rng, hyper, n_sub)
        trees.append(tree)
        dead_ends += dead
    forest = meta.RandomForestMeta(trees, d, seed)
    forest.in_bag = in_bag
    return forest, dead_ends


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
    elif kind.startswith("posterior"):  # sorted softmax outputs, as the posterior attacks see
        P = np.exp(2.0 * rng.normal(size=(n, int(kind[len("posterior"):]))))
        X = -np.sort(-P / P.sum(axis=1, keepdims=True), axis=1)
    elif kind == "adjacent":  # the midpoint of 1 and the next float rounds down to 1
        X = np.where(rng.random((n, 1)) < 0.5, 1.0, np.nextafter(1.0, 2.0))
    else:  # "constant": most candidate pairs hold only constant columns
        X = np.concatenate([rng.normal(size=(n, 1)), np.ones((n, 4))], axis=1)
    y = (X[:, 0] + rng.normal(size=n) > 0).astype(int)
    return X, y


class TestLockstepGrowth:
    """The lockstep grower against the trees grown one at a time."""

    @staticmethod
    def assert_same_forest(clf, ref, X):
        assert len(clf.trees) == len(ref.trees)
        for got, want in zip(clf.trees, ref.trees):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
        assert clf.in_bag.dtype == bool and np.array_equal(clf.in_bag, ref.in_bag)
        assert np.array_equal(meta.out_of_bag_proba(clf, X), meta.out_of_bag_proba(ref, X))

    @pytest.mark.parametrize("kind, max_depth", [
        ("continuous", 12),
        ("ties", 12),
        ("discrete", 12),
        ("discrete", 2),
        ("one_column", 12),
        ("one_column", 2),
        ("constant", 12),
        ("adjacent", 4),
    ])
    def test_trees_match_the_one_at_a_time_grower(self, kind, max_depth):
        X, y = growth_data(kind)
        hyper = meta.RfHyper(n_trees=15, max_depth=max_depth)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=21)
        ref, dead_ends = reference_forest(X, y, hyper, 21)
        self.assert_same_forest(clf, ref, X)
        if kind == "constant":
            assert dead_ends > 0  # searched nodes whose candidates were all constant
        if max_depth == 2:  # some tree reaches the cap: it has a node at depth 2
            assert 3 < max(t.value.size for t in clf.trees) <= 7
        if kind == "adjacent":  # the upper value splits the two floats: no empty leaf
            assert not any(np.isnan(t.value).any() for t in clf.trees)
            assert np.nextafter(1.0, 2.0) in clf.trees[0].threshold

    def test_adjacent_floats_split_without_an_empty_leaf(self, tmp_path):
        # (1 + 2^-52 + 1) / 2 rounds down to 1, so a midpoint threshold sends every row right;
        # with ten rows of each value, the one tree's bag holds both
        X = np.repeat([[1.0], [1.0 + 2**-52]], 10, axis=0)
        y = np.repeat([0, 1], 10)
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=1))
        tree = clf.trees[0]
        assert in_every_bag(clf, X)
        assert tree.threshold[0] == 1.0 + 2**-52
        assert tree.value[1:].tolist() == [0.0, 1.0]
        assert meta.score_proba(clf, np.array([[0.5], [1.0], [2.0]])).tolist() == [0.0, 0.0, 1.0]
        checkpoint.save_classifier(tmp_path / "rf.json", clf)
        loaded = checkpoint.load_classifier(tmp_path / "rf.json")
        assert loaded.trees[0].value.tolist() == tree.value.tolist()

    def test_huge_floats_split_without_an_infinite_threshold(self):
        # (1e308 + 1.7e308) / 2 overflows to inf, a threshold that sends every row left
        X = np.repeat([[1.0e308], [1.7e308]], 10, axis=0)
        y = np.repeat([0, 1], 10)
        with np.errstate(over="ignore"):
            clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=1))
        tree = clf.trees[0]
        assert tree.threshold[0] == 1.7e308
        assert tree.value[1:].tolist() == [0.0, 1.0]
        assert meta.score_proba(clf, X[[0, -1]]).tolist() == [0.0, 1.0]

    def test_trees_join_as_others_finish_under_the_step_cap(self, monkeypatch):
        n = 120
        steps = []  # each step's nodes: their slots, sizes and whether each is a root; and n_sub
        split_step = meta._split_step

        def recording(ranks, values, buf, rows, w, wy, lo, hi, n_node, p_node, cand):
            # slot s holds rows s * n to (s + 1) * n, and only a root counts all n bootstrap rows
            steps.append((lo // n, hi - lo, n_node == n, cand.shape[1]))
            return split_step(ranks, values, buf, rows, w, wy, lo, hi, n_node, p_node, cand)

        monkeypatch.setattr(meta, "_split_step", recording)
        monkeypatch.setattr(meta, "_STEP_CELLS", 1000)
        X, y = growth_data("ties", n=n, seed=3)
        hyper = meta.RfHyper(n_trees=40)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=8)
        ref, _ = reference_forest(X, y, hyper, 8)
        self.assert_same_forest(clf, ref, X)

        first, last, tree_in = {}, {}, {}
        for s, (slots, sizes, roots, n_sub) in enumerate(steps):
            if len(slots) > 1:
                assert sizes.sum() * n_sub <= 1000
            for slot, root in zip(slots.tolist(), roots.tolist()):
                if root:  # a tree joins the step that searches its root, and keeps its slot
                    tree_in[slot] = len(first)
                    first[tree_in[slot]] = s
                last[tree_in[slot]] = s
        # some tree joins while an earlier tree still grows and after another has finished
        assert any(
            any(last[u] < first[v] for u in last) and any(first[w] < first[v] <= last[w] for w in last)
            for v in first
        )

    @pytest.mark.parametrize("width", [4, 12])
    def test_forests_of_the_benchmark_shapes(self, monkeypatch, width):
        # 100 trees on 240 rows of sorted posteriors, as in the acceptance-9 plan's forests
        closes = []  # each step's leaf runs closed before a search, and the entries of finishing trees
        pop_runs = meta._pop_runs

        def recording(stack, height, count, g):
            out = pop_runs(stack, height, count, g)
            slot, _, _, last, done = out
            popped = np.bincount(slot, minlength=height.size)
            closes.append((popped[slot[last]] - 1, popped[done]))
            return out

        monkeypatch.setattr(meta, "_pop_runs", recording)
        X, y = growth_data(f"posterior{width}", n=240, seed=width)
        hyper = meta.RfHyper(n_trees=100)
        clf = meta.fit("rf", X, y, hyper=hyper, seed=42)
        ref, _ = reference_forest(X, y, hyper, 42)
        self.assert_same_forest(clf, ref, X)
        assert max(runs.max(initial=0) for runs, _ in closes) >= 3  # 3 leaves, then a search
        assert any((leaves > 0).any() for _, leaves in closes)  # a stack of only leaves


def reference_leaf_values(tree, X):
    """Each row's leaf value in one tree: all rows move down one level per gather."""
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        inner = tree.left[node] >= 0
        if not inner.any():
            return tree.value[node]
        go_left = X[rows, tree.feature[node]] < tree.threshold[node]
        node = np.where(inner, np.where(go_left, tree.left[node], tree.right[node]), node)


def reference_scores(clf, X):
    """Scores summed tree by tree, each tree walked on its own."""
    acc = np.zeros(X.shape[0])
    for tree in clf.trees:
        acc += reference_leaf_values(tree, X)
    return acc / len(clf.trees)


def reference_out_of_bag(clf, X):
    """Out-of-bag scores summed tree by tree over each tree's left-out rows."""
    n = X.shape[0]
    total, count = np.zeros(n), np.zeros(n)
    for tree, seq in zip(clf.trees, np.random.SeedSequence(clf.seed).spawn(len(clf.trees))):
        left_out = np.ones(n, dtype=bool)
        left_out[np.random.default_rng(seq).integers(0, n, n)] = False
        rows = np.flatnonzero(left_out)
        total[rows] += reference_leaf_values(tree, X[rows])
        count[rows] += 1
    return total / count


class TestFlatWalk:
    """One walk over the whole forest against each tree walked on its own."""

    @pytest.mark.parametrize("kind", ["continuous", "ties", "discrete", "one_column", "adjacent",
                                      "constant"])
    def test_scores_match_the_per_tree_walk(self, kind):
        X, y = growth_data(kind)
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=40), seed=5)
        Xt, _ = growth_data(kind, n=70, seed=1)
        assert np.array_equal(meta.score_proba(clf, Xt), reference_scores(clf, Xt))
        assert np.array_equal(meta.out_of_bag_proba(clf, X), reference_out_of_bag(clf, X))

    def test_one_node_trees(self):
        # a bootstrap of these four rows draws no non-member about a third of the time
        X, _ = growth_data("continuous", n=4)
        y = np.array([0, 1, 1, 1])
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=40), seed=3)
        assert any(t.value.size == 1 for t in clf.trees)
        assert any(t.value.size > 1 for t in clf.trees)
        Xt = np.random.default_rng(2).normal(size=(9, X.shape[1]))
        assert np.array_equal(meta.score_proba(clf, Xt), reference_scores(clf, Xt))
        assert np.array_equal(meta.out_of_bag_proba(clf, X), reference_out_of_bag(clf, X))

    def test_a_forest_of_roots(self):
        X, y = growth_data("continuous", n=30)
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=12, max_depth=0), seed=4)
        assert all(t.value.size == 1 for t in clf.trees)
        assert np.array_equal(meta.score_proba(clf, X), reference_scores(clf, X))
        assert np.array_equal(meta.out_of_bag_proba(clf, X), reference_out_of_bag(clf, X))

    def test_walks_of_many_chunks(self, monkeypatch):
        # 7 pairs a walk: one tree a chunk, and a chunk of 3 rows per tree out of bag
        monkeypatch.setattr(meta, "_WALK_PAIRS", 7)
        X, y = growth_data("ties", n=60)
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=9), seed=6)
        assert np.array_equal(meta.score_proba(clf, X[:3]), reference_scores(clf, X[:3]))
        assert np.array_equal(meta.score_proba(clf, X), reference_scores(clf, X))
        assert np.array_equal(meta.out_of_bag_proba(clf, X), reference_out_of_bag(clf, X))

    def test_no_rows(self):
        X, y = growth_data("continuous", n=30)
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=3), seed=4)
        assert meta.score_proba(clf, np.empty((0, X.shape[1]))).shape == (0,)

    def test_a_forest_needs_a_tree(self):
        with pytest.raises(InputError):
            meta.RandomForestMeta([], 3)


class TestMlp:
    def test_separable_data(self):
        X, y = one_d_separable(seed=7)
        clf = meta.fit("mlp", X, y, seed=5)
        assert accuracy(clf, X, y) == 1.0

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


def reference_fit_lr(X, y, hyper, seed):
    """Gradient descent on ``lr_loss_and_gradients``, a fresh array every step."""
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(hyper.epochs):
        _, gw, gb = meta.lr_loss_and_gradients(w, b, X, y, hyper.l2)
        w = w - hyper.learning_rate * gw
        b = b - hyper.learning_rate * gb
    return w, b


def reference_fit_mlp(X, y, hyper, seed):
    """Gradient descent on ``mlp_loss_and_gradients``, a fresh array every step."""
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
        _, gW1, gb1, gw2, gb2 = meta.mlp_loss_and_gradients(W1, b1, w2, b2, Xe, y, hyper.l2, mask)
        W1 = W1 - hyper.learning_rate * gW1
        b1 = b1 - hyper.learning_rate * gb1
        w2 = w2 - hyper.learning_rate * gw2
        b2 = b2 - hyper.learning_rate * gb2
    return W1, b1, w2, b2


def stacker_data(n, d, seed=0):
    """Rows like a stacker's: a few informative columns, the rest noise."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, d))
    X[:, : min(d, 3)] += 0.8 * y[:, None]
    return X, y


class TestFitsMatchReference:
    """The in-place fits give the reference loops' parameters bit for bit."""

    @pytest.mark.parametrize("n, d, hyper", [
        (240, 10, attacks.MR_MLP_DEFAULTS[attacks.ADV1]),
        (240, 31, attacks.MR_MLP_DEFAULTS[attacks.ADV2]),
        (150, 7, meta.MlpHyper(epochs=300)),
        # 1 / (1 - 0.3) is not a power of two, so folding the masks must be exact
        (150, 7, meta.MlpHyper(epochs=300, dropout=0.3, input_dropout=0.3)),
    ], ids=["adv1", "adv2", "no_dropout", "dropout_0.3"])
    def test_mlp(self, n, d, hyper):
        X, y = stacker_data(n, d)
        clf = meta.fit("mlp", X, y, hyper, seed=11)
        W1, b1, w2, b2 = reference_fit_mlp(X, y, hyper, 11)
        assert np.array_equal(clf.W1, W1) and np.array_equal(clf.b1, b1)
        assert np.array_equal(clf.w2, w2) and clf.b2 == b2

    @pytest.mark.parametrize("n, d, l2", [(600, 30, 1e-4), (50, 3, 0.0)])
    def test_lr(self, n, d, l2):
        X, y = stacker_data(n, d, seed=1)
        hyper = meta.LrHyper(l2=l2)
        clf = meta.fit("lr", X, y, hyper, seed=0)
        w, b = reference_fit_lr(X, y, hyper, 0)
        assert np.array_equal(clf.weights, w) and clf.bias == b

    def test_masked_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, 10)
        W1 = rng.normal(size=(4, 3)) * 0.5
        b1 = rng.normal(size=4) * 0.1
        w2 = rng.normal(size=4) * 0.5
        b2 = 0.05
        l2 = 0.01
        mask = (rng.random((10, 4)) >= 0.3) / 0.7
        assert 0 < np.count_nonzero(mask) < mask.size
        grads = meta.mlp_loss_and_gradients(W1, b1, w2, b2, X, y, l2, mask)[1:]
        params = [W1, b1, w2, np.array(b2)]
        h = 1e-5

        def loss(ps):
            return meta.mlp_loss_and_gradients(*ps[:3], float(ps[3]), X, y, l2, mask)[0]

        for k, (param, grad) in enumerate(zip(params, grads)):
            for idx, g in np.ndenumerate(np.asarray(grad)):
                up = [q.copy() for q in params]
                dn = [q.copy() for q in params]
                up[k][idx] += h
                dn[k][idx] -= h
                assert g == pytest.approx((loss(up) - loss(dn)) / (2 * h), rel=1e-4, abs=1e-8)


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
            meta.score_proba(clf, np.ones((1, 5)))

    @pytest.mark.parametrize("kind", ["lr", "rf", "mlp"])
    def test_vector_rejected(self, kind):
        X, y = one_d_separable()
        clf = meta.fit(kind, X, y, hyper=meta.RfHyper(n_trees=2) if kind == "rf" else None)
        with pytest.raises(ShapeError):
            meta.score_proba(clf, X[0])
