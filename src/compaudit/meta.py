"""Binary meta-classifiers for membership attacks.

Three interchangeable models, all seeded and deterministic, fit on a
feature matrix X (one row per sample) and membership labels y in {0, 1}:

- "lr": logistic regression, full-batch gradient descent on binary
  cross-entropy;
- "rf": random forest of CART trees with Gini splits, per-node feature
  subsampling of sqrt(d), bootstrap bagging, and leaf-fraction
  probabilities averaged over trees; each tree is five flat node arrays
  (``Tree``), as in scikit-learn's tree layout. A forest grows its trees
  in lockstep, each tree's depth-first stack and node records in arrays:
  every step, one vectorized pass closes the run of leaves atop each
  growing tree's stack and pops its next node to search, those nodes are
  searched together, and a waiting tree joins once the step has room, as
  others go deeper or finish. Each tree draws its bootstrap and feature
  subsets from its own generator in preorder, so no tree depends on which
  others grow beside it, and keeps its bag for out-of-bag scores. Scoring
  walks every (tree, row) pair at once over the trees' node arrays laid
  end to end;
- "mlp": one-hidden-layer perceptron (ReLU, sigmoid output) trained with
  full-batch gradient descent on binary cross-entropy.

``score_proba`` takes a matrix and gives one probability in [0, 1] per
row.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDataError, InputError, ShapeError

_SIG_CLIP = 1e-12


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)), into ``out`` when it is given; ``out`` may be ``z``."""
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


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
        return _sigmoid(X @ self.weights + self.bias)


def lr_loss_and_gradients(weights, bias, X, y, l2: float = 0.0):
    """BCE objective and gradients for logistic regression (gradcheck hook)."""
    p = _sigmoid(X @ weights + bias)
    loss = bce_loss(p, y) + 0.5 * l2 * float(np.sum(weights**2))
    err = (p - y) / X.shape[0]
    gw = X.T @ err + l2 * weights
    gb = float(np.sum(err))
    return loss, gw, gb


def _fit_lr(X, y, hyper: LrHyper, seed: int) -> LogisticMeta:
    """Gradient descent on ``lr_loss_and_gradients``' gradients, without its loss.

    Each step does that function's operations in the same order, in
    buffers allocated once, so the weights are the same bits.
    """
    n, d = X.shape
    y = y.astype(float)
    w = np.zeros(d)
    b = 0.0
    p, gw, l2w = np.empty(n), np.empty(d), np.empty(d)
    for _ in range(hyper.epochs):
        np.matmul(X, w, out=p)
        p += b
        _sigmoid(p, out=p)
        p -= y
        p /= n  # err
        np.matmul(X.T, p, out=gw)
        gw += np.multiply(hyper.l2, w, out=l2w)
        gb = float(np.sum(p))
        w -= np.multiply(hyper.learning_rate, gw, out=gw)
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


# the dtype of each of a tree's node arrays, in ``Tree`` order
TREE_DTYPES = {"feature": np.int64, "threshold": float, "left": np.int64, "right": np.int64,
               "value": float}


class RandomForestMeta:
    """Bagged CART forest; probability = mean leaf member-fraction.

    ``trees`` holds the trees as grown or loaded. Scoring uses their node
    arrays laid end to end, with each tree's child indices shifted by the
    tree's offset. ``_child[2 * i + go_left]`` is node i's child, and a
    leaf is its own child on both sides, so ``_levels`` steps, the depth of
    the deepest leaf, bring every (tree, row) pair to its leaf. The fit sets
    ``in_bag[t, i]``, whether tree t's bootstrap drew training row i.
    """

    kind = "rf"

    def __init__(self, trees: list[Tree], n_features: int, seed: int = 0):
        if not trees:
            raise InputError("a forest needs at least one tree")
        self.trees = trees
        self.n_features = n_features
        self.seed = seed
        self.in_bag = None
        feature, self._threshold, left, right, self._value = map(np.concatenate, zip(*trees))
        sizes = [t.value.size for t in trees]
        start = np.cumsum(sizes) - sizes
        leaf = left < 0
        node = np.arange(leaf.size)
        self._root = start.astype(np.int32)
        self._feature = np.where(leaf, 0, feature).astype(np.int32)
        shifted = np.stack([right, left]) + np.repeat(start, sizes)
        self._child = np.where(leaf, node, shifted).T.astype(np.int32).ravel()
        self._levels, level = 0, self._root
        while (level := level[~leaf[level]]).size:
            level = self._child[np.concatenate([2 * level, 2 * level + 1])]
            self._levels += 1

    def _leaf_values(self, X, trees, rows) -> np.ndarray:
        """The leaf value of each (tree, row) pair.

        All pairs move down one level per gather, into buffers allocated
        once per walk.
        """
        node = self._root[trees]
        at = rows * X.shape[1]
        X = X.ravel()
        feature, index = np.empty_like(node), np.empty(node.size, dtype=np.intp)
        x, threshold = np.empty(node.size), np.empty(node.size)
        go_left = np.empty(node.size, dtype=bool)
        for _ in range(self._levels):
            self._feature.take(node, out=feature)
            np.add(at, feature, out=index)
            X.take(index, out=x)
            self._threshold.take(node, out=threshold)
            np.less(x, threshold, out=go_left)
            node <<= 1
            node += go_left
            node, feature = self._child.take(node, out=feature), node
        return self._value[node]

    def score_proba(self, features: np.ndarray):
        X = _check_features(features, self.n_features)
        n = X.shape[0]
        rows, acc = np.arange(n), np.zeros(n)
        for trees in _walk_chunks(len(self.trees), n):
            values = self._leaf_values(X, np.repeat(trees, n), np.tile(rows, trees.size))
            for v in values.reshape(trees.size, n):  # tree by tree, in order
                acc += v
        return acc / len(self.trees)


# The (tree, row) pairs that one forest walk may move: a forest is walked
# a few dozen trees at a time, so that a walk's buffers stay in cache.
_WALK_PAIRS = 8192


def _walk_chunks(n_trees: int, n_rows: int):
    """Consecutive ranges of tree indices, each of at most ``_WALK_PAIRS`` (tree, row) pairs."""
    step = max(1, _WALK_PAIRS // max(n_rows, 1))
    for t in range(0, n_trees, step):
        yield np.arange(t, min(t + step, n_trees), dtype=np.int32)


# The (row, candidate column) cells that one growth step may search. A
# waiting tree joins a step while the step's cells plus those of the
# tree's root, the largest node it will search, fit under this cap. A step
# needs 60 to 95 bytes of working memory a cell, so the cap holds it to a
# few megabytes whatever the forest's size; a smaller cap means more,
# smaller steps and a slower fit.
_STEP_CELLS = 32768

# How many feature subsets a growing tree draws at a time.
_SUBSET_DRAWS = 32


def _column_ranks(X):
    """Dense rank of each entry within its column, and the distinct values.

    ``ranks[j]`` ranks column j; ``values[j, r]`` is its r-th smallest
    distinct value, padded with zeros up to the largest distinct count.
    """
    columns = [np.unique(c, return_inverse=True) for c in X.T]
    ranks = np.stack([inverse for _, inverse in columns]).astype(np.int32)
    values = np.zeros((X.shape[1], max(u.size for u, _ in columns)))
    for j, (u, _) in enumerate(columns):
        values[j, : u.size] = u
    return ranks, values


def _fit_rf(X, y, hyper: RfHyper, seed: int) -> RandomForestMeta:
    n_sub = max(1, int(np.floor(np.sqrt(X.shape[1]))))
    ranks, values = _column_ranks(X)
    seeds = np.random.SeedSequence(seed).spawn(hyper.n_trees)
    trees, in_bag = _grow_lockstep(X, y, ranks, values, seeds, hyper, n_sub)
    forest = RandomForestMeta(trees, X.shape[1], seed)
    forest.in_bag = in_bag
    return forest


# A stack entry's fields: its node's range of the slot's row buffers, row and
# member counts (with multiplicities), depth, link (2 * parent, + 1 if a right
# child; -1 for the root), and the position of the nearest entry at or below it
# to be searched, known at push time. Position 0, each stack's bottom, stays empty.
_LO, _HI, _N, _P, _DEPTH, _LINK, _BELOW = range(7)


def _pop_runs(stack, height, count, g):
    """Pop, in each slot of ``g``, the leaf entries atop its stack and the entry
    below them to search. The popped entries take their slot's next preorder
    ids, top first. Returns their slots, ids and fields (a column each), the
    index among them of each entry to search, and the slots with only leaves.
    """
    h, c = height[g], count[g]
    top = g * (stack.shape[1] // height.size) + h
    below = stack[_BELOW].take(top)
    low = np.maximum(below, 1)  # the lowest position popped
    m = h + 1 - low
    ends = np.cumsum(m)
    k = np.arange(ends[-1]) - np.repeat(ends - m, m)
    height[g], count[g] = low - 1, c + m
    return (np.repeat(g, m), np.repeat(c, m) + k, stack.take(np.repeat(top, m) - k, axis=1),
            (ends - 1)[below > 0], g[below == 0])


def _grow_lockstep(X, y, ranks, values, seeds, hyper: RfHyper, n_sub):
    """One tree per seed, grown in lockstep, each depth-first, left child first,
    and the (tree, row) matrix of which rows each tree's bootstrap drew.

    Each tree draws its bootstrap and then its feature subsets from its own
    generator and numbers its nodes in preorder, so it is the tree it would
    be if grown alone. Trees join in seed order: the next one joins a step
    while the step has no node to search yet or the step's cells plus its
    root's fit under ``_STEP_CELLS``, so trees join as others go deeper or
    finish. Then one vectorized pass closes, in every tree, the run of leaf
    entries atop its stack, as nodes linked to their parents, and pops the
    entry below them to search; a tree with only leaves left is done. The
    searched nodes are split together, and each pushes its right child, then
    its left. No Python code runs per node.

    A growing tree holds a slot of each array, and the arrays grow by
    doubling: n entries of the row buffers for its distinct bootstrap rows
    and their row and member multiplicities (a node is a range of them, and
    a split puts the left child's rows first), its stack, its node records
    and its block of feature subsets. A finished tree copies its records out
    as its ``Tree`` and frees its slot for a later tree.
    """
    n, d = X.shape
    room = max(min(hyper.max_depth, n - 1), 0) + 2  # the bottom, a pending right child a depth
    trees, in_bag = [None] * len(seeds), np.zeros((len(seeds), n), dtype=bool)
    rows, w, wy, buf = (np.zeros(n, dtype=np.int32) for _ in range(4))
    stack, subsets = np.zeros((7, room), np.int32), np.zeros((_SUBSET_DRAWS, n_sub), np.int32)
    height, count, used = (np.zeros(1, dtype=np.int64) for _ in range(3))
    # slot s's node i is record s * cap + i, with children child[2 * (s * cap + i) + (0, 1)]
    cap, defaults = 16, (-1, 0.0, -1, 0.0)
    feature, threshold, child, value = (np.full(k * cap, v) for k, v in zip((1, 1, 2, 1), defaults))
    growing, owner, free = np.zeros(1, dtype=bool), [None], [0]
    joined, drawn = 0, None
    deck = np.tile(np.arange(d), (_SUBSET_DRAWS, 1))
    while growing.any() or joined < len(seeds):
        if joined < len(seeds):  # the growing trees' next nodes to search fill the step
            g = np.flatnonzero(growing)
            below = stack[_BELOW].take(g * room + height[g])
            nxt = stack.take((g * room + below)[below > 0], axis=1)
            cells, searches = int((nxt[_HI] - nxt[_LO]).sum()) * n_sub, nxt.shape[1]
        while joined < len(seeds):
            if drawn is None:
                rng = np.random.default_rng(seeds[joined])
                counts = np.bincount(rng.integers(0, n, n), minlength=n)
                in_bag[joined] = counts > 0
                r = np.flatnonzero(counts)
                drawn = (rng, r, counts[r])
            rng, r, m = drawn
            if searches and cells + r.size * n_sub > _STEP_CELLS:
                break
            if not free:  # double the slots
                rows, w, wy, buf, height, count, used, subsets, feature, threshold, child, value, \
                    growing = (np.concatenate([a, np.zeros_like(a)]) for a in (
                        rows, w, wy, buf, height, count, used, subsets, feature, threshold, child,
                        value, growing))
                stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
                free = list(range(growing.size - 1, len(owner) - 1, -1))
                owner += [None] * len(owner)
            s = free.pop()
            lo, hi, my = s * n, s * n + r.size, m * y[r]
            rows[lo:hi], w[lo:hi], wy[lo:hi], buf[lo:hi] = r, m, my, np.arange(lo, hi)
            p_root = int(my.sum())  # of the bootstrap's n rows
            search = hyper.max_depth > 0 and 0 < p_root < n
            stack[:, s * room + 1] = lo, hi, n, p_root, 0, -1, search  # at position 1 if searched
            for a, k, v in zip((feature, threshold, child), (1, 1, 2), defaults):
                a[k * s * cap : k * (s + 1) * cap] = v
            height[s], count[s], used[s], growing[s], owner[s] = 1, 0, _SUBSET_DRAWS, True, (joined, rng)
            cells, searches = cells + search * r.size * n_sub, searches + search
            joined, drawn = joined + 1, None
        slot, node, entry, last, done = _pop_runs(stack, height, count, np.flatnonzero(growing))
        while count.max() > cap:  # double every slot's node records
            feature, threshold, child, value = (
                np.concatenate([a := b.reshape(growing.size, -1), np.full_like(a, v)], axis=1).ravel()
                for b, v in zip((feature, threshold, child, value), defaults))
            cap *= 2
        value[slot * cap + node] = entry[_P] / entry[_N]  # of two exact integers: Python's bits
        linked = entry[_LINK] >= 0
        child[(2 * cap * slot + entry[_LINK])[linked]] = node[linked]
        for s in done.tolist():
            at = slice(s * cap, s * cap + count[s])
            built = (feature[at], threshold[at], child[2 * at.start : 2 * at.stop : 2],
                     child[2 * at.start + 1 : 2 * at.stop : 2], value[at])
            trees[owner[s][0]] = Tree(*map(np.array, built, TREE_DTYPES.values()))
            growing[s] = False
            free.append(s)
        if not last.size:
            continue
        slot, node, entry = slot[last], node[last], entry[:, last]
        for s in slot[used[slot] == _SUBSET_DRAWS].tolist():
            # ``permuted`` shuffles each row with the draws that successive
            # ``rng.permutation(d)`` calls make, so the rows are the tree's next
            # permutations in order; the ones left when the tree finishes are
            # never used. Only the candidates are kept.
            block = owner[s][1].permuted(deck, axis=1)[:, :n_sub]
            subsets[s * _SUBSET_DRAWS : (s + 1) * _SUBSET_DRAWS], used[s] = block, 0
        cand = subsets.take(slot * _SUBSET_DRAWS + used[slot], axis=0)
        used[slot] += 1
        split, f, thr, mid, n_left, p_left = _split_step(ranks, values, buf, rows, w, wy,
                                                         *entry[:4], cand)
        slot, node, entry = slot[split], node[split], entry[:, split]
        feature[slot * cap + node], threshold[slot * cap + node] = f, thr
        h, base, depth = height[slot], slot * room, entry[_DEPTH] + 1
        below, deep = stack[_BELOW].take(base + h), depth < hyper.max_depth
        for lo, hi, n_c, p_c, side in ((mid, entry[_HI], entry[_N] - n_left, entry[_P] - p_left, 1),
                                       (entry[_LO], mid, n_left, p_left, 0)):
            h = h + 1
            below = np.where(deep & (0 < p_c) & (p_c < n_c), h, below)
            stack[:, base + h] = lo, hi, n_c, p_c, depth, 2 * node + side, below
        height[slot] = h
    return trees, in_bag


def _gini(members, rows):
    """Gini impurity 1 - (members/rows)^2 - (others/rows)^2 of each count pair."""
    impurity = members / rows
    impurity **= 2
    others = (rows - members) / rows
    others **= 2
    np.subtract(1.0, impurity, out=impurity)
    impurity -= others
    return impurity


def _split_step(ranks, values, buf, rows, w, wy, lo, hi, n_node, p_node, cand):
    """Best Gini split of every searched node at once; partitions ``buf``.

    Node k is ``buf[lo[k]:hi[k]]``, with ``n_node[k]`` rows, ``p_node[k]``
    members (int32 counts with multiplicities) and candidates ``cand[k]``.
    Each (node, candidate column) pair is a segment of one integer-key sort
    by (node, candidate, rank). At every boundary between distinct values,
    cumulative multiplicities give the left row and member counts, which
    are scored with the weighted Gini impurity. A node takes the lowest
    score, ties going to the earlier candidate, then to the lower midpoint,
    and its range takes its rows in the sorted order of the chosen column.
    Returns, as arrays, each split node's k, feature, threshold, the start
    of its right child's range, and its left child's row and member counts;
    a node without a valid boundary is left out.
    """
    sizes = hi - lo
    K, n_sub = cand.shape
    n_ranks = values.shape[1]
    offsets = np.cumsum(sizes) - sizes
    idx = np.repeat(lo - offsets, sizes) + np.arange(offsets[-1] + sizes[-1])
    e = buf[idx].astype(np.intp)
    # a cell's key, (node, candidate, rank), sits above the place of the cell's
    # row, so that one plain sort orders the cells and tells their rows; keys,
    # places and cumulative counts stay below K * n_sub * (row count) << shift
    shift = (idx.size - 1).bit_length()
    dtype = np.int32 if (K * n_sub * ranks.shape[1]) << shift < 2**31 else np.int64
    key = np.repeat((np.arange(K * n_sub, dtype=dtype) * n_ranks).reshape(K, n_sub), sizes, axis=0)
    key += ranks.take(np.repeat(cand * ranks.shape[1], sizes, axis=0) + rows[e][:, None])
    key <<= shift
    key += np.arange(idx.size, dtype=dtype)[:, None]
    key = np.sort(key.ravel())
    order = (key & ((1 << shift) - 1)).astype(np.intp)
    key >>= shift
    w_e, wy_e = w[e], wy[e]
    cw = np.cumsum(w_e[order], dtype=dtype)
    cwy = np.cumsum(wy_e[order], dtype=dtype)
    # each del below frees a per-cell array before the scoring, which is
    # where a step's memory peaks
    seg_size = np.repeat(sizes, n_sub)
    seg_start = np.cumsum(seg_size) - seg_size
    base_n, base_p = cw[seg_start - 1], cwy[seg_start - 1]
    base_n[0] = base_p[0] = 0
    boundary = key[1:] != key[:-1]
    boundary[seg_start[1:] - 1] = False
    pos = np.flatnonzero(boundary)
    del boundary
    # the boundaries come in (node, candidate) segments: each segment's count of them
    in_seg = np.bincount(key[pos] // n_ranks, minlength=K * n_sub)
    left_n = cw[pos] - np.repeat(base_n, in_seg)
    lp = cwy[pos] - np.repeat(base_p, in_seg)
    del cw, cwy
    in_node = in_seg.reshape(K, n_sub).sum(axis=1)
    n = np.repeat(n_node, in_node)
    # score = (left_n * gini_l + rn * gini_r) / n with gini = 1 - a^2 - b^2,
    # evaluated in place operation by operation, so every bit is the same
    score = _gini(lp, left_n)
    score *= left_n
    rn = n - left_n
    score += _gini(np.repeat(p_node, in_node) - lp, rn) * rn
    score /= n
    split = np.flatnonzero(in_node)
    first = (np.cumsum(in_node) - in_node)[split]
    best = np.minimum.reduceat(score, first)
    hits = np.flatnonzero(score == np.repeat(best, in_node[split]))
    pick = hits[np.searchsorted(hits, first)]
    pos, n_left, p_left = pos[pick], left_n[pick], lp[pick]
    seg = key[pos] // n_ranks
    f = cand[split, seg - split * n_sub]
    lower, upper = values[f, key[pos] - seg * n_ranks], values[f, key[pos + 1] - seg * n_ranks]
    # the midpoint of two adjacent floats can round down to the lower one,
    # which would send every row right, and that of two huge ones can
    # overflow, which would send every row left; the upper value splits them
    thr = (lower + upper) / 2.0
    thr = np.where((thr > lower) & (thr <= upper), thr, upper)
    # a split node's rows, in the order of their ranks in its chosen column,
    # put the left child's first; a node that does not split keeps any order
    chosen = np.arange(K) * n_sub
    chosen[split] = seg
    buf[idx] = e[order[np.repeat(seg_start[chosen] - offsets, sizes) + np.arange(idx.size)]]
    mid = lo[split] + (pos - seg_start[seg] + 1)
    return split, f, thr, mid, n_left, p_left


def out_of_bag_proba(clf: RandomForestMeta, X: np.ndarray) -> np.ndarray:
    """Each training row's mean leaf probability over the trees that left it out.

    ``X`` is the training matrix in fitting order, and the forest's
    ``in_bag`` says which trees left each row out. A row sits out of about
    e^-1 of the trees, so its estimate averages that share of the forest.
    The walk moves only the left-out (tree, row) pairs, and each row's sum
    adds its trees' values in tree order.
    """
    if clf.in_bag is None:
        raise InputError("out-of-bag scores need a fitted forest's bags; a loaded one has none")
    X = _check_features(X, clf.n_features)
    n = X.shape[0]
    if n != clf.in_bag.shape[1]:
        raise InputError(f"out-of-bag scores need the {clf.in_bag.shape[1]} training rows, got {n}")
    total, count = np.zeros(n), np.zeros(n, dtype=np.int64)
    for trees in _walk_chunks(len(clf.trees), n):
        tree_of, rows = np.nonzero(~clf.in_bag[trees])
        np.add.at(total, rows, clf._leaf_values(X, trees[tree_of], rows))
        count += np.bincount(rows, minlength=n)
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
        return _sigmoid(h @ self.w2 + self.b2)


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
    """Gradient descent on ``mlp_loss_and_gradients``' gradients, without its loss.

    Each step draws the same random numbers and does that function's
    operations in buffers allocated once, so the parameters are the same
    bits. One difference in form: the dropout mask and the ReLU mask are
    multiplied into one factor before ``outer(err, w2)`` is scaled. That is
    exact, because the ReLU factor is 0 or 1.
    """
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    if hyper.standardize:
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < 1e-12] = 1.0
    else:
        mean = np.zeros(X.shape[1])
        std = np.ones(X.shape[1])
    Xs = (X - mean) / std
    n, d = X.shape
    H = hyper.hidden
    W1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(H, d))
    b1 = np.zeros(H)
    w2 = rng.normal(0.0, np.sqrt(1.0 / H), size=H)
    b2 = 0.0
    y = y.astype(float)
    lr, l2 = hyper.learning_rate, hyper.l2
    z1, h, dh, mask = (np.empty((n, H)) for _ in range(4))
    Xe = np.empty((n, d)) if hyper.input_dropout > 0.0 else Xs
    p, gw2, gb1, l2w2 = np.empty(n), np.empty(H), np.empty(H), np.empty(H)
    gW1, l2W1 = np.empty((H, d)), np.empty((H, d))
    for _ in range(hyper.epochs):
        if hyper.dropout > 0.0:
            rng.random(out=mask)
            np.greater_equal(mask, hyper.dropout, out=mask)
            mask /= 1.0 - hyper.dropout
        if hyper.input_dropout > 0.0:
            rng.random(out=Xe)
            np.greater_equal(Xe, hyper.input_dropout, out=Xe)
            Xe /= 1.0 - hyper.input_dropout
            Xe *= Xs
        np.matmul(Xe, W1.T, out=z1)
        z1 += b1
        np.maximum(z1, 0.0, out=h)
        if hyper.dropout > 0.0:
            h *= mask
        np.matmul(h, w2, out=p)
        p += b2
        _sigmoid(p, out=p)
        p -= y
        p /= n  # err
        np.matmul(h.T, p, out=gw2)
        gw2 += np.multiply(l2, w2, out=l2w2)
        gb2 = float(np.sum(p))
        np.multiply(p[:, None], w2[None, :], out=dh)  # np.outer(err, w2)
        np.greater(z1, 0.0, out=z1)  # the ReLU factor, 0 or 1
        if hyper.dropout > 0.0:
            z1 *= mask
        dh *= z1
        np.matmul(dh.T, Xe, out=gW1)
        gW1 += np.multiply(l2, W1, out=l2W1)
        np.sum(dh, axis=0, out=gb1)
        W1 -= np.multiply(lr, gW1, out=gW1)
        b1 -= np.multiply(lr, gb1, out=gb1)
        w2 -= np.multiply(lr, gw2, out=gw2)
        b2 = b2 - lr * gb2
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


def score_proba(clf, features: np.ndarray) -> np.ndarray:
    """Membership probabilities in [0, 1], one per row of ``features``."""
    return clf.score_proba(features)


def _check_features(features, expected: int) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != expected:
        raise ShapeError(f"features of shape {X.shape}, expected (n, {expected})")
    return X
