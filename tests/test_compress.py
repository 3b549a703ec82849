"""Compression tests: pruning, quantization, clustering, constrained fine-tuning."""

import numpy as np
import pytest

from compaudit import compress, constraints, nn
from compaudit.errors import InputError


def model_from_weights(weight_rows, out_dim=2):
    """Single-layer model whose weight matrix is given explicitly."""
    w = np.asarray(weight_rows, dtype=float)
    m = nn.init_fcn([w.shape[1], w.shape[0]], seed=0, dropout_rates=[])
    m.weights[0] = w.copy()
    m.biases[0][:] = 0.0
    return m


def two_layer_model(seed=0):
    return nn.init_fcn([4, 6, 3], seed=seed, dropout_rates=[0.0])


class TestPrune:
    def test_hand_example(self):
        # weights [0.5, -0.1, 0.3, -0.8] at 50% -> [0.5, 0, 0, -0.8]
        m = model_from_weights([[0.5, -0.1], [0.3, -0.8]])
        cm = compress.prune_l1(m, 0.5)
        assert cm.model.weights[0].ravel().tolist() == [0.5, 0.0, 0.0, -0.8]
        assert cm.verify()

    def test_zero_sparsity_is_identity(self):
        m = two_layer_model()
        cm = compress.prune_l1(m, 0.0)
        for a, b in zip(cm.model.weights, m.weights):
            assert np.array_equal(a, b)
        assert all(np.all(mask) for mask in cm.constraint.prune_masks)

    def test_full_sparsity_zeroes_everything(self):
        m = two_layer_model()
        cm = compress.prune_l1(m, 1.0)
        assert all(np.all(w == 0.0) for w in cm.model.weights)
        # biases untouched
        assert any(np.any(b != 0.0) for b in cm.model.biases) or True

    @pytest.mark.parametrize("sparsity", [0.3, 0.6, 0.9])
    def test_exact_zero_count_and_idempotence(self, sparsity):
        m = two_layer_model(seed=5)
        total = sum(w.size for w in m.weights)
        cm = compress.prune_l1(m, sparsity)
        zeros = sum(int(np.sum(w == 0.0)) for w in cm.model.weights)
        assert abs(zeros - np.floor(sparsity * total)) <= 1
        again = compress.prune_l1(cm.model, sparsity)
        for a, b in zip(again.model.weights, cm.model.weights):
            assert np.array_equal(a, b)

    def test_global_ranking_spans_layers(self):
        m = two_layer_model(seed=1)
        m.weights[0][:] = 100.0  # layer 0 large, layer 1 small
        m.weights[1][:] = np.linspace(0.001, 0.01, m.weights[1].size).reshape(m.weights[1].shape)
        frac = m.weights[1].size / (m.weights[0].size + m.weights[1].size)
        cm = compress.prune_l1(m, frac)
        assert np.all(cm.model.weights[1] == 0.0)
        assert np.all(cm.model.weights[0] == 100.0)

    def test_degree_tags_order(self):
        m = two_layer_model()
        tags = [compress.prune_l1(m, s).degree_tag for s in (0.6, 0.7, 0.8, 0.9)]
        assert tags == sorted(tags)


class TestQuantize:
    def test_hand_example(self):
        # w = [-1.0, 0.5, 1.0] -> s = 1/127, q = [-127, 64, 127]
        m = model_from_weights([[-1.0, 0.5, 1.0]])
        cm = compress.quantize_int8(m)
        s = 1.0 / 127.0
        assert cm.constraint.quant_scales[0] == pytest.approx(s)
        expect = np.array([[-127 * s, 64 * s, 127 * s]])
        assert np.allclose(cm.model.weights[0], expect, atol=1e-15)
        assert cm.model.weights[0][0, 0] == -1.0
        assert cm.model.weights[0][0, 2] == 1.0

    def test_all_zero_layer_unchanged(self):
        m = model_from_weights([[0.0, 0.0, 0.0]])
        cm = compress.quantize_int8(m)
        assert np.all(cm.model.weights[0] == 0.0)
        assert cm.constraint.quant_scales[0] == 1.0

    def test_idempotent(self):
        m = two_layer_model(seed=3)
        once = compress.quantize_int8(m)
        twice = compress.quantize_int8(once.model)
        for a, b in zip(once.model.weights, twice.model.weights):
            assert np.array_equal(a, b)

    def test_round_trip_error_bounded(self):
        m = two_layer_model(seed=4)
        cm = compress.quantize_int8(m)
        for orig, snapped, s in zip(m.weights, cm.model.weights, cm.constraint.quant_scales):
            assert np.all(np.abs(snapped - orig) <= s / 2 + 1e-15)

    def test_round_half_away_from_zero(self):
        assert constraints.round_half_away(np.array([0.5, -0.5, 1.5, -1.5, 2.5])).tolist() == [
            1.0,
            -1.0,
            2.0,
            -2.0,
            3.0,
        ]

    def test_weights_that_round_to_zero_are_positive_zero(self):
        m = model_from_weights([[-1.0, -1e-4, 0.5, -0.002]])
        w = compress.quantize_int8(m).model.weights[0]
        zeros = w[w == 0.0]
        assert zeros.size == 2 and not np.any(np.signbit(zeros))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_weight_is_input_error(self, bad):
        with pytest.raises(InputError, match="non-finite"):
            compress.quantize_int8(model_from_weights([[0.5, bad, -0.25]]))

    def test_latents_are_the_input_arrays_and_not_compared(self):
        m = two_layer_model(seed=6)
        cm = compress.quantize_int8(m)
        assert all(a is b for a, b in zip(cm.constraint.latents, m.weights))
        assert cm.constraint == constraints.Quantized(list(cm.constraint.quant_scales))

    # fl(127 s) is a rounding tie that rounds up, so fl(fl(127 s) / 127) is s + 1 ulp.
    TIE_SCALE = (3 * 2**51 + 64) * 2.0**-52

    def tie_grid(self):
        return np.array([[127.0, 1.0, -1.0], [5.0, -64.0, 3.0]]) * self.TIE_SCALE

    def test_refreshed_snaps_a_grid_whose_scale_is_not_its_own(self):
        g = self.tie_grid()
        assert constraints.Quantized([self.TIE_SCALE]).check([g])
        assert not constraints.Quantized([constraints.quant_scale(g)]).check([g])
        weights, grid = constraints.Quantized([self.TIE_SCALE]).refreshed([g])
        assert np.array_equal(weights[0], constraints.fake_quantize(g)[0])
        assert grid.check(weights) and grid.quant_scales == [constraints.quant_scale(g)]

    def test_finetune_stores_weights_on_their_own_scales(self, monkeypatch):
        """Training that leaves a grid of another scale still gives a consistent model."""
        g = self.tie_grid()

        def train_to_tie_grid(model, *args, **kwargs):
            out = model.copy()
            out.weights = [g.copy()]
            return out

        monkeypatch.setattr(nn, "train", train_to_tie_grid)
        xy = (np.zeros((2, 3)), np.array([0, 1]))
        cfg = nn.TrainConfig(learning_rate=0.05, batch_size=2, max_epochs=1, seed=0)
        cm = compress.finetune_compressed(compress.quantize_int8(model_from_weights(g)),
                                          xy, None, cfg)
        assert np.array_equal(cm.model.weights[0], constraints.fake_quantize(g)[0])
        assert cm.constraint.quant_scales == [constraints.quant_scale(g)]
        assert cm.verify()

    @pytest.mark.parametrize("dp", [None, nn.DpConfig(clip_norm=1.0, noise_multiplier=0.5)],
                             ids=["sgd", "dpsgd"])
    def test_finetune_of_fresh_int8_is_qat_from_the_floats(self, dp):
        """The fine-tune equals fake-quant training of the float model, snapped."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 4))
        y = (X[:, 0] > 0).astype(int)
        m = two_layer_model(seed=6)
        cfg = nn.TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=4, seed=2)
        seed_constraint = constraints.Quantized([constraints.quant_scale(w) for w in m.weights])
        if dp is None:
            ref = nn.train(m, (X, y), None, cfg, constraint=seed_constraint)
        else:
            ref = nn.train_dpsgd(m, (X, y), cfg, dp, constraint=seed_constraint)
        cm = compress.finetune_compressed(compress.quantize_int8(m), (X, y), None, cfg, dp=dp)
        assert cm.constraint.latents is None
        for w, ref_w, s in zip(cm.model.weights, ref.weights, cm.constraint.quant_scales,
                               strict=True):
            assert np.array_equal(w, constraints.fake_quantize(ref_w)[0])
            assert s == constraints.quant_scale(ref_w)
        for b, ref_b in zip(cm.model.biases, ref.biases, strict=True):
            assert np.array_equal(b, ref_b)
        assert cm.verify()


class TestKmeans:
    def test_optimal_two_partition(self):
        # {1.0, 1.1, -2.0, -2.1} with N=2 -> centroids {1.05, -2.05}
        cent, assign, hist = compress.kmeans_1d(np.array([1.0, 1.1, -2.0, -2.1]), 2, seed=0)
        assert sorted(np.round(cent, 12).tolist()) == [-2.05, 1.05]
        assert len(set(assign.tolist())) == 2

    def test_monotone_objective(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        _, _, hist = compress.kmeans_1d(x, 8, seed=3)
        assert all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))

    def test_n_equal_distinct_is_identity(self):
        x = np.array([0.3, -0.4, 1.2, 2.0, -2.0])
        cent, assign, _ = compress.kmeans_1d(x, 5, seed=0)
        assert np.allclose(np.sort(cent[assign]), np.sort(x))


def reference_kmeans(values, n_clusters, seed=0, max_iter=100, tol=1e-8):
    """The n x k Lloyd loop: ``np.argmin`` over every value-center distance."""
    x = np.asarray(values, dtype=float).ravel()
    k = min(n_clusters, np.unique(x).size)
    rng = np.random.default_rng(seed)
    centers = np.empty(k)
    centers[0] = x[rng.integers(x.size)]
    d2 = (x - centers[0]) ** 2
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = centers[0]
            break
        centers[j] = x[rng.choice(x.size, p=d2 / total)]
        d2 = np.minimum(d2, (x - centers[j]) ** 2)
    history = []
    prev = np.inf
    for _ in range(max_iter):
        assign = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
        counts = np.bincount(assign, minlength=k)
        sums = np.bincount(assign, weights=x, minlength=k)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty]
        inertia = float(np.sum((x - centers[assign]) ** 2))
        history.append(inertia)
        if prev - inertia <= tol:
            break
        prev = inertia
    assign = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
    return centers, assign, history


def tie_heavy(kind):
    rng = np.random.default_rng(4)
    if kind == "grid":  # many values exactly halfway between two centers
        return np.round(rng.normal(size=3000) * 2) / 4
    if kind == "few_distinct":
        return rng.choice([-0.5, 0.0, 0.25, 1.0], size=200)
    if kind == "underflow":  # distinct, but every squared gap is 0: duplicate centers
        return rng.choice([0.0, 1e-200, 2e-200, 3e-200], size=50)
    return rng.normal(size=4096) * 0.05  # weights


class TestKmeansMatchesReference:
    @pytest.mark.parametrize("kind, k", [
        ("grid", 8), ("grid", 3), ("few_distinct", 12), ("underflow", 4), ("weights", 1),
        ("weights", 8), ("grid", 1),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_centers_assignment_and_history(self, kind, k, seed):
        x = tie_heavy(kind)
        cent, assign, hist = compress.kmeans_1d(x, k, seed=seed)
        ref_cent, ref_assign, ref_hist = reference_kmeans(x, k, seed=seed)
        assert np.array_equal(cent, ref_cent)
        assert np.array_equal(assign, ref_assign) and assign.dtype == ref_assign.dtype
        assert hist == ref_hist

    def test_underflow_case_takes_the_duplicate_center_branch(self):
        cent, assign, _ = compress.kmeans_1d(tie_heavy("underflow"), 4, seed=0)
        assert cent.size == 4 and cent[2] == cent[3]
        # of two tied duplicates only the lower index ever takes a value
        assert 3 not in assign.tolist()

    def test_exact_midpoint_goes_to_the_lower_index(self):
        centers = np.array([1.0, 0.0, 2.0])
        x = np.array([0.5, 1.5, 1.0, -3.0])
        buffers = (np.empty(4, dtype=np.int64), np.empty(4), np.empty(4), np.empty(4, dtype=np.int64))
        assign = compress._nearest(x, centers, *buffers)
        assert assign.tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("bad", [[], [0.1, np.nan, 0.3], [np.inf, 0.0]])
    def test_empty_or_non_finite_is_input_error(self, bad):
        with pytest.raises(InputError):
            compress.kmeans_1d(np.array(bad), 2)


class TestClusterWeights:
    def test_distinct_value_bound(self):
        m = two_layer_model(seed=7)
        cm = compress.cluster_weights(m, 4, seed=1)
        for w in cm.model.weights:
            assert np.unique(w).size <= 4
        assert cm.verify()

    def test_all_equal_weights_stay(self):
        m = model_from_weights([[0.7, 0.7], [0.7, 0.7]])
        cm = compress.cluster_weights(m, 3, seed=0)
        assert np.all(cm.model.weights[0] == 0.7)

    def test_n_distinct_identity(self):
        m = model_from_weights([[0.1, 0.2], [0.3, 0.4]])
        cm = compress.cluster_weights(m, 4, seed=0)
        assert np.allclose(np.sort(cm.model.weights[0].ravel()), [0.1, 0.2, 0.3, 0.4])

    def test_degree_tags_descend_with_cluster_count(self):
        m = two_layer_model()
        tags = [compress.cluster_weights(m, n, seed=0).degree_tag for n in (16, 8, 4)]
        assert tags == sorted(tags)


def small_training_set(seed=0, n=60):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 3
    X = rng.normal(size=(n, 4)) * 0.3
    X[:, 0] += y
    return X, y


class TestFinetune:
    def config(self, epochs=10):
        return nn.TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=epochs, seed=11)

    def test_pruned_positions_stay_zero(self):
        X, y = small_training_set()
        m = nn.init_fcn([4, 6, 3], seed=8, dropout_rates=[0.0])
        cm = compress.prune_l1(m, 0.7)
        tuned = compress.finetune_compressed(cm, (X, y), (X, y), self.config(5))
        for w, mask in zip(tuned.model.weights, tuned.constraint.prune_masks):
            assert np.all(w[~mask] == 0.0)
        assert tuned.verify()

    def test_cluster_value_count_preserved(self):
        X, y = small_training_set()
        m = nn.init_fcn([4, 6, 3], seed=9, dropout_rates=[0.0])
        cm = compress.cluster_weights(m, 2, seed=2)
        tuned = compress.finetune_compressed(cm, (X, y), None, self.config(1))
        for w in tuned.model.weights:
            assert np.unique(w).size <= 2
        assert tuned.verify()

    def test_quant_grid_preserved(self):
        X, y = small_training_set()
        m = nn.init_fcn([4, 6, 3], seed=10, dropout_rates=[0.0])
        cm = compress.quantize_int8(m)
        tuned = compress.finetune_compressed(cm, (X, y), None, self.config(10))
        assert tuned.verify()

    def test_constraints_hold_through_ten_epochs(self):
        X, y = small_training_set()
        for build in (
            lambda m: compress.prune_l1(m, 0.6),
            lambda m: compress.cluster_weights(m, 4, seed=3),
            lambda m: compress.quantize_int8(m),
        ):
            m = nn.init_fcn([4, 6, 3], seed=12, dropout_rates=[0.0])
            tuned = compress.finetune_compressed(build(m), (X, y), (X, y), self.config(10))
            assert tuned.verify()
