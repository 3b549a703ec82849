"""Engine tests: forward/loss examples, gradient checks, training contracts."""

import numpy as np
import pytest

from compaudit import compress
from compaudit import constraints as cons
from compaudit import nn
from compaudit.errors import InputError, ShapeError, TrainingError


def tiny_model(layer_sizes, seed=0, dropout=None):
    return nn.init_fcn(layer_sizes, seed=seed, dropout_rates=dropout)


def zero_model(layer_sizes, dropout=None):
    m = tiny_model(layer_sizes, dropout=dropout)
    for w in m.weights:
        w[:] = 0.0
    for b in m.biases:
        b[:] = 0.0
    return m


class TestForward:
    def test_zero_weights_give_uniform_posterior(self):
        m = zero_model([4, 3, 5], dropout=[0.0])
        P = nn.forward(m, np.random.default_rng(0).normal(size=(6, 4)))
        assert np.allclose(P, 1.0 / 5.0)

    def test_hand_evaluated_softmax(self):
        # logits [0, ln 3] for C=2 -> posterior [0.25, 0.75]
        m = zero_model([1, 2])
        m.biases[0][:] = [0.0, np.log(3.0)]
        P = nn.forward(m, np.array([[2.5]]))
        assert np.allclose(P, [[0.25, 0.75]], atol=1e-12)

    def test_identical_inputs_identical_rows(self):
        m = tiny_model([4, 6, 3], seed=3)
        x = np.ones((5, 4))
        P = nn.forward(m, x)
        assert np.all(P == P[0])

    def test_dropout_is_seeded(self):
        m = tiny_model([4, 8, 3], seed=1, dropout=[0.5])
        x = np.random.default_rng(2).normal(size=(10, 4))
        y = np.arange(10) % 3
        a = nn.loss_and_gradients(m, x, y, train_mode=True, seed=11)
        b = nn.loss_and_gradients(m, x, y, train_mode=True, seed=11)
        c = nn.loss_and_gradients(m, x, y, train_mode=True, seed=12)
        assert a[0] == b[0] and all(np.array_equal(u, v) for u, v in zip(a[1], b[1]))
        assert a[0] != c[0]

    def test_shape_and_input_errors(self):
        m = tiny_model([4, 3, 2])
        with pytest.raises(ShapeError):
            nn.forward(m, np.zeros((3, 5)))
        with pytest.raises(InputError):
            nn.forward(m, np.full((2, 4), np.nan))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(scale=10.0, size=(1000, 6))
        P = nn.softmax(logits)
        assert np.all(np.abs(P.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(P >= 0.0)


class TestCrossEntropy:
    def test_certain_prediction_has_zero_loss(self):
        assert nn.cross_entropy_losses(np.array([[0.0, 1.0, 0.0]]), np.array([1])).tolist() == [0.0]

    def test_half_probability(self):
        val = nn.cross_entropy_losses(np.array([[0.25, 0.5, 0.25]]), np.array([1]))
        assert val[0] == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_zero_probability_clamped(self):
        val = nn.cross_entropy_losses(np.array([[1.0, 0.0]]), np.array([1]))
        assert val[0] == pytest.approx(-np.log(1e-12))
        assert np.isfinite(val[0])

    def test_batch_matches_one_row_cases(self):
        rng = np.random.default_rng(0)
        P = nn.softmax(rng.normal(size=(20, 4)))
        y = rng.integers(0, 4, 20)
        batch = nn.cross_entropy_losses(P, y)
        singles = [nn.cross_entropy_losses(P[i : i + 1], y[i : i + 1])[0] for i in range(20)]
        assert batch.tolist() == singles
        assert np.allclose(batch, -np.log(P[np.arange(20), y]))


def central_difference_grads(model, X, y, l2, h=1e-4, train_mode=False, seed=0):
    """Finite-difference oracle over every parameter."""
    dWs, dbs = [], []
    for arrs, grads in ((model.weights, dWs), (model.biases, dbs)):
        for arr in arrs:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                old = arr[i]
                arr[i] = old + h
                up, _, _ = nn.loss_and_gradients(model, X, y, l2, train_mode, seed)
                arr[i] = old - h
                down, _, _ = nn.loss_and_gradients(model, X, y, l2, train_mode, seed)
                arr[i] = old
                g[i] = (up - down) / (2 * h)
            grads.append(g)
    return dWs, dbs


def per_sample_gradients(model, X, labels):
    """Per-sample cross-entropy gradients with dropout off (no regularization).

    Returns (pWs, pbs, norms): pWs[l] has shape (B, out, in), pbs[l]
    shape (B, out), norms the per-sample global L2 gradient norm.
    Training never builds these tensors; this is the reference the
    ghost-norm DP-SGD step is tested against.
    """
    X = nn._validate_inputs(model, X)
    labels = np.asarray(labels, dtype=np.int64)
    Y = nn.one_hot(labels, model.output_dim)
    buf = nn._Buffers(model.layer_sizes, X.shape[0], grads=False)
    hs, masks, logits = nn._forward_pass(model.weights, model.biases, model.dropout_rates, X, None, buf)
    pbs = nn._layer_deltas(model.weights, hs, masks, nn.softmax(logits) - Y, buf)
    pWs = [np.einsum("bo,bi->boi", d, h) for d, h in zip(pbs, hs)]
    sq = sum(np.sum(pW**2, axis=(1, 2)) + np.sum(pb**2, axis=1) for pW, pb in zip(pWs, pbs))
    return pWs, pbs, np.sqrt(sq)


class TestGradients:
    @pytest.mark.parametrize("l2,dropout", [(0.0, [0.0]), (0.01, [0.0]), (0.0, [0.3])])
    def test_matches_central_differences(self, l2, dropout):
        # 5x4x3 toy shape per the engine's gradient contract
        model = tiny_model([5, 4, 3], seed=5, dropout=dropout)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(7, 5))
        y = rng.integers(0, 3, 7)
        _, dWs, dbs = nn.loss_and_gradients(model, X, y, l2, train_mode=True, seed=21)
        nWs, nbs = central_difference_grads(model, X, y, l2, train_mode=True, seed=21)
        for a, f in zip(dWs + dbs, nWs + nbs):
            assert np.allclose(a, f, rtol=1e-4, atol=1e-7)

    def test_per_sample_gradients_mean_equals_batch(self):
        model = tiny_model([5, 4, 3], seed=2, dropout=[0.0])
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, 5))
        y = rng.integers(0, 3, 9)
        pWs, pbs, norms = per_sample_gradients(model, X, y)
        _, dWs, dbs = nn.loss_and_gradients(model, X, y)
        for p, d in zip(pWs, dWs):
            assert np.allclose(p.mean(axis=0), d, atol=1e-12)
        for p, d in zip(pbs, dbs):
            assert np.allclose(p.mean(axis=0), d, atol=1e-12)
        assert np.all(norms >= 0)

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_loss_and_gradients_is_the_training_step(self, l2):
        # one full-batch epoch applies the gradients of the permuted batch
        model = tiny_model([5, 6, 3], seed=7, dropout=[0.0])
        rng = np.random.default_rng(9)
        X, y = rng.normal(size=(12, 5)), rng.integers(0, 3, 12)
        seed, lr = 33, 0.1
        cfg = nn.TrainConfig(learning_rate=lr, batch_size=12, max_epochs=1, l2_lambda=l2, seed=seed)
        trained = nn.train(model, (X, y), None, cfg)
        perm = np.random.default_rng(seed).permutation(12)
        _, dWs, dbs = nn.loss_and_gradients(model, X[perm], y[perm], l2)
        params, grads = model.weights + model.biases, dWs + dbs
        for got, p, g in zip(trained.weights + trained.biases, params, grads):
            assert got.tobytes() == (p - g * lr).tobytes()


def separable_set(n=120, seed=0):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = rng.normal(size=(n, 4)) * 0.1 + np.where(y[:, None] == 1, 2.0, -2.0)
    return X, y


class TestTrain:
    def config(self, **kw):
        base = dict(learning_rate=0.1, batch_size=16, max_epochs=50, seed=4)
        base.update(kw)
        return nn.TrainConfig(**base)

    def test_fits_separable_data(self):
        X, y = separable_set()
        model = tiny_model([4, 8, 2], seed=1, dropout=[0.0])
        trained = nn.train(model, (X, y), None, self.config())
        assert nn.evaluate_accuracy(trained, X, y) >= 0.99

    def test_zero_epochs_returns_input_model(self):
        X, y = separable_set()
        model = tiny_model([4, 8, 2], seed=1)
        out = nn.train(model, (X, y), (X, y), self.config(max_epochs=0))
        for a, b in zip(out.weights, model.weights):
            assert np.array_equal(a, b)

    def test_full_layer_prune_mask_stays_zero(self):
        X, y = separable_set()
        model = tiny_model([4, 8, 2], seed=1, dropout=[0.0])
        masks = [np.zeros_like(model.weights[0], dtype=bool), np.ones_like(model.weights[1], dtype=bool)]
        trained = nn.train(model, (X, y), None, self.config(max_epochs=5), cons.Pruned(masks))
        assert np.all(trained.weights[0] == 0.0)

    def test_seed_determinism_is_bitwise(self):
        X, y = separable_set()
        model = tiny_model([4, 8, 2], seed=1, dropout=[0.1])
        a = nn.train(model, (X, y), (X, y), self.config())
        b = nn.train(model, (X, y), (X, y), self.config())
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(wa, wb)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self):
        X, y = separable_set()
        model = tiny_model([4, 8, 2], seed=1)
        with pytest.raises(TrainingError, match="epoch"):
            nn.train(model, (X * 1e6, y), None, self.config(learning_rate=1e9, max_epochs=3))

    def test_valid_set_returns_best_epoch_snapshot(self):
        X, y = separable_set()
        rng = np.random.default_rng(101)  # best after epoch 2, tied by every later epoch
        valid = (rng.normal(size=(60, 4)) * 2.0, rng.integers(0, 2, 60))
        model = tiny_model([4, 8, 2], seed=1, dropout=[0.0])
        epochs = [nn.train(model, (X, y), None, self.config(max_epochs=k)) for k in range(1, 9)]
        accs = [nn.evaluate_accuracy(m, *valid) for m in epochs]
        best = epochs[int(np.argmax(accs))]  # the first best epoch
        trained = nn.train(model, (X, y), valid, self.config(max_epochs=8))
        for a, b in zip(trained.weights + trained.biases, best.weights + best.biases):
            assert a.tobytes() == b.tobytes()

    def test_cluster_constraint_shared_updates(self):
        # two weights in one cluster: centroid delta = -lr * (g1 + g2)
        model = zero_model([2, 1, 2], dropout=[0.0])
        model.weights[0][:] = 0.5
        assign0 = np.zeros(model.weights[0].size, dtype=np.int64)
        assign1 = np.arange(model.weights[1].size, dtype=np.int64)
        constraint = cons.Clustered([assign0, assign1], [np.array([0.5]), model.weights[1].ravel().copy()])
        X = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.3]])
        y = np.array([0, 1, 0])
        lr = 0.05
        _, dWs, _ = nn.loss_and_gradients(model, X, y)
        expected_delta = -lr * float(dWs[0].sum())
        cfg = nn.TrainConfig(learning_rate=lr, batch_size=3, max_epochs=1, seed=0)
        trained = nn.train(model, (X, y), None, cfg, constraint)
        got = np.unique(trained.weights[0])
        assert got.size == 1
        assert got[0] == pytest.approx(0.5 + expected_delta, rel=1e-12)


class TestDpSgd:
    def test_degenerate_dp_matches_plain_sgd(self):
        X, y = separable_set(n=48)
        model = tiny_model([4, 6, 2], seed=9, dropout=[0.1])
        cfg = nn.TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=3, seed=13, l2_lambda=1e-3)
        dp = nn.DpConfig(clip_norm=1e9, noise_multiplier=0.0)
        a = nn.train(model, (X, y), None, cfg)
        b = nn.train_dpsgd(model, (X, y), cfg, dp)
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.allclose(wa, wb, atol=1e-6)

    def test_clipping_bounds_applied_gradient(self):
        # single sample whose gradient norm exceeds C=1: step length is lr * 1
        model = zero_model([2, 2], dropout=[])
        X = np.array([[30.0, 40.0]])
        y = np.array([0])
        _, _, norms = per_sample_gradients(model, X, y)
        assert norms[0] > 1.0
        lr = 0.01
        cfg = nn.TrainConfig(learning_rate=lr, batch_size=1, max_epochs=1, seed=0)
        trained = nn.train_dpsgd(model, (X, y), cfg, nn.DpConfig(clip_norm=1.0, noise_multiplier=0.0))
        moved = np.sqrt(
            sum(float(np.sum((a - b) ** 2)) for a, b in
                zip(trained.weights + trained.biases, model.weights + model.biases))
        )
        assert moved == pytest.approx(lr * 1.0, rel=1e-9)

    def test_noise_multipliers_differ(self):
        X, y = separable_set(n=32)
        model = tiny_model([4, 6, 2], seed=9, dropout=[0.0])
        cfg = nn.TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=1, seed=13)
        a = nn.train_dpsgd(model, (X, y), cfg, nn.DpConfig(clip_norm=1.0, noise_multiplier=0.5))
        b = nn.train_dpsgd(model, (X, y), cfg, nn.DpConfig(clip_norm=1.0, noise_multiplier=0.2))
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))


def constrained(family, model):
    """(model, constraint) pair for each compression family a DP step must honor."""
    if family is None:
        return model, None
    if family == "prune":
        cm = compress.prune_l1(model, 0.5)
        return cm.model, cm.constraint
    if family == "cluster":
        cm = compress.cluster_weights(model, 4, seed=1)
        return cm.model, cm.constraint
    return model, cons.Quantized([cons.quant_scale(w) for w in model.weights])


class TestDpStepOracle:
    """One full-batch DP-SGD step against materialized per-sample gradients."""

    @pytest.mark.parametrize("family", [None, "prune", "quant", "cluster"])
    def test_ghost_norm_step_matches_per_sample_oracle(self, family):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(24, 5))
        y = rng.integers(0, 3, 24)
        model, constraint = constrained(family, tiny_model([5, 7, 6, 3], seed=4, dropout=[0.0, 0.0]))
        seed, lr, l2 = 31, 0.05, 1e-3
        cfg = nn.TrainConfig(learning_rate=lr, batch_size=24, max_epochs=1, l2_lambda=l2, seed=seed)

        state = nn._TrainState(model, constraint)
        eff = state.effective_weights()
        eff_model = nn.FcnModel(model.layer_sizes, eff, state.biases, model.dropout_rates)
        pWs, pbs, norms = per_sample_gradients(eff_model, X, y)
        clip = float(np.median(norms))
        dp = nn.DpConfig(clip_norm=clip, noise_multiplier=0.7)
        factors = np.minimum(1.0, clip / norms)
        assert np.any(factors < 1.0) and np.any(factors == 1.0)

        buf = nn._Buffers(model.layer_sizes, X.shape[0])
        hs, masks, logits = nn._forward_pass(eff, state.biases, model.dropout_rates, X, None, buf)
        deltas = nn._layer_deltas(eff, hs, masks, nn.softmax(logits) - nn.one_hot(y, 3), buf)
        assert np.allclose(nn._ghost_norms(deltas, hs), norms, rtol=1e-12, atol=0.0)

        rng_noise = np.random.default_rng(np.random.SeedSequence([seed, 0x6E01]))
        std = dp.noise_multiplier * clip / X.shape[0]
        dWs, dbs = [], []
        for pW, pb, w in zip(pWs, pbs, eff):
            dW = np.einsum("b,boi->oi", factors, pW) / X.shape[0]
            db = factors @ pb / X.shape[0]
            dWs.append(dW + std * rng_noise.standard_normal(dW.shape) + l2 * w)
            dbs.append(db + std * rng_noise.standard_normal(db.shape))
        state.apply_update(dWs, dbs, lr)
        expected = state.snapshot(model)

        got = nn.train_dpsgd(model, (X, y), cfg, dp, constraint)
        for g, e in zip(got.weights + got.biases, expected.weights + expected.biases):
            assert np.allclose(g, e, rtol=0.0, atol=1e-12)


def reference_fit(model, train_set, valid_set, config, constraint=None, dp=None):
    """The training loop as it was before its steps reused buffers: every step
    makes new arrays. The buffered loop must give the same bits."""
    X, y = train_set
    rng = np.random.default_rng(config.seed)
    rng_noise = np.random.default_rng(np.random.SeedSequence([config.seed, 0x6E01]))
    constraint = constraint or cons.Unconstrained()
    shapes = [w.shape for w in model.weights]
    params = constraint.parameters(model.weights)
    biases = [b.copy() for b in model.biases]
    lr = config.learning_rate

    def snapshot():
        weights = [w.copy() for w in constraint.weights(params, shapes)]
        return nn.FcnModel(model.layer_sizes, weights, [b.copy() for b in biases],
                           model.dropout_rates)

    best, best_acc = None, -np.inf
    for _ in range(config.max_epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], config.batch_size):
            idx = order[start : start + config.batch_size]
            B = idx.shape[0]
            eff = constraint.weights(params, shapes)
            hs, zs, masks = [X[idx]], [], []
            for l, p in enumerate(model.dropout_rates):
                z = hs[-1] @ eff[l].T + biases[l]
                a = np.maximum(z, 0.0)
                mask = (rng.random(a.shape) >= p) / (1.0 - p) if p > 0.0 else None
                if mask is not None:
                    a = a * mask
                zs.append(z)
                masks.append(mask)
                hs.append(a)
            logits = hs[-1] @ eff[-1].T + biases[-1]
            e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
            delta = e / np.sum(e, axis=1, keepdims=True) - nn.one_hot(y[idx], model.output_dim)
            if dp is None:
                delta = delta / B
            deltas = [delta]
            for l in range(len(eff) - 1, 0, -1):
                delta = delta @ eff[l]
                if masks[l - 1] is not None:
                    delta = delta * masks[l - 1]
                delta = delta * (zs[l - 1] > 0.0)
                deltas.append(delta)
            deltas = deltas[::-1]
            if dp is None:
                dWs = [d.T @ h for d, h in zip(deltas, hs)]
                dbs = [d.sum(axis=0) for d in deltas]
            else:
                sq = sum(np.sum(d * d, axis=1) * (np.sum(h * h, axis=1) + 1.0)
                         for d, h in zip(deltas, hs))
                factors = dp.clip_norm / np.maximum(np.sqrt(sq), dp.clip_norm)
                std = dp.noise_multiplier * dp.clip_norm / B
                dWs, dbs = [], []
                for d, h in zip(deltas, hs):
                    d = factors[:, None] * d
                    dWs.append(d.T @ h / B
                               + std * rng_noise.standard_normal((d.shape[1], h.shape[1])))
                    dbs.append(d.sum(axis=0) / B + std * rng_noise.standard_normal(d.shape[1]))
            if config.l2_lambda > 0:
                dWs = [dW + config.l2_lambda * w for dW, w in zip(dWs, eff)]
            for p, g in zip(biases + params, dbs + constraint.gradients(dWs)):
                p -= lr * g
            constraint.project(params)
        if valid_set is not None:
            snap = snapshot()
            acc = nn.evaluate_accuracy(snap, *valid_set)
            if acc > best_acc:
                best_acc, best = acc, snap
    return best if best is not None else snapshot()


class TestBufferedSteps:
    """Steps done in place in one buffer set give the bits of the reference loop."""

    @pytest.mark.parametrize("family", [None, "prune", "quant", "cluster"])
    @pytest.mark.parametrize("rule", ["sgd", "dpsgd"])
    def test_parameters_equal_reference_bit_for_bit(self, monkeypatch, rule, family):
        epochs = []
        real = nn.evaluate_accuracy
        monkeypatch.setattr(nn, "evaluate_accuracy", lambda *a: epochs.append(1) or real(*a))
        rng = np.random.default_rng(23)
        X, y = rng.normal(size=(50, 5)), rng.integers(0, 3, 50)
        valid = (rng.normal(size=(20, 5)), rng.integers(0, 3, 20))
        model, constraint = constrained(family, tiny_model([5, 9, 7, 3], seed=4, dropout=[0.2, 0.1]))
        # 50 rows in batches of 15 leave a last batch of 5
        cfg = nn.TrainConfig(learning_rate=0.1, batch_size=15, max_epochs=12, l2_lambda=1e-3, seed=29)
        if rule == "sgd":
            got = nn.train(model, (X, y), valid, cfg, constraint)
            assert len(epochs) == cfg.max_epochs  # validated after every epoch, none skipped
            expected = reference_fit(model, (X, y), valid, cfg, constraint)
        else:
            dp = nn.DpConfig(clip_norm=0.5, noise_multiplier=0.8)
            got = nn.train_dpsgd(model, (X, y), cfg, dp, constraint)
            expected = reference_fit(model, (X, y), None, cfg, constraint, dp)
        for g, e in zip(got.weights + got.biases, expected.weights + expected.biases):
            assert g.tobytes() == e.tobytes()


@pytest.mark.parametrize("fit", [
    lambda m, xy, cfg: nn.train(m, xy, None, cfg),
    lambda m, xy, cfg: nn.train_dpsgd(m, xy, cfg, nn.DpConfig(clip_norm=1.0, noise_multiplier=0.5)),
], ids=["sgd", "dpsgd"])
@pytest.mark.parametrize("bad", [-1, 2])
def test_labels_checked_before_any_step(fit, bad):
    X, y = separable_set(n=8)
    y[3] = bad
    cfg = nn.TrainConfig(learning_rate=0.1, batch_size=4, max_epochs=0, seed=0)
    with pytest.raises(InputError, match="training labels out of range"):
        fit(tiny_model([4, 5, 2]), (X, y), cfg)


class TestOneHot:
    def test_single_and_batch(self):
        v = nn.one_hot(2, 4)
        assert v.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert v.sum() == 1.0
        M = nn.one_hot(np.array([0, 3]), 4)
        assert M.shape == (2, 4)
        assert np.all(M.sum(axis=1) == 1.0)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            nn.one_hot(4, 4)
