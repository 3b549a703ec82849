"""Attack builder and runner tests."""

import numpy as np
import pytest

from compaudit import attacks, compress, data, meta, nn
from compaudit.attacks import ADV1, ADV2, SrConstruction
from compaudit.errors import ConfigError, InputError, OrderingError, ShapeError
from compaudit.metrics import AttackScoreSet, balanced_accuracy


class TestMetricAttacks:
    """Member iff metric < tau: a victim scores exp(-metric) against ``decision_threshold``."""

    def test_zero_loss_is_member(self):
        ds, split, victim, shadow = tiny_world()
        _, scores = attacks.run_nr_metric(ds, split, victim, shadow, metric="loss")
        zero_loss = nn.cross_entropy_losses(np.array([[0.0, 1.0]]), np.array([1]))
        assert zero_loss.tolist() == [0.0]
        assert np.exp(-zero_loss[0]) >= scores.decision_threshold

    @pytest.mark.parametrize("metric", ["loss", "mentr"])
    def test_loss_equal_to_tau_is_nonmember(self, metric):
        ds, split, victim, shadow = tiny_world()
        tau, scores = attacks.run_nr_metric(ds, split, victim, shadow, metric=metric)
        at_tau = float(np.exp(-tau))
        tied = AttackScoreSet([at_tau], [at_tau], decision_threshold=scores.decision_threshold)
        assert balanced_accuracy(tied) == 0.5  # both rows are called non-members
        assert at_tau < scores.decision_threshold <= np.nextafter(at_tau, np.inf)

    def test_modified_entropy_one_hot_is_zero(self):
        P = np.array([[0.0, 1.0, 0.0]])
        assert attacks.modified_entropy(P, np.array([1]))[0] == 0.0

    def test_modified_entropy_hand_value(self):
        P = np.array([[0.5, 0.5]])
        val = attacks.modified_entropy(P, np.array([0]))[0]
        assert val == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_modified_entropy_nonnegative(self):
        rng = np.random.default_rng(1)
        P = rng.dirichlet(np.ones(6), size=500)
        y = rng.integers(0, 6, 500)
        assert np.all(attacks.modified_entropy(P, y) >= -1e-12)


def threshold_balanced_accuracy(member_values, nonmember_values, tau: float) -> float:
    """Balanced accuracy of the rule "member iff value < tau"."""
    mv = np.asarray(member_values, dtype=float)
    nv = np.asarray(nonmember_values, dtype=float)
    return 0.5 * (float(np.mean(mv < tau)) + float(np.mean(nv >= tau)))


class TestCalibrateThreshold:
    def test_separable_populations(self):
        tau = attacks.calibrate_threshold(np.zeros(10), np.ones(10))
        assert tau == 0.5
        assert threshold_balanced_accuracy(np.zeros(10), np.ones(10), tau) == 1.0

    def test_identical_populations_ba_half(self):
        vals = np.array([0.1, 0.4, 0.9])
        tau = attacks.calibrate_threshold(vals, vals)
        assert threshold_balanced_accuracy(vals, vals, tau) == 0.5

    def test_matches_bruteforce_argmax(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            member = rng.normal(size=15)
            nonmember = rng.normal(loc=0.5, size=12)
            tau = attacks.calibrate_threshold(member, nonmember)
            uniq = np.unique(np.concatenate([member, nonmember]))
            candidates = (uniq[1:] + uniq[:-1]) / 2
            best = max(
                candidates,
                key=lambda t: (threshold_balanced_accuracy(member, nonmember, t), -t),
            )
            assert threshold_balanced_accuracy(
                member, nonmember, tau
            ) == threshold_balanced_accuracy(member, nonmember, best)
            assert tau == best

    def test_empty_population_rejected(self):
        with pytest.raises(InputError):
            attacks.calibrate_threshold(np.array([]), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InputError):
            attacks.calibrate_threshold(np.array([0.1, bad]), np.ones(3))
        with pytest.raises(InputError):
            attacks.calibrate_threshold(np.ones(3), np.array([bad, 0.1]))

    @pytest.mark.parametrize("kind", ["continuous", "rounded", "clamped"])
    def test_matches_the_scan_over_every_midpoint(self, kind):
        rng = np.random.default_rng({"continuous": 3, "rounded": 4, "clamped": 5}[kind])
        for _ in range(100):
            member = rng.normal(size=rng.integers(1, 40))
            nonmember = rng.normal(loc=rng.normal(), size=rng.integers(1, 40))
            if kind == "rounded":  # ties within and across the populations
                member, nonmember = np.round(member, 1), np.round(nonmember, 1)
            elif kind == "clamped":  # runs of one value at each end, as clamped losses give
                member, nonmember = np.clip(member, -0.5, 0.5), np.clip(nonmember, -0.5, 0.5)
            assert attacks.calibrate_threshold(member, nonmember) == scan_threshold(
                member, nonmember)

    def test_adjacent_floats(self):
        # the midpoint of 1 and the next float rounds down to 1
        up = np.nextafter(1.0, 2.0)
        for member, nonmember in [([1.0], [up]), ([up], [1.0]), ([1.0, up], [up]),
                                  ([0.0, 1.0], [up, 1.0])]:
            member, nonmember = np.array(member), np.array(nonmember)
            assert attacks.calibrate_threshold(member, nonmember) == scan_threshold(
                member, nonmember)


def scan_threshold(member_values, nonmember_values):
    """The first midpoint of the sorted distinct values with the best balanced accuracy."""
    mv = np.asarray(member_values, dtype=float).ravel()
    nv = np.asarray(nonmember_values, dtype=float).ravel()
    uniq = np.unique(np.concatenate([mv, nv]))
    if uniq.size == 1:
        return float(uniq[0])
    best_tau, best_ba = None, -1.0
    for tau in (uniq[1:] + uniq[:-1]) / 2.0:
        ba = threshold_balanced_accuracy(mv, nv, tau)
        if ba > best_ba:
            best_tau, best_ba = tau, ba
    return float(best_tau)


class TestNrMetadata:
    def test_sort_without_label(self):
        out = attacks.build_nr_metadata_batch(np.array([[0.1, 0.7, 0.2]]), None, with_label=False)
        assert out.tolist() == [[0.7, 0.2, 0.1]]

    def test_sort_with_label(self):
        out = attacks.build_nr_metadata_batch(np.array([[0.1, 0.7, 0.2]]), [1], with_label=True)
        assert out.tolist() == [[0.7, 0.2, 0.1, 0.0, 1.0, 0.0]]

    def test_uniform_already_sorted(self):
        p = np.full((1, 4), 0.25)
        out = attacks.build_nr_metadata_batch(p, None, with_label=False)
        assert out.tolist() == p.tolist()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        P = rng.dirichlet(np.ones(5), size=8)
        y = rng.integers(0, 5, 8)
        batch = attacks.build_nr_metadata_batch(P, y, with_label=True)
        for i in range(8):
            single = attacks.build_nr_metadata_batch(P[i : i + 1], y[i : i + 1], with_label=True)
            assert np.array_equal(batch[i : i + 1], single)

    def test_vector_rejected(self):
        with pytest.raises(ShapeError):
            attacks.build_nr_metadata_batch(np.array([0.1, 0.7, 0.2]), None, with_label=False)


# feature width of each SR construction for C classes
SR_WIDTHS = {
    SrConstruction.SORTED_CONCAT: lambda C: 2 * C,
    SrConstruction.SORTED_CONCAT_LABEL: lambda C: 3 * C,
    SrConstruction.DIRECT_CONCAT_LABEL: lambda C: 3 * C,
    SrConstruction.L2_DISTANCE_LABEL: lambda C: C + 1,
}


class TestSrMetadata:
    def test_method_one_hand_example(self):
        out = attacks.build_sr_metadata_batch(
            np.array([[0.1, 0.7, 0.2]]),
            np.array([[0.2, 0.5, 0.3]]),
            None,
            SrConstruction.SORTED_CONCAT,
        )
        assert np.allclose(out, [[0.7, 0.2, 0.1, 0.5, 0.3, 0.2]])

    def test_method_two_appends_one_hot(self):
        out = attacks.build_sr_metadata_batch(
            np.array([[0.1, 0.7, 0.2]]),
            np.array([[0.2, 0.5, 0.3]]),
            [1],
            SrConstruction.SORTED_CONCAT_LABEL,
        )
        assert np.allclose(out, [[0.7, 0.2, 0.1, 0.5, 0.3, 0.2, 0.0, 1.0, 0.0]])

    def test_l2_distance_identical_is_zero(self):
        p = np.array([[0.4, 0.6]])
        out = attacks.build_sr_metadata_batch(p, p, [0], SrConstruction.L2_DISTANCE_LABEL)
        assert out[0, 0] == 0.0

    def test_l2_distance_orthogonal_one_hots(self):
        out = attacks.build_sr_metadata_batch(
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), [1], SrConstruction.L2_DISTANCE_LABEL
        )
        assert out[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_feature_lengths(self):
        C = 5
        p = np.full((1, C), 1.0 / C)
        for method in SrConstruction:
            labels = None if method is SrConstruction.SORTED_CONCAT else [2]
            out = attacks.build_sr_metadata_batch(p, p, labels, method)
            assert out.shape == (1, SR_WIDTHS[method](C))

    def test_first_half_sorted_descending(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p_o = rng.dirichlet(np.ones(6), size=1)
            p_c = rng.dirichlet(np.ones(6), size=1)
            out = attacks.build_sr_metadata_batch(p_o, p_c, None, SrConstruction.SORTED_CONCAT)
            first = out[0, :6]
            assert np.all(np.diff(first) <= 0)

    def test_permutation_consistency_round_trip(self):
        rng = np.random.default_rng(5)
        p_o = rng.dirichlet(np.ones(7))
        p_c = rng.dirichlet(np.ones(7))
        out = attacks.build_sr_metadata_batch(p_o[None], p_c[None], None,
                                              SrConstruction.SORTED_CONCAT)[0]
        pi = np.argsort(-p_o, kind="stable")
        inverse = np.argsort(pi)
        assert np.array_equal(out[:7][inverse], p_o)
        assert np.array_equal(out[7:][inverse], p_c)

    @pytest.mark.parametrize("method", list(SrConstruction))
    @pytest.mark.parametrize("C", [2, 4, 30])
    def test_batch_matches_per_row_reference(self, method, C):
        rng = np.random.default_rng(C)
        P_o = rng.dirichlet(np.ones(C), size=300)
        P_c = rng.dirichlet(np.ones(C), size=300)
        P_o[:5] = P_c[:5] = 1.0 / C  # all-tied rows keep their class order
        P_o[5:10] = np.round(P_o[5:10], 1)
        y = rng.integers(0, C, 300)

        def reference(p_o, p_c, label):
            onehot = np.eye(C)[label]
            if method is SrConstruction.L2_DISTANCE_LABEL:
                return np.concatenate([[np.linalg.norm(p_o - p_c)], onehot])
            if method is SrConstruction.DIRECT_CONCAT_LABEL:
                return np.concatenate([p_o, p_c, onehot])
            pi = sorted(range(C), key=lambda k: (-p_o[k], k))
            row = np.concatenate([p_o[pi], p_c[pi]])
            return row if method is SrConstruction.SORTED_CONCAT else np.concatenate([row, onehot])

        expect = np.stack([reference(P_o[i], P_c[i], y[i]) for i in range(300)])
        got = attacks.build_sr_metadata_batch(P_o, P_c, y, method)
        assert got.shape == (300, SR_WIDTHS[method](C))
        assert np.array_equal(got, expect)

    def test_direct_concat_unsorted(self):
        p_o = np.array([0.1, 0.7, 0.2])
        p_c = np.array([0.2, 0.5, 0.3])
        out = attacks.build_sr_metadata_batch(p_o[None], p_c[None], [0],
                                              SrConstruction.DIRECT_CONCAT_LABEL)[0]
        assert np.allclose(out[:3], p_o)
        assert np.allclose(out[3:6], p_c)


def tiny_world(seed=0, n_classes=4, spread=0.6):
    """Small trained victim/shadow pair over a synthetic dataset."""
    ds = data.synth_generate(480, 8, n_classes, spread, seed=seed)
    split = data.make_split(ds, data.SplitSizes(100, 100, 100, 100), seed=seed + 1)
    cfg = nn.TrainConfig(learning_rate=0.2, batch_size=25, max_epochs=40, seed=seed + 2)
    victim = nn.train(
        nn.init_fcn([8, 24, 12, n_classes], seed=seed + 3, dropout_rates=[0.0, 0.0]),
        ds.xy(split.victim_train), None, cfg,
    )
    shadow = nn.train(
        nn.init_fcn([8, 24, 12, n_classes], seed=seed + 4, dropout_rates=[0.0, 0.0]),
        ds.xy(split.shadow_train), None, cfg,
    )
    return ds, split, victim, shadow


FAST_RF = meta.RfHyper(n_trees=20, max_depth=8)


class TestRunners:
    def test_nr_metric_runner_scores_in_unit_interval(self):
        ds, split, victim, shadow = tiny_world()
        tau, scores = attacks.run_nr_metric(ds, split, victim, shadow, metric="loss")
        assert np.all((scores.member_scores >= 0) & (scores.member_scores <= 1))
        assert np.isfinite(tau)
        assert 0.0 <= balanced_accuracy(scores) <= 1.0

    def test_nr_training_runner(self):
        ds, split, victim, shadow = tiny_world()
        clf, scores = attacks.run_nr_training(
            ds, split, victim, shadow, clf_kind="rf", with_label=True, seed=0, hyper=FAST_RF
        )
        assert np.all((scores.member_scores >= 0) & (scores.member_scores <= 1))
        assert scores.member_scores.size == split.victim_train.size

    def test_sr_with_identical_copy_completes(self):
        # degenerate reference: compressed model is an exact copy
        ds, split, victim, shadow = tiny_world()
        v_copy = compress.prune_l1(victim, 0.0)
        s_copy = compress.prune_l1(shadow, 0.0)
        clf, scores = attacks.run_sr(
            ds, split, victim, v_copy, shadow, s_copy,
            SrConstruction.SORTED_CONCAT_LABEL, "lr", seed=1,
        )
        assert np.all(np.isfinite(scores.member_scores))

    def test_sr_feature_halves_duplicate_for_identical_copy(self):
        ds, split, victim, _ = tiny_world()
        X, y = ds.xy(split.victim_train[:5])
        P = nn.forward(victim, X)
        feats = attacks.build_sr_metadata_batch(P, P, y, SrConstruction.SORTED_CONCAT)
        C = ds.class_count
        assert np.array_equal(feats[:, :C], feats[:, C : 2 * C])

    def test_shuffled_membership_near_half(self):
        ds, split, victim, shadow = tiny_world(seed=5)
        cm_v = compress.prune_l1(victim, 0.5)
        cm_s = compress.prune_l1(shadow, 0.5)
        _, scores = attacks.run_sr(
            ds, split, victim, cm_v, shadow, cm_s,
            SrConstruction.SORTED_CONCAT_LABEL, "rf", seed=2, hyper=FAST_RF,
        )
        bas = [
            balanced_accuracy(attacks.shuffled_score_set(scores, seed=s)) for s in range(5)
        ]
        assert 0.4 <= float(np.median(bas)) <= 0.6


class TestMrBuilders:
    def _pruned_pair(self, model, levels):
        return [compress.prune_l1(model, s) for s in levels]

    def test_adv2_concatenation_order(self):
        ds, split, victim, _ = tiny_world()
        models = self._pruned_pair(victim, [0.6, 0.7])
        X, y = ds.xy(split.victim_test[:4])
        feats = attacks.mr_posterior_concat(X, y, models)
        C = ds.class_count
        assert feats.shape == (4, 2 * C)
        P0 = nn.forward(models[0].model, X)
        P1 = nn.forward(models[1].model, X)
        for i in range(4):
            # the least-compressed model comes first, sorted descending; the
            # second block follows the first block's class order
            pi = sorted(range(C), key=lambda k: -P0[i, k])
            assert feats[i, :C].tolist() == [P0[i, k] for k in pi]
            assert feats[i, C:].tolist() == [P1[i, k] for k in pi]
        assert np.all(np.diff(feats[:, :C], axis=1) <= 0)

    def test_adv2_hand_example(self):
        # reference [0.2, 0.8] sorts to [0.8, 0.2], swapping the classes, so
        # [0.6, 0.4] becomes [0.4, 0.6]
        class Stub:
            def __init__(self, p, tag):
                self.model = self
                self.family = "prune"
                self.degree_tag = tag
                self._p = np.asarray(p)

            @property
            def order_key(self):
                return (self.family, self.degree_tag)

        a, b = Stub([0.2, 0.8], 60.0), Stub([0.6, 0.4], 70.0)
        orig_posteriors = attacks._posteriors

        def fake(model, X):
            return np.tile(model._p, (X.shape[0], 1))

        attacks._posteriors = fake
        try:
            feats = attacks.mr_posterior_concat(np.zeros((1, 3)), np.zeros(1, dtype=int), [a, b])
            assert feats[0].tolist() == [0.8, 0.2, 0.4, 0.6]
        finally:
            attacks._posteriors = orig_posteriors

    def test_adv1_degenerate_classifiers_give_constant_features(self):
        ds, split, victim, _ = tiny_world()
        models = self._pruned_pair(victim, [0.6, 0.7])
        # sorted_concat_label features are 3C wide
        constant = [meta.LogisticMeta(np.zeros(3 * ds.class_count), 0.0) for _ in models]
        X, y = ds.xy(split.victim_test[:3])
        feats = attacks.mr_posterior_concat(X, y, models, victim, constant)
        assert np.all(feats == 0.5)
        assert feats.shape == (3, 4)  # [1-p, p] pairs per model

    def test_equal_degree_blocks_permute_with_order(self):
        ds, split, victim, shadow = tiny_world()
        a = compress.prune_l1(victim, 0.6)
        b = compress.prune_l1(shadow, 0.6)  # same degree, different model
        X, y = ds.xy(split.victim_test[:4])
        f_ab = attacks.mr_posterior_concat(X, y, [a, b])
        f_ba = attacks.mr_posterior_concat(X, y, [b, a])
        C = ds.class_count
        Pa, Pb = nn.forward(a.model, X), nn.forward(b.model, X)
        for i in range(4):
            # a tie keeps the caller's order, so the first-listed model is
            # the reference whose class order both blocks follow
            pa = sorted(range(C), key=lambda k: -Pa[i, k])
            pb = sorted(range(C), key=lambda k: -Pb[i, k])
            assert f_ab[i].tolist() == [Pa[i, k] for k in pa] + [Pb[i, k] for k in pa]
            assert f_ba[i].tolist() == [Pb[i, k] for k in pb] + [Pa[i, k] for k in pb]
        assert not np.array_equal(f_ab, f_ba)

    def test_adv1_loss_vector_appends_original_loss(self):
        ds, split, victim, _ = tiny_world()
        models = self._pruned_pair(victim, [0.6, 0.8])
        X, y = ds.xy(split.victim_train[:6])
        L = attacks.mr_loss_concat(X, y, models, original_model=victim)
        assert L.shape == (6, len(models) + 1)
        assert np.array_equal(L[:, :-1], attacks.mr_loss_concat(X, y, models))
        assert np.array_equal(L[:, -1], nn.cross_entropy_losses(nn.forward(victim, X), y))

    def test_loss_concat_matches_component_oracle(self):
        ds, split, victim, _ = tiny_world()
        models = self._pruned_pair(victim, [0.6, 0.8])
        X, y = ds.xy(split.victim_train[:6])
        L = attacks.mr_loss_concat(X, y, models)
        for j, m in enumerate(models):
            expect = nn.cross_entropy_losses(nn.forward(m.model, X), y)
            assert np.array_equal(L[:, j], expect)

    def test_loss_concat_identical_models_constant(self):
        ds, split, victim, _ = tiny_world()
        m = compress.prune_l1(victim, 0.6)
        twice = [m, m]
        X, y = ds.xy(split.victim_train[:5])
        L = attacks.mr_loss_concat(X, y, twice)
        assert np.array_equal(L[:, 0], L[:, 1])

    def test_loss_concat_near_one_hot_posterior_is_zero(self):
        m = nn.init_fcn([2, 2], seed=0, dropout_rates=[])
        m.weights[0][:] = 0.0
        m.biases[0][:] = [60.0, 0.0]  # softmax saturates at class 0
        cm = compress.prune_l1(m, 0.0)
        X = np.zeros((3, 2))
        y = np.zeros(3, dtype=int)
        L = attacks.mr_loss_concat(X, y, [cm, cm])
        assert np.allclose(L, 0.0, atol=1e-12)

    def test_descending_order_rejected(self):
        ds, split, victim, _ = tiny_world()
        models = self._pruned_pair(victim, [0.8, 0.6])
        X, y = ds.xy(split.victim_train[:3])
        with pytest.raises(OrderingError):
            attacks.mr_loss_concat(X, y, models)
        with pytest.raises(OrderingError):
            attacks.mr_posterior_concat(X, y, models)

    def test_one_model_rejected(self):
        ds, split, victim, shadow = tiny_world()
        vm, sm = compress.prune_l1(victim, 0.6), compress.prune_l1(shadow, 0.6)
        for adversary in (ADV1, ADV2):
            with pytest.raises(ConfigError, match="at least 2"):
                attacks.run_mr(ds, split, victim, [vm], shadow, [sm], adversary=adversary)


class TestRunMr:
    def test_adv2_feature_length_audit(self):
        # adversary 2 features carry no original-model information: n*C + n
        ds, split, victim, shadow = tiny_world()
        v_models = [compress.prune_l1(victim, s) for s in (0.6, 0.7)]
        s_models = [compress.prune_l1(shadow, s) for s in (0.6, 0.7)]
        X, y = ds.xy(split.victim_test[:4])
        post = attacks.mr_posterior_concat(X, y, v_models)
        loss = attacks.mr_loss_concat(X, y, v_models)
        n, C = len(v_models), ds.class_count
        assert post.shape[1] + loss.shape[1] == n * C + n

    def test_duplicated_model_completes(self):
        ds, split, victim, shadow = tiny_world(seed=7)
        vm = compress.prune_l1(victim, 0.7)
        sm = compress.prune_l1(shadow, 0.7)
        mlp, scores = attacks.run_mr(
            ds, split, victim, [vm, vm], shadow, [sm, sm],
            adversary=ADV1, sr_clf_kind="lr", seed=3,
            mlp_hyper=meta.MlpHyper(hidden=16, epochs=150),
        )
        assert np.all(np.isfinite(scores.member_scores))

    def test_unknown_adversary_rejected(self):
        ds, split, victim, shadow = tiny_world(seed=7)
        vm, sm = compress.prune_l1(victim, 0.7), compress.prune_l1(shadow, 0.7)
        with pytest.raises(ConfigError):
            attacks.run_mr(ds, split, victim, [vm, vm], shadow, [sm, sm], adversary="adv3")

    def test_adv1_and_adv2_run_end_to_end(self):
        ds, split, victim, shadow = tiny_world(seed=9)
        levels = (0.6, 0.8)
        v_models = [compress.prune_l1(victim, s) for s in levels]
        s_models = [compress.prune_l1(shadow, s) for s in levels]
        n, C = len(levels), ds.class_count
        # adversary 1: n SR pairs, n compressed losses, the original loss;
        # adversary 2: n aligned posterior blocks and n losses
        widths = {ADV1: 3 * n + 1, ADV2: n * C + n}
        for adversary in (ADV1, ADV2):
            stackers, scores = attacks.run_mr(
                ds, split, victim, v_models, shadow, s_models,
                adversary=adversary, sr_clf_kind="lr", seed=4,
                mlp_hyper=meta.MlpHyper(hidden=16, epochs=150),
            )
            assert len(stackers) == attacks.MR_STACKERS[adversary]
            assert all(m.W1.shape[1] == widths[adversary] for m in stackers)
            assert scores.member_scores.size == split.victim_train.size
            assert np.all((scores.member_scores >= 0) & (scores.member_scores <= 1))

    def test_adv1_forest_stacking_procedure(self):
        # with forests, adversary 1's stackers train on the out-of-bag
        # probabilities of the same forests that score the victim, and the
        # victim score is the mean of MR_STACKERS[ADV1] stackers
        ds, split, victim, shadow = tiny_world(seed=5)
        levels = (0.6, 0.8)
        v_models = [compress.prune_l1(victim, s) for s in levels]
        s_models = [compress.prune_l1(shadow, s) for s in levels]
        rf = meta.RfHyper(n_trees=15, max_depth=4)
        mlp = meta.MlpHyper(hidden=8, epochs=60)
        method = SrConstruction.SORTED_CONCAT_LABEL
        stackers, scores = attacks.run_mr(
            ds, split, victim, v_models, shadow, s_models,
            adversary=ADV1, seed=6, sr_hyper=rf, mlp_hyper=mlp,
        )
        assert len(stackers) == attacks.MR_STACKERS[ADV1] > 1

        seeds = np.random.SeedSequence(6).spawn(3 * len(levels) + 2)
        forests = [
            attacks.fit_sr_classifier(
                ds, split, shadow, sm, method, "rf",
                seed=attacks._seq_int(seeds[2 * len(levels) + i]), hyper=rf,
            )
            for i, sm in enumerate(s_models)
        ]

        def features(original, models, idx, score):
            X, y = ds.xy(idx)
            cols = []
            for cm, clf in zip(models, forests):
                p = score(clf, attacks._sr_features(original, cm, ds, idx, method))
                cols += [1.0 - p, p]
            for m in [cm.model for cm in models] + [original]:
                cols.append(nn.cross_entropy_losses(nn.forward(m, X), y))
            return np.stack(cols, axis=1)

        shadow_rows = np.concatenate([split.shadow_train, split.shadow_test])
        Fs = features(shadow, s_models, shadow_rows, meta.out_of_bag_proba)
        ys = np.r_[np.ones(split.shadow_train.size), np.zeros(split.shadow_test.size)]
        expect = [
            meta.fit("mlp", Fs, ys, hyper=mlp, seed=attacks._seq_int(s))
            for s in seeds[-1].spawn(len(stackers))
        ]
        for m, e in zip(stackers, expect):
            assert np.array_equal(m.W1, e.W1)
        for idx, got in ((split.victim_train, scores.member_scores),
                         (split.victim_test, scores.nonmember_scores)):
            Fv = features(victim, v_models, idx, meta.score_proba)
            assert np.array_equal(got, np.mean([m.score_proba(Fv) for m in expect], axis=0))

    def test_cross_fitting_ignores_plan_row_order(self):
        # out-of-fold probabilities are written by fold position, so a plan
        # whose shadow rows are not sorted gets each row's own probability
        ds, split, _, shadow = tiny_world(seed=3)
        s_models = [compress.prune_l1(shadow, s) for s in (0.6, 0.8)]
        rng = np.random.default_rng(0)
        perm_m = rng.permutation(split.shadow_train.size)
        perm_n = rng.permutation(split.shadow_test.size)
        shuffled = data.SplitPlan(
            split.victim_train, split.victim_test,
            split.shadow_train[perm_m], split.shadow_test[perm_n], seed=split.seed,
        )

        def probs(plan):
            seeds = np.random.SeedSequence(11).spawn(3 * len(s_models) + 2)
            return attacks._cross_fitted_sr_probabilities(
                ds, plan, shadow, s_models, SrConstruction.SORTED_CONCAT_LABEL, "lr", None, seeds
            )

        expect = probs(split)
        got = probs(shuffled)
        order = np.concatenate([perm_m, split.shadow_train.size + perm_n])
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, expect[order])
