"""Metric tests against independent oracles.

The oracles here are deliberately naive: pairwise loops for AUC, an
exhaustive threshold scan for TPR at capped FPR, and a hand confusion
matrix for balanced accuracy. The production implementations must agree
with them to tight tolerances.
"""

import numpy as np
import pytest

from compaudit import metrics
from compaudit.errors import InputError
from compaudit.metrics import AttackScoreSet


def pairwise_auc_oracle(member, nonmember):
    """Mean over all pairs of [m > n] + 0.5 [m == n]."""
    total = 0.0
    for m in member:
        for n in nonmember:
            if m > n:
                total += 1.0
            elif m == n:
                total += 0.5
    return total / (len(member) * len(nonmember))


def tpr_scan_oracle(member, nonmember, cap):
    """Try a threshold at every score (and above all of them)."""
    member = np.asarray(member)
    nonmember = np.asarray(nonmember)
    best = 0.0
    for t in np.concatenate([member, nonmember, [np.inf]]):
        fpr = np.mean(nonmember >= t)
        if fpr <= cap:
            best = max(best, float(np.mean(member >= t)))
    return best


def confusion_ba_oracle(member, nonmember, threshold):
    tp = sum(1 for s in member if s >= threshold)
    fn = len(member) - tp
    tn = sum(1 for s in nonmember if s < threshold)
    fp = len(nonmember) - tn
    return 0.5 * (tp / (tp + fn) + tn / (tn + fp))


class TestBalancedAccuracy:
    def test_perfect_separation(self):
        s = AttackScoreSet([0.9, 0.8], [0.1, 0.2])
        assert metrics.balanced_accuracy(s) == 1.0

    def test_tie_rule_all_half(self):
        # every score exactly at the threshold: ties are members
        s = AttackScoreSet([0.5, 0.5], [0.5, 0.5])
        assert metrics.balanced_accuracy(s) == 0.5

    def test_matches_hand_confusion_matrix(self):
        rng = np.random.default_rng(0)
        member = rng.random(50)
        nonmember = rng.random(50)
        s = AttackScoreSet(member, nonmember)
        for t in (0.2, 0.5, 0.77):
            assert metrics.balanced_accuracy(s, t) == pytest.approx(
                confusion_ba_oracle(member, nonmember, t), abs=1e-12
            )

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            metrics.balanced_accuracy(AttackScoreSet([], [0.1]))


class TestRocAuc:
    def test_concordant_pairs(self):
        s = AttackScoreSet([0.9, 0.8], [0.1, 0.7])
        assert metrics.roc_auc(s) == 1.0

    def test_identical_distributions(self):
        s = AttackScoreSet([0.3, 0.6, 0.9], [0.3, 0.6, 0.9])
        assert metrics.roc_auc(s) == 0.5

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        a = rng.random(20)
        b = rng.random(30)
        auc = metrics.roc_auc(AttackScoreSet(a, b))
        swapped = metrics.roc_auc(AttackScoreSet(b, a))
        assert auc == pytest.approx(1.0 - swapped, abs=1e-12)

    def test_matches_pairwise_oracle_on_random_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = rng.integers(1, 51)
            n = rng.integers(1, 51)
            member = np.round(rng.random(m), 2)  # rounding forces ties
            nonmember = np.round(rng.random(n), 2)
            s = AttackScoreSet(member, nonmember)
            assert metrics.roc_auc(s) == pytest.approx(
                pairwise_auc_oracle(member, nonmember), abs=1e-9
            )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        member = rng.random(40)
        nonmember = rng.random(40)
        base = metrics.roc_auc(AttackScoreSet(member, nonmember))
        for f in (np.exp, lambda x: x**3, lambda x: 5 * x - 2):
            assert metrics.roc_auc(AttackScoreSet(f(member), f(nonmember))) == pytest.approx(
                base, abs=1e-12
            )


class TestRocCurve:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        s = AttackScoreSet(rng.random(25), rng.random(25))
        curve = metrics.roc_curve(s)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert curve.thresholds[0] == np.inf and curve.thresholds[-1] == -np.inf

    def test_integrates_to_auc(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            member = np.round(rng.random(rng.integers(2, 40)), 2)
            nonmember = np.round(rng.random(rng.integers(2, 40)), 2)
            s = AttackScoreSet(member, nonmember)
            curve = metrics.roc_curve(s)  # step rule, trapezoid on tie segments
            area = np.sum(np.diff(curve.fpr) * (curve.tpr[1:] + curve.tpr[:-1]) / 2.0)
            assert area == pytest.approx(metrics.roc_auc(s), abs=1e-9)

    def test_export_csv(self, tmp_path):
        s = AttackScoreSet([0.9, 0.4], [0.8, 0.1])
        path = tmp_path / "roc.csv"
        metrics.export_roc_csv(metrics.roc_curve(s), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) == len(metrics.roc_curve(s).thresholds) + 1


class TestTprAtFpr:
    def test_hand_example_cap_zero(self):
        # members [0.9, 0.4], non-members [0.8, 0.1]: above 0.8 only 0.9 passes
        s = AttackScoreSet([0.9, 0.4], [0.8, 0.1])
        assert metrics.tpr_at_fpr(s, 0.0) == 0.5

    def test_cap_one_is_unconstrained(self):
        rng = np.random.default_rng(6)
        s = AttackScoreSet(rng.random(10), rng.random(10))
        assert metrics.tpr_at_fpr(s, 1.0) == 1.0

    def test_perfect_separation_any_cap(self):
        s = AttackScoreSet([0.9, 0.8], [0.2, 0.1])
        for cap in (0.0, 0.001, 0.5):
            assert metrics.tpr_at_fpr(s, cap) == 1.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            member = np.round(rng.random(rng.integers(2, 30)), 2)
            nonmember = np.round(rng.random(rng.integers(2, 30)), 2)
            s = AttackScoreSet(member, nonmember)
            for cap in (0.0, 0.05, 0.1, 0.5):
                assert metrics.tpr_at_fpr(s, cap) == tpr_scan_oracle(member, nonmember, cap)

    def test_non_decreasing_in_cap(self):
        rng = np.random.default_rng(8)
        s = AttackScoreSet(rng.random(30), rng.random(30))
        caps = np.linspace(0, 1, 21)
        vals = [metrics.tpr_at_fpr(s, c) for c in caps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_small_sample_flag(self):
        s = AttackScoreSet(np.ones(5), np.zeros(100))
        assert metrics.small_sample_flag(s, 0.001)
        assert not metrics.small_sample_flag(s, 0.5)


class TestKl:
    def test_self_divergence_zero(self):
        p = np.array([[0.2, 0.3, 0.5]])
        assert metrics.kl_divergence_batch(p, p).tolist() == [0.0]

    def test_hand_value(self):
        # 0.5 ln 2 + 0.5 ln(2/3) = 0.5 ln(4/3)
        val = metrics.kl_divergence_batch([[0.5, 0.5]], [[0.25, 0.75]])
        assert val[0] == pytest.approx(0.14384103622589045, abs=1e-12)

    def test_nonnegative_over_random_pairs(self):
        rng = np.random.default_rng(9)
        P = rng.dirichlet(np.ones(6), size=1000)
        Q = rng.dirichlet(np.ones(6), size=1000)
        assert np.all(metrics.kl_divergence_batch(P, Q) >= -1e-12)

    def test_batch_matches_one_row_cases(self):
        rng = np.random.default_rng(10)
        P = rng.dirichlet(np.ones(4), size=15)
        Q = rng.dirichlet(np.ones(4), size=15)
        batch = metrics.kl_divergence_batch(P, Q)
        singles = [metrics.kl_divergence_batch(P[i : i + 1], Q[i : i + 1])[0] for i in range(15)]
        assert batch.tolist() == singles
