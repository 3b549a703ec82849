"""Attack evaluation metrics.

All metrics consume an ``AttackScoreSet``: paired member / non-member
score lists where larger scores mean "more member-like". Balanced
accuracy thresholds the scores (ties count as member), AUC is the
pairwise Mann-Whitney statistic with half-credit for ties, and TPR at a
low FPR cap is evaluated on the empirical ROC without interpolation.
Logs are natural throughout the package, so every entropy-like quantity
is in nats.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InputError

KL_CLAMP = 1e-12


@dataclass
class AttackScoreSet:
    """Member and non-member scores plus the attack's decision threshold."""

    member_scores: np.ndarray
    nonmember_scores: np.ndarray
    decision_threshold: float = 0.5

    def __post_init__(self):
        self.member_scores = np.asarray(self.member_scores, dtype=float).ravel()
        self.nonmember_scores = np.asarray(self.nonmember_scores, dtype=float).ravel()
        if not (
            np.all(np.isfinite(self.member_scores))
            and np.all(np.isfinite(self.nonmember_scores))
        ):
            raise InputError("attack scores must be finite")

    def require_nonempty(self):
        if self.member_scores.size == 0 or self.nonmember_scores.size == 0:
            raise InputError("metric computation needs non-empty member and non-member scores")


def balanced_accuracy(scores: AttackScoreSet, threshold: float | None = None) -> float:
    """(TPR + TNR) / 2 at the threshold; score >= threshold predicts member."""
    scores.require_nonempty()
    t = scores.decision_threshold if threshold is None else threshold
    tpr = float(np.mean(scores.member_scores >= t))
    tnr = float(np.mean(scores.nonmember_scores < t))
    return 0.5 * (tpr + tnr)


def roc_auc(scores: AttackScoreSet) -> float:
    """Mann-Whitney AUC: mean over pairs of [m > n] + 0.5 [m = n]."""
    scores.require_nonempty()
    m, n = scores.member_scores, scores.nonmember_scores
    both = np.concatenate([m, n])
    _, inverse, counts = np.unique(both, return_inverse=True, return_counts=True)
    csum = np.cumsum(counts)
    avg_rank = csum - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    rank_sum = float(np.sum(ranks[: m.size]))
    return (rank_sum - m.size * (m.size + 1) / 2.0) / (m.size * n.size)


@dataclass
class RocCurve:
    """Empirical ROC as (threshold, fpr, tpr) triples.

    Thresholds run from +inf down to -inf; a point's TPR/FPR are the
    fractions of member/non-member scores at or above that threshold, so
    the curve starts at (0, 0) and ends at (1, 1) and both coordinates are
    non-decreasing.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray


def roc_curve(scores: AttackScoreSet) -> RocCurve:
    scores.require_nonempty()
    m = np.sort(scores.member_scores)
    n = np.sort(scores.nonmember_scores)
    cuts = np.unique(np.concatenate([m, n]))[::-1]
    thresholds = np.concatenate([[np.inf], cuts, [-np.inf]])
    tpr_mid = (m.size - np.searchsorted(m, cuts, side="left")) / m.size
    fpr_mid = (n.size - np.searchsorted(n, cuts, side="left")) / n.size
    tpr = np.concatenate([[0.0], tpr_mid, [1.0]])
    fpr = np.concatenate([[0.0], fpr_mid, [1.0]])
    return RocCurve(thresholds, fpr, tpr)


def tpr_at_fpr(scores: AttackScoreSet, fpr_cap: float) -> float:
    """Max TPR over thresholds whose FPR does not exceed the cap.

    Pure step-function evaluation on the empirical ROC; no interpolation
    toward unobservable operating points.
    """
    if fpr_cap < 0:
        raise InputError("fpr_cap must be non-negative")
    curve = roc_curve(scores)
    ok = curve.fpr <= fpr_cap
    return float(np.max(curve.tpr[ok]))


def small_sample_flag(scores: AttackScoreSet, fpr_cap: float) -> bool:
    """True when there are fewer non-members than 1 / fpr_cap."""
    if fpr_cap <= 0:
        return True
    return scores.nonmember_scores.size * fpr_cap < 1.0


def kl_divergence_batch(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise KL divergence sum p * log(p / q) in nats, both clamped to 1e-12."""
    P = np.maximum(np.asarray(P, dtype=float), KL_CLAMP)
    Q = np.maximum(np.asarray(Q, dtype=float), KL_CLAMP)
    if P.shape != Q.shape:
        raise InputError("posterior batches must have equal shape")
    return np.sum(P * np.log(P / Q), axis=1)


def export_roc_csv(curve: RocCurve, path):
    """Write the curve as CSV rows of (threshold, fpr, tpr)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for t, f, tp in zip(curve.thresholds, curve.fpr, curve.tpr):
            writer.writerow([repr(float(t)), repr(float(f)), repr(float(tp))])
