"""Membership attack builders and runners.

Three attack families, all black-box over posterior vectors:

- single-model attacks ("NR"): threshold attacks on per-sample loss or
  modified entropy, and shadow-trained meta-classifiers over sorted
  posteriors with or without the one-hot label;
- paired-reference attacks ("SR"): a meta-classifier over the original
  model's posterior paired with one compressed model's posterior for the
  same sample, capturing how compression shifts members differently from
  non-members;
- multi-reference attacks ("MR"): per-compression-level SR meta-classifier
  probabilities (adversary 1) or compressed posteriors aligned to the
  least-compressed model's descending class order (adversary 2),
  concatenated with a per-level cross-entropy loss vector, stacked and fed
  to MLP meta-classifiers. Adversary 1, who can query the original
  model, appends the original model's loss to that vector.

Every runner trains on the shadow world and scores the victim world;
membership ground truth comes exclusively from the split plan. Attack
scores live in [0, 1]; metric attacks expose exp(-metric) so thresholds
carry over monotonically, and their score set's ``decision_threshold``
makes a metric equal to the calibrated tau a non-member.
"""

from enum import Enum

import numpy as np

from . import meta, nn
from .compress import CompressedModel
from .data import SplitPlan, TabularDataset
from .errors import ConfigError, InputError, OrderingError, ShapeError
from .metrics import AttackScoreSet


class SrConstruction(Enum):
    """Feature layouts for paired original/compressed meta-data."""

    SORTED_CONCAT = "sorted_concat"              # method 1: pi(p_o) || pi(p_c)
    SORTED_CONCAT_LABEL = "sorted_concat_label"  # method 2: ... || one_hot(y)
    DIRECT_CONCAT_LABEL = "direct_concat_label"  # p_o || p_c || one_hot(y), unsorted
    L2_DISTANCE_LABEL = "l2_distance_label"      # ||p_o - p_c||_2 || one_hot(y)


def _posteriors(model, X: np.ndarray) -> np.ndarray:
    fcn = model.model if isinstance(model, CompressedModel) else model
    return nn.forward(fcn, X)


def modified_entropy(posteriors: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mentr(p, y) = -(1 - p_y) log p_y - sum_{k != y} p_k log(1 - p_k).

    Zero exactly when the posterior is one-hot at the true label;
    non-negative everywhere. Logs are clamped at 1e-12.
    """
    P = np.asarray(posteriors, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if P.ndim != 2 or labels.shape != (P.shape[0],):
        raise ShapeError("posteriors (n, C) and labels (n,) expected")
    idx = np.arange(P.shape[0])
    p_y = P[idx, labels]
    log_p = np.log(np.maximum(P, nn.LOSS_CLAMP))
    log_1mp = np.log(np.maximum(1.0 - P, nn.LOSS_CLAMP))
    total = np.sum(P * log_1mp, axis=1) - p_y * log_1mp[idx, labels]
    return -(1.0 - p_y) * log_p[idx, labels] - total


def calibrate_threshold(member_values: np.ndarray, nonmember_values: np.ndarray) -> float:
    """Threshold maximizing balanced accuracy of "member iff value < tau".

    Every midpoint of the sorted distinct values is a candidate, and ties
    go to the smallest. Binary searches in the sorted populations count
    the members below each candidate and the non-members at or above it;
    the balanced accuracy is half the sum of those two fractions. Both
    populations must be non-empty and finite.
    """
    mv = np.asarray(member_values, dtype=float).ravel()
    nv = np.asarray(nonmember_values, dtype=float).ravel()
    if mv.size == 0 or nv.size == 0:
        raise InputError("calibration needs both populations")
    if not (np.all(np.isfinite(mv)) and np.all(np.isfinite(nv))):
        raise InputError("calibration values must be finite")
    uniq = np.unique(np.concatenate([mv, nv]))
    if uniq.size == 1:
        return float(uniq[0])
    candidates = (uniq[1:] + uniq[:-1]) / 2.0
    members_below = np.searchsorted(np.sort(mv), candidates)
    nonmembers_above = nv.size - np.searchsorted(np.sort(nv), candidates)
    ba = 0.5 * (members_below / mv.size + nonmembers_above / nv.size)
    return float(candidates[np.argmax(ba)])


def build_nr_metadata_batch(posteriors, labels, with_label: bool) -> np.ndarray:
    """Descending-sorted posterior rows, optionally followed by the one-hot labels."""
    P = np.asarray(posteriors, dtype=float)
    if P.ndim != 2:
        raise ShapeError("posteriors must be an (n, C) matrix")
    out = -np.sort(-P, axis=1)
    if with_label:
        if labels is None:
            raise InputError("labels required when with_label is set")
        out = np.concatenate([out, nn.one_hot(np.asarray(labels), P.shape[1])], axis=1)
    return out


def build_sr_metadata_batch(P_o, P_c, labels, method: SrConstruction) -> np.ndarray:
    """Paired-posterior feature rows, one per row of P_o and P_c.

    Sorted constructions order each original posterior descending and
    apply the same permutation to the compressed posterior, so matched
    classes stay aligned across the two halves. The L2 distance is taken
    row by row, because a row's norm and a norm over axis 1 can differ in
    the last bit.
    """
    P_o = np.asarray(P_o, dtype=float)
    P_c = np.asarray(P_c, dtype=float)
    if P_o.shape != P_c.shape or P_o.ndim != 2:
        raise ShapeError("paired posteriors must have equal (n, C) shapes")
    needs_label = method is not SrConstruction.SORTED_CONCAT
    if needs_label and labels is None:
        raise InputError(f"{method.value} requires the ground-truth label")
    if method in (SrConstruction.SORTED_CONCAT, SrConstruction.SORTED_CONCAT_LABEL):
        pi = np.argsort(-P_o, axis=1, kind="stable")
        parts = [np.take_along_axis(P_o, pi, axis=1), np.take_along_axis(P_c, pi, axis=1)]
    elif method is SrConstruction.DIRECT_CONCAT_LABEL:
        parts = [P_o, P_c]
    else:
        parts = [np.array([np.linalg.norm(o - c) for o, c in zip(P_o, P_c)])[:, None]]
    if needs_label:
        parts.append(nn.one_hot(np.asarray(labels, dtype=np.int64), P_o.shape[1]))
    return np.concatenate(parts, axis=1)


def shuffled_score_set(scores: AttackScoreSet, seed: int = 0) -> AttackScoreSet:
    """Pool all scores and reassign membership at random (null control)."""
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    pooled = np.concatenate([scores.member_scores, scores.nonmember_scores])
    perm = rng.permutation(pooled.size)
    m = scores.member_scores.size
    return AttackScoreSet(
        pooled[perm[:m]], pooled[perm[m:]], decision_threshold=scores.decision_threshold
    )


# ---------------------------------------------------------------------------
# attack runners


def run_nr_metric(
    dataset: TabularDataset,
    splits: SplitPlan,
    victim_model,
    shadow_model,
    metric: str = "loss",
) -> tuple[float, AttackScoreSet]:
    """Threshold attack on loss or modified entropy.

    The threshold is calibrated on the shadow model's member/non-member
    metric values, then applied to the victim model. Scores are
    exp(-metric value), so the strict "metric < tau" rule becomes
    "score >= nextafter(exp(-tau))". Returns (tau, score set).
    """
    if metric not in ("loss", "mentr"):
        raise ConfigError(f"unknown metric {metric!r}")

    def values(model, idx):
        X, y = dataset.xy(idx)
        P = _posteriors(model, X)
        if metric == "loss":
            return nn.cross_entropy_losses(P, y)
        return modified_entropy(P, y)

    tau = calibrate_threshold(
        values(shadow_model, splits.shadow_train), values(shadow_model, splits.shadow_test)
    )
    member = np.exp(-values(victim_model, splits.victim_train))
    nonmember = np.exp(-values(victim_model, splits.victim_test))
    threshold = float(np.nextafter(np.exp(-tau), np.inf))
    return tau, AttackScoreSet(member, nonmember, decision_threshold=threshold)


def _meta_records(member: np.ndarray, nonmember: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack member and non-member feature rows into (X, y), members first."""
    X = np.concatenate([member, nonmember])
    y = np.concatenate([np.ones(len(member), np.int64), np.zeros(len(nonmember), np.int64)])
    return X, y


def run_nr_training(
    dataset: TabularDataset,
    splits: SplitPlan,
    victim_model,
    shadow_model,
    clf_kind: str = "rf",
    with_label: bool = True,
    seed: int = 0,
    hyper=None,
):
    """Shadow-trained meta-classifier over single-model posteriors.

    ``with_label`` False uses the sorted posterior alone; True appends the
    one-hot ground-truth label. Returns (classifier, score set).
    """

    def features(model, idx):
        X, y = dataset.xy(idx)
        return build_nr_metadata_batch(_posteriors(model, X), y, with_label)

    X, y = _meta_records(
        features(shadow_model, splits.shadow_train), features(shadow_model, splits.shadow_test)
    )
    clf = meta.fit(clf_kind, X, y, hyper=hyper, seed=seed)
    member = meta.score_proba(clf, features(victim_model, splits.victim_train))
    nonmember = meta.score_proba(clf, features(victim_model, splits.victim_test))
    return clf, AttackScoreSet(member, nonmember)


def _sr_features(original, compressed, dataset, idx, construction):
    X, y = dataset.xy(idx)
    P_o, P_c = _posteriors(original, X), _posteriors(compressed, X)
    return build_sr_metadata_batch(P_o, P_c, y, construction)


def fit_sr_classifier(
    dataset: TabularDataset,
    splits: SplitPlan,
    shadow_original,
    shadow_compressed,
    construction: SrConstruction,
    clf_kind: str,
    seed: int = 0,
    hyper=None,
    member_rows=None,
    nonmember_rows=None,
):
    """Train one paired-posterior meta-classifier on the shadow world.

    ``member_rows``/``nonmember_rows`` default to the full shadow split;
    passing subsets supports cross-fitted stacking.
    """
    member_rows = splits.shadow_train if member_rows is None else member_rows
    nonmember_rows = splits.shadow_test if nonmember_rows is None else nonmember_rows
    X, y = _meta_records(
        _sr_features(shadow_original, shadow_compressed, dataset, member_rows, construction),
        _sr_features(shadow_original, shadow_compressed, dataset, nonmember_rows, construction),
    )
    return meta.fit(clf_kind, X, y, hyper=hyper, seed=seed)


def run_sr(
    dataset: TabularDataset,
    splits: SplitPlan,
    victim_original,
    victim_compressed,
    shadow_original,
    shadow_compressed,
    construction: SrConstruction = SrConstruction.SORTED_CONCAT_LABEL,
    clf_kind: str = "rf",
    seed: int = 0,
    hyper=None,
):
    """Paired original/compressed attack.

    Stages: the meta-classifier is trained on shadow meta-records
    (member = shadow train rows), then victim meta-records are built by
    querying the victim pair and scored. Returns (classifier, score set).
    """
    clf = fit_sr_classifier(
        dataset, splits, shadow_original, shadow_compressed, construction, clf_kind, seed, hyper
    )
    member = meta.score_proba(
        clf, _sr_features(victim_original, victim_compressed, dataset, splits.victim_train, construction)
    )
    nonmember = meta.score_proba(
        clf, _sr_features(victim_original, victim_compressed, dataset, splits.victim_test, construction)
    )
    return clf, AttackScoreSet(member, nonmember)


# ---------------------------------------------------------------------------
# multi-reference attack


ADV1 = "adv1"
ADV2 = "adv2"

# default stacker hyperparameters per adversary: heavily regularized MLPs
# transfer from the shadow world to the victim world much better than a
# plain fit; adversary 2's n*C rank-aligned posterior columns additionally
# get feature dropout and unstandardized loss magnitudes
MR_MLP_DEFAULTS = {
    ADV1: meta.MlpHyper(epochs=1200, learning_rate=0.2, dropout=0.5),
    ADV2: meta.MlpHyper(
        standardize=False, epochs=1200, learning_rate=0.2, dropout=0.5, input_dropout=0.5
    ),
}

# adversary 1's per-level forests: a shadow row's out-of-bag probability
# averages only the ~e^-1 share of trees that left it out, so 300 trees give
# it about as many trees as the default 100-tree forest of the paired attack
MR_SR_RF = meta.RfHyper(n_trees=300)

# stacker MLPs whose scores are averaged, per adversary: adversary 1's
# per-level SR probabilities nearly repeat one another, so a single fit's
# victim decisions hinge on its initialization
MR_STACKERS = {ADV1: 3, ADV2: 1}


def _check_ascending(models: list[CompressedModel]):
    keys = [m.order_key for m in models]
    for a, b in zip(keys, keys[1:]):
        if b < a:
            raise OrderingError(f"models not in ascending compression order: {a} > {b}")


def mr_loss_concat(
    X: np.ndarray,
    labels: np.ndarray,
    compressed_models: list[CompressedModel],
    original_model=None,
) -> np.ndarray:
    """Per-model cross-entropy losses, concatenated in ascending order.

    With ``original_model`` (adversary 1) its loss is appended as a last
    column: the sorted SR features hide p_o[y], so the stacker would not
    see the original model's loss otherwise.
    """
    _check_ascending(compressed_models)
    models = list(compressed_models) + ([] if original_model is None else [original_model])
    cols = [nn.cross_entropy_losses(_posteriors(m, X), labels) for m in models]
    return np.stack(cols, axis=1)


def mr_posterior_concat(
    X: np.ndarray,
    labels: np.ndarray,
    compressed_models: list[CompressedModel],
    original_model=None,
    sr_classifiers=None,
    sr_construction: SrConstruction = SrConstruction.SORTED_CONCAT_LABEL,
) -> np.ndarray:
    """Per-level posterior features over models in ascending compression order.

    Adversary 1, who passes the original model and one SR classifier per
    compressed model: per-level SR probability pairs [1-p, p],
    concatenated. Adversary 2, who sees compressed models only: their
    posteriors, concatenated, each block permuted by the first
    (least-compressed) model's descending order, so a column means the
    same class rank in every row, as in the sorted SR constructions. Ties
    in order are allowed, so a duplicated model can serve as a control.
    """
    _check_ascending(compressed_models)
    if original_model is None:
        blocks = [_posteriors(m, X) for m in compressed_models]
        pi = np.argsort(-blocks[0], axis=1, kind="stable")
        return np.concatenate([np.take_along_axis(B, pi, axis=1) for B in blocks], axis=1)
    P_o = _posteriors(original_model, X)
    blocks = []
    for cm, clf in zip(compressed_models, sr_classifiers, strict=True):
        feats = build_sr_metadata_batch(P_o, _posteriors(cm, X), labels, sr_construction)
        blocks.append(_proba_pair(meta.score_proba(clf, feats)))
    return np.concatenate(blocks, axis=1)


def _proba_pair(p: np.ndarray) -> np.ndarray:
    return np.stack([1.0 - p, p], axis=1)


def run_mr(
    dataset: TabularDataset,
    splits: SplitPlan,
    victim_original,
    victim_compressed: list[CompressedModel],
    shadow_original,
    shadow_compressed: list[CompressedModel],
    adversary: str = ADV1,
    sr_construction: SrConstruction = SrConstruction.SORTED_CONCAT_LABEL,
    sr_clf_kind: str = "rf",
    seed: int = 0,
    sr_hyper=None,
    mlp_hyper=None,
):
    """Multi-reference attack over an ascending set of compressed models.

    Shadow phase: shadow meta-records stack the posterior concatenation
    with the loss concatenation and MLP stackers are trained on them.
    For adversary 1 the stacker sees held-out per-level SR probabilities
    on shadow rows instead of in-sample training outputs, and the loss
    vector ends with the original model's loss. With random forests these
    are the out-of-bag probabilities of the very forests that score the
    victim (``MR_SR_RF`` unless ``sr_hyper`` is given), so the stacker's
    inputs are made the same way in both phases; other classifier kinds
    are cross-fitted (each half of the shadow split is scored by a
    classifier fit on the other half). For adversary 2 every posterior
    block is aligned to the least-compressed model's descending class
    order. Victim phase: per-level SR classifiers fit on the full shadow
    world score the victim models, and the victim score is the mean of
    the ``MR_STACKERS[adversary]`` stackers, each fit from its own seed;
    everything is labeled by shadow membership, never victim labels.
    Returns (list of stacker MLPs, score set).
    """
    if adversary not in (ADV1, ADV2):
        raise ConfigError(f"unknown adversary {adversary!r}")
    if len(victim_compressed) != len(shadow_compressed):
        raise ConfigError("victim and shadow compressed model lists must align")
    if len(victim_compressed) < 2:
        raise ConfigError("multi-reference attack needs at least 2 compressed models")
    victim_compressed = [victim_compressed[i] for i in _stable_order(victim_compressed)]
    shadow_compressed = [shadow_compressed[i] for i in _stable_order(shadow_compressed)]
    for v, s in zip(victim_compressed, shadow_compressed):
        if v.order_key != s.order_key:
            raise ConfigError("victim and shadow compression degrees do not match")
    if mlp_hyper is None:
        mlp_hyper = MR_MLP_DEFAULTS.get(adversary)

    n_models = len(victim_compressed)
    seeds = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF).spawn(3 * n_models + 2)
    shadow_rows = np.concatenate([splits.shadow_train, splits.shadow_test])
    Xs, ys = dataset.xy(shadow_rows)
    if adversary == ADV1:
        if sr_clf_kind == "rf" and sr_hyper is None:
            sr_hyper = MR_SR_RF
        victim_clfs = [
            fit_sr_classifier(
                dataset, splits, shadow_original, shadow_compressed[i],
                sr_construction, sr_clf_kind, seed=_seq_int(seeds[2 * n_models + i]),
                hyper=sr_hyper,
            )
            for i in range(n_models)
        ]
        if sr_clf_kind == "rf":
            shadow_post = np.concatenate([
                _proba_pair(meta.out_of_bag_proba(
                    clf, _sr_features(shadow_original, cm, dataset, shadow_rows, sr_construction)
                ))
                for clf, cm in zip(victim_clfs, shadow_compressed)
            ], axis=1)
        else:
            shadow_post = _cross_fitted_sr_probabilities(
                dataset, splits, shadow_original, shadow_compressed,
                sr_construction, sr_clf_kind, sr_hyper, seeds,
            )
        shadow_loss = mr_loss_concat(Xs, ys, shadow_compressed, shadow_original)
    else:
        shadow_post = mr_posterior_concat(Xs, ys, shadow_compressed)
        shadow_loss = mr_loss_concat(Xs, ys, shadow_compressed)
        victim_original = victim_clfs = None  # adversary 2 never queries the original model

    shadow_feats = np.concatenate([shadow_post, shadow_loss], axis=1)
    F, y = _meta_records(
        shadow_feats[: splits.shadow_train.size], shadow_feats[splits.shadow_train.size :]
    )
    n_stackers = MR_STACKERS[adversary]
    stacker_seeds = seeds[-1].spawn(n_stackers) if n_stackers > 1 else [seeds[-1]]
    stackers = [meta.fit("mlp", F, y, hyper=mlp_hyper, seed=_seq_int(s)) for s in stacker_seeds]

    def victim_scores(idx):
        X, y = dataset.xy(idx)
        post = mr_posterior_concat(
            X, y, victim_compressed, victim_original, victim_clfs, sr_construction
        )
        loss = mr_loss_concat(X, y, victim_compressed, victim_original)
        feats = np.concatenate([post, loss], axis=1)
        return np.mean([meta.score_proba(m, feats) for m in stackers], axis=0)

    member = victim_scores(splits.victim_train)
    nonmember = victim_scores(splits.victim_test)
    return stackers, AttackScoreSet(member, nonmember)


def _cross_fitted_sr_probabilities(
    dataset, splits, shadow_original, shadow_compressed, construction, clf_kind, hyper, seeds
):
    """Per-level [1-p, p] pairs for every shadow row, scored out-of-fold.

    Shadow members and non-members are each shuffled into two halves; a
    classifier fit on one half scores the other. Row order of the result
    is shadow_train followed by shadow_test, as the split plan lists them.
    The halves are drawn over the sorted rows, so they do not depend on
    the plan's row order.
    """
    n_train, n_test = splits.shadow_train.size, splits.shadow_test.size
    if min(n_train, n_test) < 2:
        raise ConfigError("cross-fitting needs at least 2 shadow rows per class")
    rows = np.concatenate([splits.shadow_train, splits.shadow_test])
    rng = np.random.default_rng(seeds[-2])
    # folds hold positions into ``rows``; probabilities are written back by position
    pos_m = np.argsort(splits.shadow_train, kind="stable")[rng.permutation(n_train)]
    pos_n = n_train + np.argsort(splits.shadow_test, kind="stable")[rng.permutation(n_test)]
    folds = [
        (pos_m[: n_train // 2], pos_n[: n_test // 2]),
        (pos_m[n_train // 2 :], pos_n[n_test // 2 :]),
    ]
    blocks = []
    for i, cm in enumerate(shadow_compressed):
        probs = np.full(n_train + n_test, np.nan)
        for fit_fold, score_fold in ((0, 1), (1, 0)):
            clf = fit_sr_classifier(
                dataset, splits, shadow_original, cm, construction, clf_kind,
                seed=_seq_int(seeds[2 * i + fit_fold]), hyper=hyper,
                member_rows=rows[folds[fit_fold][0]], nonmember_rows=rows[folds[fit_fold][1]],
            )
            pos = np.concatenate(folds[score_fold])
            probs[pos] = meta.score_proba(
                clf, _sr_features(shadow_original, cm, dataset, rows[pos], construction)
            )
        blocks.append(_proba_pair(probs))
    return np.concatenate(blocks, axis=1)


def _stable_order(models: list[CompressedModel]) -> list[int]:
    return sorted(range(len(models)), key=lambda i: models[i].order_key)


def _seq_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, np.uint64)[0])
