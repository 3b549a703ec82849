"""Compression operations over dense classifier models.

Three families are supported, each producing a ``CompressedModel`` whose
weights exactly satisfy its family's recorded constraint (``constraints``):

- magnitude pruning: the globally smallest-magnitude weights are zeroed
  and masked (biases are never pruned);
- symmetric int8 quantization: per-matrix scale s = max|w| / 127, weights
  stored dequantized as q * s;
- weight clustering: per-matrix 1-D k-means with shared centroid values.

Each function only compresses; ``finetune_compressed`` then trains any of
them under its constraint, which for a freshly quantized model is
quantization-aware training (QAT) of its float weights.

``degree_tag`` orders models within one family by compression strength:
pruning uses the sparsity percentage (60 < 70 < 80 < 90), quantization is
pinned at 8, and clustering maps the cluster count N to 100 / N so that
fewer clusters means a higher degree (16 < 8 < 4).
"""

from dataclasses import dataclass

import numpy as np

from . import nn
from .constraints import Clustered, Pruned, Quantized, fake_quantize
from .errors import InputError, TrainingError


@dataclass
class CompressedModel:
    """A model together with the constraint its compression imposed."""

    model: nn.FcnModel
    constraint: Pruned | Clustered | Quantized
    degree_tag: float

    @property
    def family(self) -> str:
        return self.constraint.family

    @property
    def order_key(self) -> tuple[str, float]:
        return (self.family, self.degree_tag)

    def verify(self) -> bool:
        """Exact re-check of the constraint against the weights."""
        return self.constraint.check(self.model.weights)


def degree(family: str, parameter=None) -> float:
    """The ``degree_tag`` of a ``family`` model given its sparsity or cluster count."""
    if family == "prune":
        return parameter * 100.0
    return 8.0 if family == "quant" else 100.0 / parameter


def _require_finite(model: nn.FcnModel):
    for w in model.weights:
        if not np.all(np.isfinite(w)):
            raise InputError("model weights contain non-finite values")


def prune_l1(model: nn.FcnModel, sparsity: float) -> CompressedModel:
    """Zero the fraction ``sparsity`` of smallest-magnitude weights.

    Ranking is global across all weight matrices. Exactly
    floor(sparsity * P) weights are zeroed; biases are untouched. The
    keep-mask is recorded.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise InputError("sparsity must be in [0, 1]")
    _require_finite(model)
    new = model.copy()
    masks = []
    flat = np.concatenate([np.abs(w).ravel() for w in new.weights])
    k = int(np.floor(sparsity * flat.size))
    drop = np.zeros(flat.size, dtype=bool)
    if k > 0:
        drop[np.argsort(flat, kind="stable")[:k]] = True
    offset = 0
    for w in new.weights:
        m = ~drop[offset : offset + w.size].reshape(w.shape)
        w[~m] = 0.0
        masks.append(m)
        offset += w.size
    return CompressedModel(new, Pruned(masks), degree("prune", sparsity))


def quantize_int8(model: nn.FcnModel) -> CompressedModel:
    """Symmetric per-matrix int8 quantization: snap the weights onto the grid.

    An all-zero matrix keeps the degenerate scale 1 and stays zero. The
    input's weight arrays (not copies) become the constraint's latents, the
    floats that ``finetune_compressed`` then trains (QAT). Non-finite
    weights raise InputError, as in ``prune_l1``.
    """
    _require_finite(model)
    snapped = [fake_quantize(w) for w in model.weights]
    new = model.copy()
    new.weights = [w for w, _ in snapped]
    return CompressedModel(new, Quantized([s for _, s in snapped], list(model.weights)),
                           degree("quant"))


def kmeans_1d(
    values: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-8,
):
    """Lloyd's algorithm on a 1-D array with k-means++ style seeding.

    Returns (centroids, assignment, inertia_history). The history is the
    within-cluster sum of squares after each Lloyd iteration and is
    non-increasing. Empty clusters keep their previous centroid. Each value
    goes to the center at the least ``|x - c|``; a tie goes to the lowest
    center index, as with ``np.argmin`` over all distances. The values must
    be finite and at least one.
    """
    x = np.asarray(values, dtype=float).ravel()
    if n_clusters < 1:
        raise InputError("n_clusters must be >= 1")
    if x.size == 0:
        raise InputError("k-means needs at least one value")
    if not np.all(np.isfinite(x)):
        raise InputError("k-means values must be finite")
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
    buffers = (np.empty(x.size, dtype=np.int64), np.empty(x.size), np.empty(x.size),
               np.empty(x.size, dtype=np.int64))
    history = []
    prev = np.inf
    for _ in range(max_iter):
        assign = _nearest(x, centers, *buffers)
        counts = np.bincount(assign, minlength=k)
        sums = np.bincount(assign, weights=x, minlength=k)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty]
        inertia = float(np.sum((x - centers[assign]) ** 2))
        history.append(inertia)
        if prev - inertia <= tol:
            break
        prev = inertia
    return centers, _nearest(x, centers, *buffers), history


def _nearest(x, centers, assign, best, dist, closer):
    """Each value's nearest center into ``assign``, by a running first minimum.

    Center j takes a value only where ``|x - c_j|`` is strictly below the
    best distance so far, so a tie keeps the lower index. As j only grows,
    taking is ``assign = max(assign, j * closer)``: every step is a whole-
    array operation, with no masked copy, which on values in random order
    costs some 20 times as much. ``best``, ``dist`` (float) and ``closer``
    (integer) are scratch buffers of x's size; no n x k matrix is built.
    """
    assign.fill(0)
    np.subtract(x, centers[0], out=best)
    np.abs(best, out=best)
    for j in range(1, centers.size):
        np.subtract(x, centers[j], out=dist)
        np.abs(dist, out=dist)
        np.less(dist, best, out=closer)
        closer *= j
        np.maximum(assign, closer, out=assign)
        np.minimum(best, dist, out=best)
    return assign


def cluster_weights(model: nn.FcnModel, n_clusters: int, seed: int = 0) -> CompressedModel:
    """Replace every weight matrix by at most ``n_clusters`` shared values.

    Each matrix is clustered independently; every weight is assigned its
    centroid value and the assignment is recorded so fine-tuning can move
    cluster members together.
    """
    if n_clusters < 1:
        raise InputError("n_clusters must be >= 1")
    new = model.copy()
    assignments, centroids = [], []
    seeds = np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF).spawn(len(new.weights))
    for l, w in enumerate(new.weights):
        cent, assign, _ = kmeans_1d(w.ravel(), n_clusters, seed=seeds[l])
        new.weights[l] = cent[assign].reshape(w.shape)
        assignments.append(assign)
        centroids.append(cent)
    return CompressedModel(new, Clustered(assignments, centroids), degree("cluster", n_clusters))


def finetune_compressed(
    cm: CompressedModel,
    train_set,
    valid_set,
    config: nn.TrainConfig,
    dp: nn.DpConfig | None = None,
) -> CompressedModel:
    """Fine-tune under the model's constraint and refresh the constraint.

    Delegates to the training engine (DP-SGD when ``dp`` is given, so a
    privately trained model is not un-defended by its fine-tuning stage).
    Pruned positions stay exactly zero, clustered layers move
    centroid-wise (gradient of a centroid is the sum over its member
    weights), and quantized layers train float latents through fake
    quantization and are snapped again onto their own scales, as
    ``quantize_int8`` snaps a float model.
    """
    if not cm.verify():
        raise InputError("compressed model violates its constraint")
    if dp is None:
        trained = nn.train(cm.model, train_set, valid_set, config, constraint=cm.constraint)
    else:
        trained = nn.train_dpsgd(cm.model, train_set, config, dp, constraint=cm.constraint)
    trained.weights, constraint = cm.constraint.refreshed(trained.weights)
    out = CompressedModel(trained, constraint, cm.degree_tag)
    if not out.verify():
        raise TrainingError("constraint violated after fine-tuning")
    return out
