"""Checkpoint format for models, constraints, and meta-classifiers.

One stable on-disk representation: UTF-8 JSON with sorted keys and compact
separators. Arrays are nested row-major lists; floats use Python's repr,
which round-trips exactly, so a reloaded checkpoint is bit-identical to
the saved object and repeated saves of the same object produce identical
bytes.

Model layout (version 1)::

    {"format": "compaudit-checkpoint", "version": 1, "kind": "fcn",
     "layer_sizes": [...], "weights": [[[...]]], "biases": [[...]],
     "dropout_rates": [...],
     "constraint": null | {"kind": ..., family-specific fields},
     "family": null | str, "degree_tag": null | float}

Classifier layout: {"format": ..., "version": 1, "kind": "lr"|"rf"|"mlp",
parameter fields}. A forest stores "n_features", "bootstrap" and "trees",
one object per tree holding the five flat node arrays of ``meta.Tree``::

    {"feature": [...], "threshold": [...], "left": [...], "right": [...],
     "value": [...]}

Every file is written atomically by ``write_json``.
"""

import json
import os
from pathlib import Path

import numpy as np

from .compress import CompressedModel
from .constraints import CLUSTER, PRUNE, QUANT, CompressionConstraint
from .errors import CheckpointError
from .meta import LogisticMeta, MlpMeta, RandomForestMeta, Tree
from .nn import FcnModel

FORMAT = "compaudit-checkpoint"
VERSION = 1


def write_json(payload, path):
    """Write ``payload`` as sorted-key compact JSON, replacing ``path`` atomically.

    The bytes go to ``<name>.tmp``, which no ``*.json`` glob matches, and
    replace the target only when complete, so an interrupted write never
    leaves a truncated file under the final name.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path):
    """Parse a JSON file; malformed content raises CheckpointError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"{path}: malformed JSON ({exc})") from None


def _load(path) -> dict:
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if payload.get("version") != VERSION:
        raise CheckpointError(f"{path}: unsupported version {payload.get('version')}")
    return payload


def _constraint_to_dict(c: CompressionConstraint | None):
    if c is None:
        return None
    if c.kind == PRUNE:
        return {"kind": c.kind, "masks": [m.astype(int).tolist() for m in c.prune_masks]}
    if c.kind == CLUSTER:
        return {
            "kind": c.kind,
            "assignments": [a.tolist() for a in c.cluster_assignments],
            "centroids": [cent.tolist() for cent in c.cluster_centroids],
        }
    return {"kind": c.kind, "scales": [float(s) for s in c.quant_scales]}


def _constraint_from_dict(d) -> CompressionConstraint | None:
    if d is None:
        return None
    kind = d["kind"]
    if kind == PRUNE:
        return CompressionConstraint(
            kind=PRUNE, prune_masks=[np.asarray(m, dtype=bool) for m in d["masks"]]
        )
    if kind == CLUSTER:
        return CompressionConstraint(
            kind=CLUSTER,
            cluster_assignments=[np.asarray(a, dtype=np.int64) for a in d["assignments"]],
            cluster_centroids=[np.asarray(c, dtype=float) for c in d["centroids"]],
        )
    if kind == QUANT:
        return CompressionConstraint(kind=QUANT, quant_scales=[float(s) for s in d["scales"]])
    raise CheckpointError(f"unknown constraint kind {kind!r}")


def save_model(path, model: FcnModel | CompressedModel):
    """Write a plain or compressed model checkpoint."""
    constraint, family, degree = None, None, None
    if isinstance(model, CompressedModel):
        constraint, family, degree = model.constraint, model.family, model.degree_tag
        model = model.model
    write_json(
        {
            "format": FORMAT,
            "version": VERSION,
            "kind": "fcn",
            "layer_sizes": list(model.layer_sizes),
            "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases],
            "dropout_rates": [float(p) for p in model.dropout_rates],
            "constraint": _constraint_to_dict(constraint),
            "family": family,
            "degree_tag": degree,
        },
        path,
    )


def load_model(path) -> FcnModel | CompressedModel:
    """Read a model checkpoint; returns a CompressedModel when constrained.

    A missing or malformed field, the constraint's included, raises
    CheckpointError.
    """
    d = _load(path)
    if d.get("kind") != "fcn":
        raise CheckpointError(f"{path}: not a model checkpoint")
    try:
        model = FcnModel(
            [int(s) for s in d["layer_sizes"]],
            [np.asarray(w, dtype=float) for w in d["weights"]],
            [np.asarray(b, dtype=float) for b in d["biases"]],
            [float(p) for p in d["dropout_rates"]],
        )
        constraint = _constraint_from_dict(d.get("constraint"))
        if constraint is None:
            return model
        return CompressedModel(model, constraint, d["family"], float(d["degree_tag"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed model ({exc!r})") from None


_TREE_DTYPES = {"feature": np.int64, "threshold": float, "left": np.int64, "right": np.int64,
                "value": float}


def _tree(d: dict, n_features: int) -> Tree:
    """A forest tree from its checkpoint arrays; inconsistent arrays raise ValueError.

    Children must come after their parent, as in preorder, so a walk from
    the root always ends at a leaf.
    """
    tree = Tree(**{k: np.asarray(d[k], dtype=dt) for k, dt in _TREE_DTYPES.items()})
    n = tree.value.shape[0]
    if n == 0 or any(a.shape != (n,) for a in tree):
        raise ValueError("tree arrays differ in length")
    inner = tree.left >= 0
    after = np.arange(n)[inner]
    if not (
        np.array_equal(inner, tree.right >= 0)
        and np.all((tree.left[inner] > after) & (tree.right[inner] > after))
        and np.all((tree.left < n) & (tree.right < n))
        and np.all((tree.feature[inner] >= 0) & (tree.feature[inner] < n_features))
        and np.all((tree.value >= 0.0) & (tree.value <= 1.0))
    ):
        raise ValueError("inconsistent tree arrays")
    return tree


def save_classifier(path, clf):
    """Write a meta-classifier checkpoint."""
    base = {"format": FORMAT, "version": VERSION, "kind": clf.kind, "seed": clf.seed}
    if isinstance(clf, LogisticMeta):
        base |= {"weights": clf.weights.tolist(), "bias": clf.bias}
    elif isinstance(clf, MlpMeta):
        base |= {
            "W1": clf.W1.tolist(),
            "b1": clf.b1.tolist(),
            "w2": clf.w2.tolist(),
            "b2": clf.b2,
            "mean": clf.mean.tolist(),
            "std": clf.std.tolist(),
        }
    elif isinstance(clf, RandomForestMeta):
        base |= {
            "n_features": clf.n_features,
            "bootstrap": clf.bootstrap,
            "trees": [{k: a.tolist() for k, a in t._asdict().items()} for t in clf.trees],
        }
    else:
        raise CheckpointError(f"cannot serialize classifier of type {type(clf).__name__}")
    write_json(base, path)


def load_classifier(path):
    """Read a meta-classifier checkpoint; a missing or malformed field raises CheckpointError."""
    d = _load(path)
    kind = d.get("kind")
    try:
        if kind == "lr":
            return LogisticMeta(np.asarray(d["weights"], dtype=float), d["bias"], d["seed"])
        if kind == "mlp":
            return MlpMeta(
                np.asarray(d["W1"], dtype=float),
                np.asarray(d["b1"], dtype=float),
                np.asarray(d["w2"], dtype=float),
                d["b2"],
                d["seed"],
                mean=np.asarray(d["mean"], dtype=float),
                std=np.asarray(d["std"], dtype=float),
            )
        if kind == "rf":
            n_features = int(d["n_features"])
            trees = [_tree(t, n_features) for t in d["trees"]]
            return RandomForestMeta(trees, n_features, d["seed"], bool(d.get("bootstrap", True)))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed {kind} classifier ({exc!r})") from None
    raise CheckpointError(f"{path}: unknown classifier kind {kind!r}")
