"""Checkpoint format for models, constraints, and meta-classifiers.

One stable on-disk representation: UTF-8 JSON with sorted keys and compact
separators. Arrays are nested row-major lists; floats use Python's repr,
which round-trips exactly, so a reloaded checkpoint is bit-identical to
the saved object and repeated saves of the same object produce identical
bytes.

Model layout (version 2)::

    {"format": "compaudit-checkpoint", "version": 2, "kind": "fcn",
     "layer_sizes": [...], "weights": [[[...]]], "biases": [[...]],
     "dropout_rates": [...],
     "constraint": null | {"kind": ..., family-specific fields},
     "family": null | str, "degree_tag": null | float}

The constraint's ``kind`` picks its class from ``constraints.KINDS``, and
the class reads its own fields, given the weight shapes, and names its
``family``; a stored family that is not the class's is rejected. Two
fields hold one base64 text per weight matrix instead of a list:

- ``prune_mask``'s ``masks``: ``np.packbits`` of the row-major keep-mask,
  1 for a kept weight, the last byte's pad bits zero;
- ``cluster_assignment``'s ``assignments``: the row-major centroid index
  of each weight as little-endian unsigned integers of the narrowest width
  that holds the layer's centroid count (one byte up to 256 centroids).

A text that is not canonical base64, decodes to a byte count that does not
fit its matrix, has non-zero pad bits, or names a centroid the layer does
not have is rejected. Centroids, int8 scales, weights and biases stay
lists. Version 1 stored masks and assignments as lists; its files are
rejected.

Classifier layout: {"format": ..., "version": 2, "kind": "lr"|"rf"|"mlp",
parameter fields}. A forest stores "n_features" and "trees", one object
per tree holding the five flat node arrays of ``meta.Tree``::

    {"feature": [...], "threshold": [...], "left": [...], "right": [...],
     "value": [...]}

A forest's bags are not stored, so a loaded forest scores rows but gives
no out-of-bag scores.

Every file is written atomically by ``write_json``. A compressed model's
weights hold few distinct values: at most 255 on the int8 grid, one per
centroid when clustered, and many zeros when pruned. ``save_model``
therefore has ``write_json`` format each distinct value once, and +0.0
as ``0``: arrays are read as float, so ``0`` and ``0.0`` load the same bits.
"""

import json
import os
from pathlib import Path

import numpy as np

from .compress import CompressedModel
from .constraints import KINDS
from .errors import CheckpointError, InputError
from .meta import TREE_DTYPES, LogisticMeta, MlpMeta, RandomForestMeta, Tree
from .nn import FcnModel

FORMAT = "compaudit-checkpoint"
VERSION = 2


def write_json(payload, path, few_values: bool = False):
    """Write ``payload`` as sorted-key compact JSON, replacing ``path`` atomically.

    Numpy arrays may stand anywhere in the payload, and the bytes are those
    of ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` with each
    array replaced by its ``tolist()``. The text is streamed: each array and
    each subtree that holds none is encoded alone by the C encoder, so the
    lists and text of the whole payload are never built at once. The bytes
    go to ``<name>.tmp``, which no ``*.json`` glob matches, and replace the
    target only when complete. A payload that fails to encode fails
    mid-write, and like an interrupted write it never leaves a truncated
    file under the final name or disturbs the previous one.

    With ``few_values``, each array's text is put together from one
    formatted text per distinct value (see ``_few_values_text``), which
    pays when the values repeat; the bytes are the plain encoder's but +0.0 is ``0``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _encode(payload, fh.write, few_values)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _few_values_text(a: np.ndarray) -> str:
    """``_dumps(a.tolist())`` of a numeric array, formatting each distinct value once.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own
    text; ``json`` writes the distinct values, non-finite ones included,
    and their texts are gathered back into the array's nesting. A float
    array's +0.0 is ``0``; -0.0 stays ``-0.0``, as JSON ``-0`` reads as 0.
    """
    if a.dtype.kind not in "biuf" or a.ndim == 0 or a.size == 0:
        return _dumps(a.tolist())
    bits, index = np.unique(a.view(f"u{a.itemsize}"), return_inverse=True)
    texts = np.array(_dumps(bits.view(a.dtype).tolist())[1:-1].split(","), dtype=object)
    if a.dtype.kind == "f" and bits[0] == 0:  # +0.0 sorts first; JSON 0 reads back as it
        texts[0] = "0"
    items = texts[index.ravel()].tolist()
    for width in reversed(a.shape):  # join the innermost axis first
        items = ["[" + ",".join(items[i : i + width]) + "]" for i in range(0, len(items), width)]
    return items[0]


def _holds_array(value) -> bool:
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return False
    return any(_holds_array(v) for v in value)


def _encode(value, write, few_values):
    """Write ``value``'s text piece by piece, descending only where arrays are."""
    if isinstance(value, np.ndarray):
        write(_few_values_text(value) if few_values else _dumps(value.tolist()))
    elif not _holds_array(value):
        write(_dumps(value))
    elif isinstance(value, dict):
        sep = "{"
        for key, item in sorted(value.items()):
            write(sep + _dumps({key: 0})[1:-2])  # the key and its colon, as json writes them
            _encode(item, write, few_values)
            sep = ","
        write("}")
    else:
        sep = "["
        for item in value:
            write(sep)
            _encode(item, write, few_values)
            sep = ","
        write("]")


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
        raise CheckpointError(f"{path}: unsupported version {payload.get('version')!r} "
                              f"(this release reads version {VERSION})")
    return payload


def save_model(path, model: FcnModel | CompressedModel):
    """Write a plain or compressed model checkpoint."""
    constraint, family, degree = None, None, None
    if isinstance(model, CompressedModel):
        c = model.constraint
        constraint, family, degree = {"kind": c.kind, **c.fields()}, c.family, model.degree_tag
        model = model.model
    write_json(
        {
            "format": FORMAT,
            "version": VERSION,
            "kind": "fcn",
            "layer_sizes": list(model.layer_sizes),
            "weights": model.weights,
            "biases": model.biases,
            "dropout_rates": [float(p) for p in model.dropout_rates],
            "constraint": constraint,
            "family": family,
            "degree_tag": degree,
        },
        path,
        few_values=constraint is not None,
    )


def load_model(path) -> FcnModel | CompressedModel:
    """Read a model checkpoint; returns a CompressedModel when constrained.

    A missing or malformed field, the constraint's included, dropout rates
    that are not one number per hidden layer, a weight or bias that is not
    finite, or weights that break the constraint raise CheckpointError.
    """
    d = _load(path)
    if d.get("kind") != "fcn":
        raise CheckpointError(f"{path}: not a model checkpoint")
    try:
        rates = d["dropout_rates"]
        if not (isinstance(rates, list) and len(rates) == len(d["layer_sizes"]) - 2
                and all(type(p) in (int, float) for p in rates)):
            raise ValueError("dropout_rates is not one number per hidden layer")
        model = FcnModel(
            [int(s) for s in d["layer_sizes"]],
            [np.asarray(w, dtype=float) for w in d["weights"]],
            [np.asarray(b, dtype=float) for b in d["biases"]],
            [float(p) for p in rates],
        )
        if not all(np.all(np.isfinite(a)) for a in model.weights + model.biases):
            raise ValueError("non-finite weights or biases")
        c = d.get("constraint")
        if c is None:
            if (d["family"], d["degree_tag"]) != (None, None):
                raise ValueError("a family or degree tag without a constraint")
            return model
        constraint = KINDS[c["kind"]].from_fields(c, [w.shape for w in model.weights])
        if d["family"] != constraint.family:
            raise ValueError(f"family {d['family']!r} with constraint kind {constraint.kind!r}")
        compressed = CompressedModel(model, constraint, float(d["degree_tag"]))
        if not compressed.verify():
            raise ValueError(f"weights that break the {constraint.family} constraint")
        return compressed
    except (KeyError, IndexError, TypeError, ValueError, InputError) as exc:
        raise CheckpointError(f"{path}: malformed model ({exc!r})") from None


def _tree(d: dict, n_features: int) -> Tree:
    """A forest tree from its checkpoint arrays; inconsistent arrays raise ValueError.

    Children must come after their parent, as in preorder, so a walk from
    the root always ends at a leaf.
    """
    tree = Tree(**{k: np.asarray(d[k], dtype=dt) for k, dt in TREE_DTYPES.items()})
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
        base |= {"weights": clf.weights, "bias": clf.bias}
    elif isinstance(clf, MlpMeta):
        base |= {"W1": clf.W1, "b1": clf.b1, "w2": clf.w2, "b2": clf.b2,
                 "mean": clf.mean, "std": clf.std}
    elif isinstance(clf, RandomForestMeta):
        base |= {"n_features": clf.n_features, "trees": [t._asdict() for t in clf.trees]}
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
            return RandomForestMeta(trees, n_features, d["seed"])
    except (KeyError, TypeError, ValueError, InputError) as exc:
        raise CheckpointError(f"{path}: malformed {kind} classifier ({exc!r})") from None
    raise CheckpointError(f"{path}: unknown classifier kind {kind!r}")
