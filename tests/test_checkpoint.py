"""Checkpoint round-trip and byte-stability tests."""

import base64
import dataclasses
import json
import math

import numpy as np
import pytest

from compaudit import checkpoint, compress, constraints, meta, nn
from compaudit.errors import CheckpointError


def sample_model():
    return nn.init_fcn([4, 6, 3], seed=1)


# checkpoint constraint kind -> a compression that records it
COMPRESSIONS = {
    "prune_mask": lambda m: compress.prune_l1(m, 0.5),
    "fake_quant": lambda m: compress.quantize_int8(m),
    "cluster_assignment": lambda m: compress.cluster_weights(m, 4, seed=0),
}


# a model of each kind that a checkpoint holds, by name
SAVED_MODELS = {
    "plain": lambda m: m,
    **COMPRESSIONS,
    "int8": lambda m: compress.quantize_int8(m),
    "cluster8": lambda m: compress.cluster_weights(m, 8, seed=0),
    "prune70": lambda m: compress.prune_l1(m, 0.7),
}


def packed(a: np.ndarray) -> str:
    return base64.b64encode(a.tobytes()).decode("ascii")


def stored_mask(d: dict, layer: int) -> np.ndarray:
    """A saved model's keep-mask of ``layer`` as 0/1, decoded from its JSON with numpy alone."""
    shape = np.shape(d["weights"][layer])
    bits = np.unpackbits(np.frombuffer(base64.b64decode(d["constraint"]["masks"][layer]), np.uint8))
    return bits[: math.prod(shape)].reshape(shape)


def stored_assignments(d: dict, layer: int) -> np.ndarray:
    """A saved model's one-byte assignments of ``layer`` (at most 256 centroids), writable."""
    return np.frombuffer(base64.b64decode(d["constraint"]["assignments"][layer]), "<u1").copy()


def set_assignment(d: dict, layer: int, index: int, value: int):
    a = stored_assignments(d, layer)
    a[index] = value
    d["constraint"]["assignments"][layer] = packed(a)


class TestModelCheckpoints:
    def test_round_trip_is_exact(self, tmp_path):
        m = sample_model()
        p = tmp_path / "m.json"
        checkpoint.save_model(p, m)
        loaded = checkpoint.load_model(p)
        assert loaded.layer_sizes == m.layer_sizes
        for a, b in zip(loaded.weights + loaded.biases, m.weights + m.biases):
            assert np.array_equal(a, b)

    def test_repeated_saves_byte_identical(self, tmp_path):
        m = sample_model()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        checkpoint.save_model(p1, m)
        checkpoint.save_model(p2, m)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kind", sorted(constraints.KINDS))
    def test_compressed_round_trip_keeps_constraint(self, tmp_path, kind):
        cm = COMPRESSIONS[kind](sample_model())
        assert type(cm.constraint) is constraints.KINDS[kind]
        p = tmp_path / "cm.json"
        checkpoint.save_model(p, cm)
        d = json.loads(p.read_text(encoding="utf-8"))
        assert d["constraint"]["kind"] == kind and d["family"] == cm.family
        loaded = checkpoint.load_model(p)
        assert isinstance(loaded, compress.CompressedModel)
        assert type(loaded.constraint) is constraints.KINDS[kind]
        assert (json.dumps(loaded.constraint.fields(), default=np.ndarray.tolist)
                == json.dumps(cm.constraint.fields(), default=np.ndarray.tolist))
        assert loaded.family == cm.family
        assert loaded.degree_tag == cm.degree_tag
        assert loaded.verify()
        for a, b in zip(loaded.model.weights, cm.model.weights):
            assert np.array_equal(a, b)

    def test_malformed_file_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            checkpoint.load_model(p)

    def test_wrong_version_rejected(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text('{"format": "compaudit-checkpoint", "version": 99}', encoding="utf-8")
        with pytest.raises(CheckpointError):
            checkpoint.load_model(p)

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("biases"),
        lambda d: d.pop("layer_sizes"),
        lambda d: d.update(weights=7),
        lambda d: d["constraint"].pop("kind"),
        lambda d: d["constraint"].pop("masks"),
        lambda d: d.update(constraint=[1, 2]),
        lambda d: d.update(degree_tag=None),
        lambda d: d.pop("family"),
        lambda d: d.update(family="quant"),
        lambda d: d.update(family="zzz"),
        lambda d: d["constraint"].update(kind="zzz"),
        lambda d: d.update(constraint={"kind": "fake_quant", "scales": [0.0, 0.1]}, family="quant"),
    ])
    def test_missing_or_malformed_field_is_checkpoint_error(self, tmp_path, edit):
        p = tmp_path / "cm.json"
        checkpoint.save_model(p, compress.prune_l1(sample_model(), 0.5))
        d = json.loads(p.read_text())
        edit(d)
        p.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(CheckpointError, match="malformed model") as err:
            checkpoint.load_model(p)
        assert str(p) in str(err.value)


    @pytest.mark.parametrize("kind, edit", [
        ("prune_mask", lambda d: d["weights"][0][0].__setitem__(
            stored_mask(d, 0)[0].tolist().index(0), 1.0)),
        ("fake_quant", lambda d: d["weights"][0][0].__setitem__(0, d["weights"][0][0][0] * 1.1)),
        ("cluster_assignment", lambda d: d["weights"][0][0].__setitem__(0, 1e3)),
        ("cluster_assignment", lambda d: set_assignment(
            d, 0, 0, len(d["constraint"]["centroids"][0]))),
    ], ids=["masked_weight", "off_grid", "off_centroid", "assignment_out_of_range"])
    def test_weights_that_break_the_constraint_are_checkpoint_error(self, tmp_path, kind, edit):
        p = tmp_path / "cm.json"
        checkpoint.save_model(p, COMPRESSIONS[kind](sample_model()))
        d = json.loads(p.read_text())
        edit(d)
        p.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(CheckpointError, match="malformed model") as err:
            checkpoint.load_model(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("make, edit", [
        (lambda: nn.init_fcn([4, 8, 3], seed=1),
         lambda d: d["weights"][1][2].__setitem__(5, float("nan"))),
        (lambda: compress.prune_l1(sample_model(), 0.5),
         lambda d: d["weights"][0][0].__setitem__(
             stored_mask(d, 0)[0].tolist().index(1), float("inf"))),
        (lambda: sample_model(), lambda d: d["biases"][0].__setitem__(0, float("-inf"))),
    ], ids=["nan_weight", "inf_kept_pruned_weight", "inf_bias"])
    def test_non_finite_parameters_are_checkpoint_error(self, tmp_path, make, edit):
        # json reads NaN and Infinity; a model holding them must not load
        p = tmp_path / "m.json"
        checkpoint.save_model(p, make())
        d = json.loads(p.read_text())
        edit(d)
        p.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(CheckpointError, match="non-finite") as err:
            checkpoint.load_model(p)
        assert str(p) in str(err.value)


def signed_zero_pruned():
    """A pruned model whose kept weights include +0.0 and -0.0; no layer size is a multiple of 8."""
    model = nn.init_fcn([5, 7, 3], seed=2)
    masks = [np.random.default_rng(3).random(w.shape) < 0.6 for w in model.weights]
    masks[0][0, :3] = True
    model.weights[0][0, :3] = [-0.0, 0.0, -0.0]
    for w, m in zip(model.weights, masks):
        w[~m] = 0.0
    return compress.CompressedModel(model, constraints.Pruned(masks), 40.0)


def clustered(layer_sizes, counts, seed, equal=False):
    """A clustered model with ``counts[l]`` centroids in layer l; with ``equal`` two are equal."""
    model = nn.init_fcn(layer_sizes, seed=seed)
    rng = np.random.default_rng(seed)
    assignments, centroids = [], []
    for w, k in zip(model.weights, counts):
        cent = rng.normal(size=k)
        if equal:
            cent[1] = cent[0]
        assign = rng.permutation(np.arange(w.size) % k)  # every centroid has members
        w[...] = cent[assign].reshape(w.shape)
        assignments.append(assign)
        centroids.append(cent)
    return compress.CompressedModel(model, constraints.Clustered(assignments, centroids),
                                    100.0 / counts[0])


# every family, and the cases its packed encoding must keep apart
ROUND_TRIPS = {
    "plain": lambda: nn.init_fcn([5, 7, 3], seed=1),
    "prune_signed_zeros": signed_zero_pruned,
    "prune_l1": lambda: compress.prune_l1(nn.init_fcn([5, 7, 3], seed=1), 0.7),
    "cluster_equal_centroids": lambda: clustered([5, 7, 3], [4, 3], seed=4, equal=True),
    "cluster_300_centroids": lambda: clustered([20, 30, 3], [300, 2], seed=5),
    "cluster_kmeans": lambda: compress.cluster_weights(nn.init_fcn([5, 7, 3], seed=1), 8, seed=0),
    "int8": lambda: compress.quantize_int8(nn.init_fcn([5, 7, 3], seed=1)),
}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bits; 64-bit values are compared as uint64, so -0.0 != 0.0."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.itemsize == 8:
        a, b = a.view(np.uint64), b.view(np.uint64)
    return np.array_equal(a, b)


def signed_zero_biases(name: str):
    """``ROUND_TRIPS[name]`` with +0.0 and -0.0 in its first bias, which no constraint touches."""
    saved = ROUND_TRIPS[name]()
    held = saved.model if isinstance(saved, compress.CompressedModel) else saved
    held.biases[0][:2] = [0.0, -0.0]
    return saved


def assert_same_model(loaded, saved):
    """Same type, constraint and degree, and every stored array bit for bit."""
    assert type(loaded) is type(saved)
    if isinstance(saved, compress.CompressedModel):
        assert type(loaded.constraint) is type(saved.constraint)
        assert loaded.degree_tag == saved.degree_tag
        for field in dataclasses.fields(saved.constraint):
            if field.compare:  # a checkpoint does not keep what equality ignores
                pairs = zip(getattr(loaded.constraint, field.name),
                            getattr(saved.constraint, field.name), strict=True)
                assert all(same_bits(np.asarray(a), np.asarray(b)) for a, b in pairs)
        loaded, saved = loaded.model, saved.model
    for a, b in zip(loaded.weights + loaded.biases, saved.weights + saved.biases, strict=True):
        assert same_bits(a, b)


class TestPackedRoundTrip:
    """Every family saves and loads bit for bit, and saves the same bytes each time."""

    @pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
    def test_round_trip_is_bit_for_bit(self, tmp_path, name):
        saved = ROUND_TRIPS[name]()
        p, again = tmp_path / "m.json", tmp_path / "again.json"
        checkpoint.save_model(p, saved)
        assert_same_model(checkpoint.load_model(p), saved)
        checkpoint.save_model(again, saved)
        assert again.read_bytes() == p.read_bytes()
        checkpoint.save_model(again, checkpoint.load_model(p))
        assert again.read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
    def test_signed_zeros_round_trip_with_positive_zero_as_0(self, tmp_path, name):
        saved = signed_zero_biases(name)
        p = tmp_path / "m.json"
        checkpoint.save_model(p, saved)
        assert_same_model(checkpoint.load_model(p), saved)
        text = p.read_text(encoding="utf-8")
        zeros = "0,-0.0" if name != "plain" else "0.0,-0.0"
        assert text[text.index('"biases":'):].startswith(f'"biases":[[{zeros},')

    @pytest.mark.parametrize("name", sorted(set(ROUND_TRIPS) - {"plain"}))
    def test_files_with_positive_zero_as_0_0_load_to_the_same_bits(self, tmp_path, monkeypatch,
                                                                   name):
        saved = signed_zero_biases(name)
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        payload, _ = saved_payload(monkeypatch, new, saved)
        checkpoint.write_json(payload, old)  # every +0.0 as 0.0, as files of earlier releases
        assert old.read_bytes() == dumped(payload) != new.read_bytes()
        assert_same_model(checkpoint.load_model(old), checkpoint.load_model(new))
        assert_same_model(checkpoint.load_model(old), saved)

    def test_mask_is_packbits_of_the_row_major_keep_bits(self, tmp_path):
        saved = signed_zero_pruned()
        # kept zeros, so a mask read off the weights would differ from the stored one
        assert np.sum(saved.constraint.prune_masks[0] & (saved.model.weights[0] == 0.0)) == 3
        p = tmp_path / "m.json"
        checkpoint.save_model(p, saved)
        d = json.loads(p.read_text(encoding="utf-8"))
        for layer, mask in enumerate(saved.constraint.prune_masks):
            assert np.array_equal(stored_mask(d, layer), mask)

    def test_assignment_width_follows_the_centroid_count(self, tmp_path):
        p = tmp_path / "m.json"
        checkpoint.save_model(p, clustered([20, 30, 3], [300, 2], seed=5))
        texts = json.loads(p.read_text(encoding="utf-8"))["constraint"]["assignments"]
        assert [len(base64.b64decode(t)) for t in texts] == [2 * 600, 90]


def last_char_bumped(text: str) -> str:
    """``text`` with a trailing bit set in its last base64 digit before the padding."""
    body = text.rstrip("=")
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    assert len(body) < len(text)  # padded, so the last digit carries trailing bits
    return body[:-1] + alphabet[alphabet.index(body[-1]) + 1] + text[len(body):]


def set_field(d: dict, field: str, layer: int, change):
    """Replace a packed field's bytes of ``layer`` by ``change(bytes)``, base64 encoded."""
    raw = base64.b64decode(d["constraint"][field][layer])
    d["constraint"][field][layer] = base64.b64encode(change(raw)).decode("ascii")


# a malformed packed field, by name: the family saved, the edit, and the reason given
PACKED_EDITS = {
    "mask_not_base64": ("prune", lambda d: d["constraint"]["masks"].__setitem__(0, "not base64!"),
                        "mask 0 is not base64 text"),
    "mask_not_canonical": ("prune", lambda d: d["constraint"]["masks"].__setitem__(
        0, last_char_bumped(d["constraint"]["masks"][0])), "mask 0 is not canonical base64"),
    "mask_as_list": ("prune", lambda d: d["constraint"]["masks"].__setitem__(
        0, stored_mask(d, 0).tolist()), "mask 0 is not base64 text"),
    "mask_short": ("prune", lambda d: set_field(d, "masks", 0, lambda raw: raw[:-1]),
                   "mask 0 holds 4 bytes, its layer needs 5"),
    "mask_long": ("prune", lambda d: set_field(d, "masks", 0, lambda raw: raw + b"\0"),
                  "mask 0 holds 6 bytes, its layer needs 5"),
    "mask_pad_bits": ("prune", lambda d: set_field(
        d, "masks", 1, lambda raw: raw[:-1] + bytes([raw[-1] | 1])),
        "mask 1 has non-zero pad bits"),
    "assignments_not_base64": ("cluster", lambda d: d["constraint"]["assignments"].__setitem__(
        1, "@@@@"), "assignments 1 is not base64 text"),
    "assignments_wide": ("cluster", lambda d: set_field(
        d, "assignments", 0, lambda raw: np.frombuffer(raw, "<u1").astype("<u2").tobytes()),
        "assignments 0 holds 70 bytes, its layer needs 35"),
    "assignments_short": ("cluster", lambda d: set_field(d, "assignments", 1, lambda raw: raw[1:]),
                          "assignments 1 holds 20 bytes, its layer needs 21"),
    "assignment_past_the_centroids": ("cluster", lambda d: set_assignment(d, 1, 5, 255),
                                      "assignments 1 name centroid 255 of 4"),
}


class TestMalformedPackedFields:
    @pytest.mark.parametrize("name", sorted(PACKED_EDITS))
    def test_malformed_packed_field_is_checkpoint_error(self, tmp_path, name):
        family, edit, reason = PACKED_EDITS[name]
        # 35 and 21 weights: neither matrix fills whole bytes of mask bits
        model = nn.init_fcn([5, 7, 3], seed=1)
        saved = (compress.prune_l1(model, 0.5) if family == "prune"
                 else compress.cluster_weights(model, 4, seed=0))
        p = tmp_path / "m.json"
        checkpoint.save_model(p, saved)
        d = json.loads(p.read_text(encoding="utf-8"))
        edit(d)
        p.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(CheckpointError, match="malformed model") as err:
            checkpoint.load_model(p)
        assert str(p) in str(err.value) and reason in str(err.value)


class TestLayoutContract:
    """Readers with plain ``json`` still find the parameters as nested lists."""

    @pytest.mark.parametrize("kind", ["cluster8", "int8", "prune70"])
    def test_weights_and_biases_are_nested_number_lists(self, tmp_path, kind):
        p = tmp_path / "m.json"
        checkpoint.save_model(p, SAVED_MODELS[kind](nn.init_fcn([5, 7, 3], seed=1)))
        with open(p, encoding="utf-8") as fh:
            d = json.load(fh)
        assert d["version"] == 2
        sizes = d["layer_sizes"]
        for l, (w, b) in enumerate(zip(d["weights"], d["biases"], strict=True)):
            assert isinstance(w, list) and len(w) == sizes[l + 1]
            assert all(isinstance(row, list) and len(row) == sizes[l] for row in w)
            assert all(number(x) for row in w for x in row)
            assert isinstance(b, list) and len(b) == sizes[l + 1]
            assert all(number(x) for x in b)

    @pytest.mark.parametrize("kind", sorted(SAVED_MODELS))
    def test_a_plain_json_reader_gets_the_saved_bits(self, tmp_path, kind):
        """``json`` and ``np.asarray(..., dtype=float)``, as the benchmark's oracle reads them."""
        model = nn.init_fcn([5, 7, 3], seed=1)
        model.biases[0][:2] = [0.0, -0.0]
        saved = SAVED_MODELS[kind](model)
        p = tmp_path / "m.json"
        checkpoint.save_model(p, saved)
        with open(p, encoding="utf-8") as fh:
            d = json.load(fh)
        assert (type(d["biases"][0][0]) is int) == (kind != "plain")  # +0.0 is 0 when compressed
        held = saved.model if isinstance(saved, compress.CompressedModel) else saved
        for key in ("weights", "biases"):
            read = [np.asarray(a, dtype=float) for a in d[key]]
            assert all(same_bits(a, b) for a, b in zip(read, getattr(held, key), strict=True))


def number(x) -> bool:
    """A float, or the integer 0 that a compressed model's +0.0 is written as."""
    return type(x) is float or (type(x) is int and x == 0)


class TestClassifierCheckpoints:
    def fit_data(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, 40)
        return X, y

    @pytest.mark.parametrize("kind", ["lr", "mlp", "rf"])
    def test_round_trip_preserves_scores(self, tmp_path, kind):
        X, y = self.fit_data()
        hyper = meta.RfHyper(n_trees=5, max_depth=4) if kind == "rf" else None
        clf = meta.fit(kind, X, y, hyper=hyper, seed=3)
        p = tmp_path / f"{kind}.json"
        checkpoint.save_classifier(p, clf)
        loaded = checkpoint.load_classifier(p)
        assert np.array_equal(meta.score_proba(loaded, X), meta.score_proba(clf, X))

    def test_forest_stores_flat_node_arrays(self, tmp_path):
        X, y = self.fit_data()
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=3, max_depth=3), seed=1)
        p = tmp_path / "rf.json"
        checkpoint.save_classifier(p, clf)
        stored = json.loads(p.read_text(encoding="utf-8"))
        assert sorted(stored) == ["format", "kind", "n_features", "seed", "trees", "version"]
        trees = stored["trees"]
        assert len(trees) == 3
        for stored, tree in zip(trees, clf.trees):
            assert sorted(stored) == ["feature", "left", "right", "threshold", "value"]
            assert stored["value"] == tree.value.tolist()

    @pytest.mark.parametrize(
        "trees",
        [
            # the nested layout of earlier releases
            [{"feature": 0, "threshold": 0.5, "left": {"prob": 0.0}, "right": {"prob": 1.0}}],
            [{"feature": [0], "threshold": [0.5], "left": [1], "right": [2]}],  # no value
            [{"feature": [0, -1], "threshold": [0.5, 0.0], "left": [1, -1], "right": [2, -1],
              "value": [0.5, 0.0]}],  # child index past the last node
            [{"feature": [-1], "threshold": [0.0], "left": [0], "right": [0],
              "value": [0.5]}],  # node is its own child
            [{"feature": [7, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
              "right": [2, -1, -1], "value": [0.5, 0.0, 1.0]}],  # no feature 7
            "not a list of trees",
            [],  # a forest of no trees
        ],
    )
    def test_malformed_forest_rejected(self, tmp_path, trees):
        p = tmp_path / "rf.json"
        p.write_text(json.dumps({"format": checkpoint.FORMAT, "version": checkpoint.VERSION,
                                 "kind": "rf", "seed": 0, "n_features": 3, "trees": trees}),
                     encoding="utf-8")
        with pytest.raises(CheckpointError):
            checkpoint.load_classifier(p)


class TestAtomicWrite:
    def test_failed_dump_leaves_no_json_file(self, tmp_path):
        with pytest.raises(TypeError):
            checkpoint.write_json({"ok": 1, "bad": object()}, tmp_path / "x.json")
        assert list(tmp_path.glob("*.json")) == []

    @pytest.mark.parametrize("bad", [object(), {1, 2}], ids=["object", "set"])
    def test_failed_dump_keeps_the_previous_file(self, tmp_path, bad):
        p = tmp_path / "x.json"
        checkpoint.write_json({"a": 1}, p)
        before = p.read_bytes()
        with pytest.raises(TypeError):
            checkpoint.write_json({"a": bad}, p)
        assert p.read_bytes() == before
        assert sorted(q.name for q in tmp_path.iterdir()) == ["x.json"]

    def test_bytes_equal_json_dump(self, tmp_path):
        payload = {
            "z": {"b": [1, -0.0, 5e-324, 1e308], "a": {"nested": [True, False, None]}},
            "big": [2**64 + 1, -(2**70)],
            "text": "caf\u00e9 \u6f22\u5b57 \U0001f600",
            "floats": [0.1, 1 / 3, -2.5e-17, 123456789.0],
            "empty": {},
        }
        p = tmp_path / "x.json"
        checkpoint.write_json(payload, p)
        ref = tmp_path / "ref.json"
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        assert p.read_bytes() == ref.read_bytes()
        assert checkpoint.read_json(p) == payload

    def test_malformed_json_is_checkpoint_error(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"a": [1, 2', encoding="utf-8")
        with pytest.raises(CheckpointError):
            checkpoint.read_json(p)


def as_lists(value, few_values=False):
    """``value`` with every numpy array replaced by its ``tolist()``.

    With ``few_values``, each +0.0 of a float array with one or more axes is
    the integer 0, as ``write_json(..., few_values=True)`` writes it.
    """
    if isinstance(value, np.ndarray):
        if few_values and value.dtype.kind == "f" and value.ndim:
            positive_zero = (value == 0) & ~np.signbit(value)
            value = value.astype(object)
            value[positive_zero] = 0
        return value.tolist()
    if isinstance(value, dict):
        return {k: as_lists(v, few_values) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(v, few_values) for v in value]
    return value


def dumped(payload, few_values=False) -> bytes:
    return json.dumps(as_lists(payload, few_values), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def saved_payload(monkeypatch, path, model) -> tuple[dict, dict]:
    """``save_model(path, model)``, and the payload and keywords it gave ``write_json``."""
    calls = []
    real = checkpoint.write_json

    def recording(payload, path, **kwargs):
        calls.append((payload, kwargs))
        real(payload, path, **kwargs)

    monkeypatch.setattr(checkpoint, "write_json", recording)
    checkpoint.save_model(path, model)
    ((payload, kwargs),) = calls
    return payload, kwargs


class TestStreamedWrite:
    """``write_json`` takes numpy arrays anywhere and streams them one at a time."""

    @pytest.mark.parametrize("kind", sorted(SAVED_MODELS))
    def test_model_bytes_equal_json_dumps_of_lists(self, tmp_path, monkeypatch, kind):
        model = nn.init_fcn([5, 12, 3], seed=1)
        model.weights[0][0, :2] = [-0.0, 0.0]
        model = SAVED_MODELS[kind](model)
        p = tmp_path / "m.json"
        payload, kwargs = saved_payload(monkeypatch, p, model)
        assert all(isinstance(w, np.ndarray) for w in payload["weights"] + payload["biases"])
        # a compressed model's arrays are formatted once per distinct value, +0.0 as 0
        assert kwargs == {"few_values": kind != "plain"}
        assert p.read_bytes() == dumped(payload, **kwargs)

    @pytest.mark.parametrize("few_values", [False, True])
    def test_signed_zeros_empty_arrays_and_nesting(self, tmp_path, few_values):
        payload = {
            "zeros": np.array([-0.0, 0.0, -1e-300 * 1e-300]),
            "matrix": np.array([[-0.0, 0.0, 1.5, -0.0], [0.0, 1.5, 2**-1074, 0.0]]),
            "one_row": np.array([[0.25, -0.0, 0.25]]),
            "one_column": np.array([[3.0], [3.0], [-1e308]]),
            "non_finite": np.array([[np.nan, 1.0, np.inf], [-np.inf, np.nan, 1.0]]),
            "ints": [np.array([[3, -2, 3]], dtype=np.int64), np.arange(4, dtype=np.uint8),
                     np.array([2**63 - 1, -(2**63), 0])],
            "three_axes": np.arange(24.0).reshape(2, 3, 4) % 5 - 2.0,
            "empty": [np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3), dtype=np.int64)],
            "nested": {"b": [np.arange(3), (np.array([[True, False]]), "x")],
                       "a": {"deep": np.array(2.5)}, "plain": [1, None, "t"]},
            "scalar": np.float64(0.1),
            "masks": [np.array([[True, False]]).astype(np.uint8)],
            # keys as json writes them: 7 sorts before 10, True is "true"
            "int_keys": {10: np.array([1.5]), 7: None},
            "other_keys": [{True: np.zeros(1), False: 1}, {None: np.zeros(1)}],
        }
        p = tmp_path / "x.json"
        checkpoint.write_json(payload, p, few_values=few_values)
        assert p.read_bytes() == dumped(payload, few_values)
        assert b"-0.0" in p.read_bytes()
        # +0.0 is 0 in every float array of the few-values path; JSON -0 would read as +0.0
        assert (b'"matrix":[[-0.0,0,1.5,-0.0]' in p.read_bytes()) == few_values

    @pytest.mark.parametrize("bad", [
        {"a": np.arange(3), "b": object()},
        {"a": [np.arange(2), {1, 2}]},
        {"a": np.array([object()], dtype=object)},
    ], ids=["after_an_array", "inside_a_list", "array_element"])
    @pytest.mark.parametrize("few_values", [False, True])
    def test_failure_mid_stream_keeps_the_previous_file(self, tmp_path, bad, few_values):
        p = tmp_path / "x.json"
        checkpoint.write_json({"a": np.arange(4)}, p)
        before = p.read_bytes()
        with pytest.raises(TypeError):
            checkpoint.write_json(bad, p, few_values=few_values)
        assert p.read_bytes() == before
        assert sorted(q.name for q in tmp_path.iterdir()) == ["x.json"]
        with pytest.raises(TypeError):
            checkpoint.write_json(bad, tmp_path / "new" / "y.json", few_values=few_values)
        assert list((tmp_path / "new").iterdir()) == []
