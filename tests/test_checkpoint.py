"""Checkpoint round-trip and byte-stability tests."""

import json

import numpy as np
import pytest

from compaudit import checkpoint, compress, meta, nn
from compaudit.errors import CheckpointError


def sample_model():
    return nn.init_fcn([4, 6, 3], seed=1)


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

    @pytest.mark.parametrize(
        "make",
        [
            lambda m: compress.prune_l1(m, 0.5),
            lambda m: compress.quantize_int8(m),
            lambda m: compress.cluster_weights(m, 4, seed=0),
        ],
    )
    def test_compressed_round_trip_keeps_constraint(self, tmp_path, make):
        cm = make(sample_model())
        p = tmp_path / "cm.json"
        checkpoint.save_model(p, cm)
        loaded = checkpoint.load_model(p)
        assert isinstance(loaded, compress.CompressedModel)
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
    ])
    def test_missing_or_malformed_field_is_checkpoint_error(self, tmp_path, edit):
        p = tmp_path / "cm.json"
        checkpoint.save_model(p, compress.prune_l1(sample_model(), 0.5))
        d = json.loads(p.read_text())
        edit(d)
        p.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(CheckpointError, match="malformed model"):
            checkpoint.load_model(p)


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

    def test_forest_round_trip_keeps_bagging_flag(self, tmp_path):
        # out-of-bag scores replay the bootstrap draws, so a loaded unbagged
        # forest must still refuse them
        X, y = self.fit_data()
        for bootstrap in (True, False):
            clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=5, bootstrap=bootstrap))
            p = tmp_path / f"rf_{bootstrap}.json"
            checkpoint.save_classifier(p, clf)
            assert checkpoint.load_classifier(p).bootstrap is bootstrap

    def test_forest_stores_flat_node_arrays(self, tmp_path):
        X, y = self.fit_data()
        clf = meta.fit("rf", X, y, hyper=meta.RfHyper(n_trees=3, max_depth=3), seed=1)
        p = tmp_path / "rf.json"
        checkpoint.save_classifier(p, clf)
        trees = json.loads(p.read_text(encoding="utf-8"))["trees"]
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

    def test_failed_dump_keeps_the_previous_file(self, tmp_path):
        p = tmp_path / "x.json"
        checkpoint.write_json({"a": 1}, p)
        with pytest.raises(TypeError):
            checkpoint.write_json({"a": object()}, p)
        assert checkpoint.read_json(p) == {"a": 1}
        assert sorted(q.name for q in tmp_path.iterdir()) == ["x.json"]

    def test_malformed_json_is_checkpoint_error(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"a": [1, 2', encoding="utf-8")
        with pytest.raises(CheckpointError):
            checkpoint.read_json(p)
