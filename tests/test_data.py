"""Dataset loading, synthetic generation, and split protocol tests."""

import numpy as np
import pytest

from compaudit import data, nn
from compaudit.errors import DataError, InputError, SchemaError, SizeError


class TestLoadCsv:
    def write(self, tmp_path, text, name="d.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_well_formed_file(self, tmp_path):
        p = self.write(tmp_path, "1.0,0.0,2\n0.5,1.5,0\n0.0,0.0,1\n")
        ds = data.load_csv(p)
        assert ds.n_samples == 3
        assert ds.n_features == 2
        assert ds.labels.tolist() == [2, 0, 1]
        assert ds.class_count == 3

    def test_row_order_preserved(self, tmp_path):
        p = self.write(tmp_path, "9.0,0\n8.0,1\n7.0,0\n")
        ds = data.load_csv(p)
        assert ds.features[:, 0].tolist() == [9.0, 8.0, 7.0]

    def test_text_in_feature_column_names_line(self, tmp_path):
        p = self.write(tmp_path, "1.0,0\noops,1\n")
        with pytest.raises(DataError, match="line 2"):
            data.load_csv(p)

    def test_label_out_of_declared_range(self, tmp_path):
        p = self.write(tmp_path, "1.0,0\n2.0,7\n")
        with pytest.raises(SchemaError, match="line 2"):
            data.load_csv(p, class_count=3)

    @pytest.mark.parametrize("column, label", [(0, [1, 4]), (2, [3, 6]), (-3, [1, 4]),
                                               (3, None), (-4, None), (7, None)])
    def test_label_column_must_be_in_the_row(self, tmp_path, column, label):
        p = self.write(tmp_path, "1,2,3\n4,5,6\n")
        if label is None:
            with pytest.raises(DataError, match=rf"label_column {column} .*3-column"):
                data.load_csv(p, label_column=column)
        else:
            assert data.load_csv(p, label_column=column).labels.tolist() == label

    def test_header_flag(self, tmp_path):
        p = self.write(tmp_path, "f,label\n1.0,0\n2.0,1\n")
        ds = data.load_csv(p, has_header=True)
        assert ds.n_samples == 2

    def test_location_style_shape(self, tmp_path):
        # 446 binary feature columns, labels 0..29
        rng = np.random.default_rng(0)
        rows = []
        for i in range(30):
            feats = rng.integers(0, 2, 446)
            rows.append(",".join(map(str, feats.tolist() + [i % 30])))
        p = self.write(tmp_path, "\n".join(rows) + "\n")
        ds = data.load_csv(p, class_count=30)
        assert ds.n_features == 446
        assert ds.class_count == 30
        assert set(np.unique(ds.features)) <= {0.0, 1.0}


class TestSynth:
    def test_deterministic(self):
        a = data.synth_generate(100, 8, 5, 0.5, seed=42)
        b = data.synth_generate(100, 8, 5, 0.5, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_one_sample_per_class_boundary(self):
        ds = data.synth_generate(5, 3, 5, 1.0, seed=0)
        assert ds.n_samples == 5
        assert sorted(ds.labels.tolist()) == [0, 1, 2, 3, 4]

    def test_too_few_samples_rejected(self):
        with pytest.raises(InputError):
            data.synth_generate(3, 2, 5, 1.0)

    def test_tiny_spread_is_separable(self):
        # a trained classifier reaches near-perfect held-out accuracy
        ds = data.synth_generate(400, 8, 4, 0.01, seed=7)
        split = data.make_split(ds, data.SplitSizes(150, 150, 50, 50), seed=1)
        model = nn.init_fcn([8, 16, 4], seed=3, dropout_rates=[0.0])
        cfg = nn.TrainConfig(learning_rate=0.1, batch_size=32, max_epochs=30, seed=5)
        trained = nn.train(model, ds.xy(split.victim_train), None, cfg)
        Xt, yt = ds.xy(split.victim_test)
        assert nn.evaluate_accuracy(trained, Xt, yt) >= 0.99

    def test_spread_controls_overfitting_gap(self):
        wide = data.synth_generate(240, 16, 6, 3.0, seed=9)
        narrow = data.synth_generate(240, 16, 6, 0.05, seed=9)

        def gap(ds):
            split = data.make_split(ds, data.SplitSizes(80, 80, 40, 40), seed=2)
            model = nn.init_fcn([16, 32, 6], seed=4, dropout_rates=[0.0])
            cfg = nn.TrainConfig(learning_rate=0.15, batch_size=16, max_epochs=60, seed=6)
            trained = nn.train(model, ds.xy(split.victim_train), None, cfg)
            tr = nn.evaluate_accuracy(trained, *ds.xy(split.victim_train))
            te = nn.evaluate_accuracy(trained, *ds.xy(split.victim_test))
            return tr - te

        assert gap(wide) > gap(narrow)


class TestSplit:
    def test_exact_partition(self):
        ds = data.synth_generate(8, 2, 2, 1.0, seed=0)
        plan = data.make_split(ds, data.SplitSizes(2, 2, 2, 2), seed=0)
        all_idx = np.concatenate(list(plan.components().values()))
        assert sorted(all_idx.tolist()) == list(range(8))

    def test_oversized_request_rejected(self):
        ds = data.synth_generate(8, 2, 2, 1.0, seed=0)
        with pytest.raises(SizeError):
            data.make_split(ds, data.SplitSizes(4, 4, 4, 4), seed=0)

    def test_pairwise_disjoint_brute_force(self):
        ds = data.synth_generate(200, 4, 4, 1.0, seed=3)
        plan = data.make_split(ds, data.SplitSizes(40, 40, 50, 50), seed=9)
        parts = list(plan.components().values())
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert not set(parts[i].tolist()) & set(parts[j].tolist())

    def test_deterministic_per_seed(self):
        ds = data.synth_generate(50, 3, 2, 1.0, seed=1)
        a = data.make_split(ds, data.SplitSizes(10, 10, 10, 10), seed=4)
        b = data.make_split(ds, data.SplitSizes(10, 10, 10, 10), seed=4)
        for k in a.components():
            assert np.array_equal(a.components()[k], b.components()[k])


class TestFinetuneSplit:
    def test_union_and_disjointness(self):
        victim_train = np.arange(10, 50)
        fine = data.make_finetune_split(victim_train, 0.25, seed=0)
        held = np.setdiff1d(victim_train, fine)
        assert np.array_equal(np.sort(np.concatenate([fine, held])), victim_train)
        assert np.array_equal(fine, np.sort(fine)) and np.unique(fine).size == fine.size
        assert set(fine.tolist()) <= set(victim_train.tolist())
        assert fine.size == 10

    def test_full_fraction(self):
        victim_train = np.arange(12)
        fine = data.make_finetune_split(victim_train, 1.0, seed=1)
        assert np.array_equal(fine, victim_train)

    def test_invalid_fraction(self):
        with pytest.raises(InputError):
            data.make_finetune_split(np.arange(5), 0.0)
