"""Plan parsing and validation tests."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from compaudit import cli, data, nn
from compaudit.errors import PlanError
from compaudit.plan import AttackSpec, CompressionSpec, DatasetSpec, TrainSpec, parse_plan_text

GOOD = """
[dataset]
kind = synth
samples = 240
features = 6
classes = 3
spread = 0.8
seed = 5

[split]
victim_train = 50
victim_test = 50
shadow_train = 50
shadow_test = 50

[train]
learning_rate = 0.2
batch_size = 25
max_epochs = 15
hidden = 12
dropout = 0.0

[compression]
prune = 0.6,0.8
finetune_epochs = 2

[attacks]
nr = loss
sr_methods = sorted_concat_label
sr_classifiers = lr
mr = adv2

[metrics]
fpr_caps = 0.1

[run]
repetitions = 1
seed_base = 77
"""


class TestParse:
    def test_good_plan(self):
        plan = parse_plan_text(GOOD)
        assert plan.compression_keys() == ["prune60", "prune80"]
        assert plan.nr_target_keys() == ["original", "prune60", "prune80"]
        assert plan.repetitions == 1
        assert plan.seed_base == 77
        assert plan.fpr_caps == [0.1]

    def test_hash_is_stable_and_text_sensitive(self):
        a = parse_plan_text(GOOD)
        b = parse_plan_text(GOOD)
        c = parse_plan_text(GOOD.replace("seed_base = 77", "seed_base = 78"))
        assert a.plan_hash() == b.plan_hash()
        assert a.plan_hash() != c.plan_hash()

    def test_defaults(self):
        plan = parse_plan_text(
            """
[dataset]
kind = synth
samples = 100
features = 4
classes = 2
[split]
victim_train = 20
victim_test = 20
shadow_train = 20
shadow_test = 20
[train]
learning_rate = 0.1
batch_size = 10
max_epochs = 5
"""
        )
        assert plan.train.hidden == [256, 128]
        assert plan.repetitions == 5
        assert plan.fpr_caps == [0.001]
        assert plan.compression_keys() == []

    def test_missing_required_field(self):
        with pytest.raises(PlanError):
            parse_plan_text("[dataset]\nkind = synth\n")

    def test_mr_over_undeclared_level_rejected_before_training(self):
        bad = GOOD.replace("mr = adv2", "mr = adv2\nmr_models = prune60,prune95")
        with pytest.raises(PlanError, match="prune95"):
            parse_plan_text(bad)

    def test_mr_needs_two_models(self):
        bad = GOOD.replace("prune = 0.6,0.8", "prune = 0.6")
        with pytest.raises(PlanError, match="at least 2"):
            parse_plan_text(bad)

    def test_unknown_attack_rejected(self):
        bad = GOOD.replace("nr = loss", "nr = loss,wishful")
        with pytest.raises(PlanError, match="wishful"):
            parse_plan_text(bad)

    def test_bad_sparsity_rejected(self):
        bad = GOOD.replace("prune = 0.6,0.8", "prune = 1.5")
        with pytest.raises(PlanError):
            parse_plan_text(bad)

    def test_zero_repetitions_rejected(self):
        bad = GOOD.replace("repetitions = 1", "repetitions = 0")
        with pytest.raises(PlanError):
            parse_plan_text(bad)

    @pytest.mark.parametrize("seed_base", [-1, 2**64])
    def test_seed_base_outside_u64_rejected(self, tmp_path, capsys, seed_base):
        bad = GOOD.replace("seed_base = 77", f"seed_base = {seed_base}")
        with pytest.raises(PlanError, match=re.escape(f"seed_base {seed_base} outside [0, 2**64)")):
            parse_plan_text(bad)
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(GOOD, encoding="utf-8")
        argv = ["--plan", str(plan_path), "--out", str(tmp_path / "o"), "--seed-base", str(seed_base)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: seed_base {seed_base} outside [0, 2**64)"]
        assert not (tmp_path / "o").exists()

    def test_largest_seed_base_accepted(self, tmp_path, monkeypatch):
        top = 2**64 - 1
        assert parse_plan_text(GOOD.replace("seed_base = 77", f"seed_base = {top}")).seed_base == top
        seen = []
        monkeypatch.setattr(cli, "run_stage", lambda plan, *_, **__: seen.append(plan.seed_base))
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(GOOD, encoding="utf-8")
        argv = ["--plan", str(plan_path), "--seed-base", str(top), "--stage", "train"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert seen == [top]

    def test_dp_section_optional_and_validated(self):
        plan = parse_plan_text(GOOD + "\n[dp]\nclip_norm = 1.0\nnoise_multiplier = 0.5\n")
        assert plan.dp.noise_multiplier == 0.5
        with pytest.raises(PlanError):
            parse_plan_text(GOOD + "\n[dp]\nclip_norm = -1\nnoise_multiplier = 0.5\n")


EVERY_KEY = """
[dataset]
kind = csv
samples = 300
features = 7
classes = 4
spread = 0.5
seed = 9
path = rows.csv
label_column = 0
has_header = yes

[split]
victim_train = 30
victim_test = 31
shadow_train = 32
shadow_test = 33

[train]
learning_rate = 0.05
batch_size = 16
max_epochs = 7
hidden = 32,16,8
dropout = 0.25
l2_lambda = 0.001

[dp]
clip_norm = 2.0
noise_multiplier = 1.5
delta = 1e-6

[compression]
prune = 0.5,0.75
clusters = 16,4
int8 = true
int8_mode = calibrate
finetune_epochs = 3
finetune_learning_rate = 0.02
finetune_fraction = 0.5

[attacks]
nr = mentr,posterior_lr
nr_targets = original,prune50
sr_methods = l2_distance_label
sr_classifiers = lr,mlp
sr_targets = int8
mr = adv1,adv2
mr_models = prune50,cluster4
mr_sr_method = direct_concat_label
mr_sr_classifier = lr

[metrics]
fpr_caps = 0.01,0.05

[run]
repetitions = 3
seed_base = 11
workers = 2
"""


class TestSectionReader:
    def test_every_key_set_to_a_non_default_value(self):
        plan = parse_plan_text(EVERY_KEY)
        expected = {
            "dataset": DatasetSpec("csv", 300, 7, 4, 0.5, 9, "rows.csv", 0, True),
            "split": data.SplitSizes(30, 31, 32, 33),
            "train": TrainSpec(0.05, 16, 7, [32, 16, 8], 0.25, 0.001),
            "dp": nn.DpConfig(2.0, 1.5, 1e-6),
            "compression": CompressionSpec([0.5, 0.75], [16, 4], True, "calibrate", 3, 0.02, 0.5),
            "attacks": AttackSpec(
                ["mentr", "posterior_lr"], ["original", "prune50"], ["l2_distance_label"],
                ["lr", "mlp"], ["int8"], ["adv1", "adv2"], ["prune50", "cluster4"],
                "direct_concat_label", "lr",
            ),
        }
        for name, spec in expected.items():
            got = getattr(plan, name)
            assert type(got) is type(spec)
            for f in fields(spec):
                assert getattr(got, f.name) == getattr(spec, f.name), (name, f.name)
                if f.default is not MISSING:
                    assert getattr(got, f.name) != f.default, (name, f.name)
                elif f.default_factory is not MISSING:
                    assert getattr(got, f.name) != f.default_factory(), (name, f.name)
                assert type(getattr(got, f.name)) is type(getattr(spec, f.name)), (name, f.name)
        assert (plan.fpr_caps, plan.repetitions, plan.seed_base, plan.workers) == ([0.01, 0.05], 3, 11, 2)
        assert plan.compression_keys() == ["prune50", "prune75", "int8", "cluster16", "cluster4"]

    def test_empty_finetune_learning_rate_is_none(self):
        plan = parse_plan_text(GOOD.replace("finetune_epochs = 2", "finetune_learning_rate =\nfinetune_epochs = 2"))
        assert plan.compression.finetune_learning_rate is None

    @pytest.mark.parametrize("edit, message", [
        (("batch_size = 25", "batch_size = 2.5"), "batch_size"),
        (("spread = 0.8", "spread = wide"), "spread"),
        (("finetune_epochs = 2", "finetune_epochs = 2\nint8 = maybe"), "int8"),
        (("prune = 0.6,0.8", "prune = 0.6,x"), "prune"),
        (("hidden = 12", "hidden = 12,a"), "hidden"),
        (("max_epochs = 15\n", ""), "max_epochs"),
        (("hidden = 12", "hidden = 0"), "hidden width"),
        (("hidden = 12", "hidden = 8,-2"), "hidden width"),
        (("learning_rate = 0.2", "learning_rate = -1"), "learning_rate must be positive"),
        (("dropout = 0.0", "dropout = 1.5"), "dropout must be in"),
        (("batch_size = 25", "batch_size = 0"), "batch_size must be positive"),
        (("finetune_epochs = 2", "finetune_epochs = -3"), "finetune_epochs must be non-negative"),
        (("finetune_epochs = 2", "finetune_epochs = 2\nfinetune_learning_rate = 0"),
         "finetune_learning_rate must be positive"),
    ], ids=["int", "float", "bool", "float_list", "int_list", "missing_train_key",
            "hidden_zero", "hidden_negative", "learning_rate", "dropout", "batch_size",
            "finetune_epochs", "finetune_learning_rate"])
    def test_mistyped_or_missing_value(self, tmp_path, capsys, edit, message):
        """A mistyped, missing or out-of-range value fails the parse, before any output."""
        assert edit[0] in GOOD
        text = GOOD.replace(*edit)
        with pytest.raises(PlanError, match=message):
            parse_plan_text(text)
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(text, encoding="utf-8")
        assert cli.main(["--plan", str(plan_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        (("prune = 0.6,0.8", "prunes = 0.9"), "unknown key 'prunes' in plan section [compression]"),
        (("[attacks]", "[atacks]"), "unknown plan section [atacks]"),
        (("repetitions = 1", "repetitions = 1\nfpr_caps = 0.1"),
         "unknown key 'fpr_caps' in plan section [run]"),
    ], ids=["key", "section", "key_of_another_section"])
    def test_unknown_section_or_key_is_named(self, tmp_path, capsys, edit, message):
        assert edit[0] in GOOD
        text = GOOD.replace(*edit)
        with pytest.raises(PlanError, match=re.escape(message)):
            parse_plan_text(text)
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(text, encoding="utf-8")
        assert cli.main(["--plan", str(plan_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]

    def test_dp_delta_rejected_at_parse_time(self):
        with pytest.raises(PlanError, match="delta"):
            parse_plan_text(GOOD + "\n[dp]\nclip_norm = 1.0\nnoise_multiplier = 0.5\ndelta = 2\n")


class TestTargetKeys:
    def test_sparsity_not_a_whole_percent_rejected(self):
        bad = GOOD.replace("prune = 0.6,0.8", "prune = 0.857,0.925,0.92")
        with pytest.raises(PlanError, match="0.857"):
            parse_plan_text(bad)

    def test_whole_percents_accepted(self):
        plan = parse_plan_text(GOOD.replace("prune = 0.6,0.8", "prune = 0.07,0.29,0.57,0.99,1"))
        assert plan.compression_keys() == ["prune7", "prune29", "prune57", "prune99", "prune100"]

    @pytest.mark.parametrize("edit, key", [
        ("prune = 0.6,0.60", "prune60"),
        ("prune = 0.6,0.8\nclusters = 8,8", "cluster8"),
    ], ids=["prune", "clusters"])
    def test_two_targets_sharing_a_key_rejected(self, edit, key):
        with pytest.raises(PlanError, match=key):
            parse_plan_text(GOOD.replace("prune = 0.6,0.8", edit))

    def test_fpr_cap_listed_twice_rejected(self):
        assert "fpr_caps = 0.1\n" in GOOD
        with pytest.raises(PlanError, match="fpr cap 0.1 is listed twice"):
            parse_plan_text(GOOD.replace("fpr_caps = 0.1\n", "fpr_caps = 0.1, 0.10\n"))


def test_readme_example_plan_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    plan = parse_plan_text(blocks[0])
    assert plan.dataset.kind == "synth"
    assert plan.dp.noise_multiplier == 0.5
