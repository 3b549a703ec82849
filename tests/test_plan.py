"""Plan parsing and validation tests."""

import re
from pathlib import Path

import pytest

from compaudit.errors import PlanError
from compaudit.plan import parse_plan_text

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
        assert plan.train["hidden"] == [256, 128]
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

    def test_dp_section_optional_and_validated(self):
        plan = parse_plan_text(GOOD + "\n[dp]\nclip_norm = 1.0\nnoise_multiplier = 0.5\n")
        assert plan.dp["noise_multiplier"] == 0.5
        with pytest.raises(PlanError):
            parse_plan_text(GOOD + "\n[dp]\nclip_norm = -1\nnoise_multiplier = 0.5\n")


def test_readme_example_plan_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    plan = parse_plan_text(blocks[0])
    assert plan.dataset.kind == "synth"
    assert plan.dp["noise_multiplier"] == 0.5
