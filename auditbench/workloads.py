"""The benchmark's workloads: one experiment plan and one CLI invocation each.

A plan is kept as INI sections so that the output checks know the split
sizes, compression targets and attack cells without asking the program.
Each synthetic dataset has a fixed seed of its own, as in the acceptance
plans; the benchmark's ``--seed`` becomes the CLI's ``--seed-base``, the
seed of every split, initialisation and attack in the audit.
"""

from dataclasses import dataclass

# The acceptance-9 plan: the only workload that uses the process pool.
POOL_SMALL = {
    "dataset": {"kind": "synth", "samples": 600, "features": 12, "classes": 4, "spread": 1.5,
                "seed": 9},
    "split": {"victim_train": 120, "victim_test": 120, "shadow_train": 120, "shadow_test": 120},
    "train": {"learning_rate": 0.15, "batch_size": 24, "max_epochs": 12, "hidden": "24,12",
              "dropout": 0.1},
    "compression": {"prune": "0.7,0.9", "int8": "true", "finetune_epochs": 3},
    "attacks": {"nr": "loss,posterior_rf", "sr_methods": "sorted_concat_label",
                "sr_classifiers": "rf", "mr": "adv2"},
    "metrics": {"fpr_caps": "0.01,0.1"},
    "run": {"repetitions": 2},
}

# The directional acceptance world (2400 x 64, 30 classes, 256-128, pruned
# 85/92/97 % with a 4-epoch fine-tune), cut from 300 + 300 victim and
# 600 + 600 shadow rows to 200 + 200 each, with single-model attacks on the
# 85 % model only, so that two audits fit in one run.
MR_PAPER = {
    "dataset": {"kind": "synth", "samples": 2400, "features": 64, "classes": 30, "spread": 2.2,
                "seed": 101},
    "split": {"victim_train": 200, "victim_test": 200, "shadow_train": 200, "shadow_test": 200},
    "train": {"learning_rate": 0.15, "batch_size": 32, "max_epochs": 30, "hidden": "256,128",
              "dropout": 0.1, "l2_lambda": 0.0001},
    "compression": {"prune": "0.85,0.92,0.97", "finetune_epochs": 4},
    "attacks": {"nr": "loss,mentr,posterior_rf,posterior_label_rf", "nr_targets": "prune85",
                "sr_methods": "sorted_concat_label", "sr_classifiers": "rf",
                "sr_targets": "prune85", "mr": "adv1,adv2"},
    "metrics": {"fpr_caps": "0.01,0.1"},
    "run": {"repetitions": 1},
}

# DP-SGD training and DP-SGD fine-tuning of all three compression families.
# The fine-tune learning rate is lower than the training rate because a
# cluster centroid moves by the summed gradient of all its member weights;
# at the training rate the 8-cluster models fall to chance.
DP_DEFENSE = {
    "dataset": {"kind": "synth", "samples": 1600, "features": 64, "classes": 10, "spread": 1.2,
                "seed": 7},
    "split": {"victim_train": 300, "victim_test": 300, "shadow_train": 300, "shadow_test": 300},
    "train": {"learning_rate": 0.1, "batch_size": 32, "max_epochs": 20, "hidden": "256,128",
              "dropout": 0.1, "l2_lambda": 0.0001},
    "dp": {"clip_norm": 1.0, "noise_multiplier": 0.5, "delta": 1e-5},
    "compression": {"prune": "0.7", "int8": "true", "int8_mode": "qat", "clusters": "8",
                    "finetune_epochs": 4, "finetune_learning_rate": 0.01},
    "attacks": {"nr": "loss,mentr", "sr_methods": "sorted_concat_label",
                "sr_classifiers": "lr"},
    "metrics": {"fpr_caps": "0.01,0.1"},
    "run": {"repetitions": 1},
}


@dataclass(frozen=True)
class Workload:
    name: str
    plan: dict
    workers: int
    # target on which the paired attack must beat every single-model attack
    paired_beats_single: str = ""

    def render(self) -> str:
        """The plan's INI text."""
        lines = []
        for section, keys in self.plan.items():
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in keys.items()]
            lines.append("")
        return "\n".join(lines)

    # -- facts the output checks need, read from the plan, not the program

    @property
    def repetitions(self) -> int:
        return int(self.plan["run"]["repetitions"])

    @property
    def classes(self) -> int:
        return int(self.plan["dataset"]["classes"])

    @property
    def split(self) -> dict:
        return {k: int(v) for k, v in self.plan["split"].items()}

    @property
    def fpr_caps(self) -> list[str]:
        return [c.strip() for c in str(self.plan["metrics"]["fpr_caps"]).split(",")]

    def compression_targets(self) -> dict:
        """Target key -> (family, parameter) for every compressed model."""
        comp = self.plan.get("compression", {})
        targets = {}
        for s in _items(comp.get("prune", "")):
            targets[f"prune{int(round(float(s) * 100))}"] = ("prune", float(s))
        if str(comp.get("int8", "false")).lower() == "true":
            targets["int8"] = ("int8", None)
        for n in _items(comp.get("clusters", "")):
            targets[f"cluster{int(n)}"] = ("cluster", int(n))
        return targets

    def cells(self) -> list[tuple[str, str]]:
        """Every (attack, target) cell the plan asks for."""
        att = self.plan["attacks"]
        compressed = list(self.compression_targets())

        def targets(key, default):
            chosen = _items(att.get(key, "all"))
            return default if chosen == ["all"] else chosen

        cells = [(f"nr_{a}", t) for a in _items(att.get("nr", ""))
                 for t in targets("nr_targets", ["original"] + compressed)]
        cells += [(f"sr_{m}_{c}", t) for m in _items(att.get("sr_methods", ""))
                  for c in _items(att.get("sr_classifiers", "rf"))
                  for t in targets("sr_targets", compressed)]
        mr_target = "+".join(sorted(targets("mr_models", compressed)))
        cells += [(f"mr_{adv}", mr_target) for adv in _items(att.get("mr", ""))]
        return sorted(set(cells))


def _items(text) -> list[str]:
    return [tok.strip() for tok in str(text).split(",") if tok.strip()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pool-small", POOL_SMALL, workers=2),
        Workload("mr-paper", MR_PAPER, workers=1, paired_beats_single="prune85"),
        Workload("dp-defense", DP_DEFENSE, workers=1),
    )
}
