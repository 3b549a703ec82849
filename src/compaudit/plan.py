"""Declarative experiment plans.

A plan is a UTF-8 INI file (``key = value`` inside named sections; ``;``
starts a comment, also after a value or header when whitespace precedes it)
describing one audit end to end: the dataset, the split sizes, training
hyperparameters, an optional DP-SGD defense, the compression matrix, the
attack selection, the metric caps, and the repetition/seeding scheme.
Validation happens up front, before any training starts.

Sections and keys (defaults in parentheses)::

    [dataset] kind = synth | csv
      synth: samples, features, classes, spread, seed (0)
      csv:   path, label_column (-1), has_header (false), classes (optional)
    [split]   victim_train, victim_test, shadow_train, shadow_test
    [train]   learning_rate, batch_size, max_epochs, hidden (256,128),
              dropout (0.1), l2_lambda (0), early_stop_patience (0),
              momentum (0)
    [dp]      optional: clip_norm, noise_multiplier, delta (1e-5)
    [compression] prune (empty, e.g. 0.6,0.7), clusters (empty, e.g. 16,8,4),
              int8 (false), int8_mode (qat), finetune_epochs (10),
              finetune_learning_rate (train lr), finetune_fraction (1.0)
    [attacks] nr (empty; of loss, mentr, posterior_lr, posterior_rf,
              posterior_label_lr, posterior_label_rf), nr_targets (all),
              sr_methods (empty; of sorted_concat, sorted_concat_label,
              direct_concat_label, l2_distance_label), sr_classifiers (rf),
              sr_targets (all), mr (empty; of adv1, adv2), mr_models (all),
              mr_sr_method (sorted_concat_label), mr_sr_classifier (rf)
    [metrics] fpr_caps (0.001)
    [run]     repetitions (5), seed_base (0), workers (1)

Target keys are "original", "prune<percent>", "int8", and
"cluster<count>"; attack selections may reference only declared targets.
"""

import configparser
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .attacks import SrConstruction
from .errors import PlanError

NR_ATTACKS = ("loss", "mentr", "posterior_lr", "posterior_rf", "posterior_label_lr", "posterior_label_rf")
SR_CLASSIFIERS = ("lr", "rf", "mlp")
MR_ADVERSARIES = ("adv1", "adv2")


@dataclass
class DatasetSpec:
    kind: str
    samples: int = 0
    features: int = 0
    classes: int = 0
    spread: float = 1.0
    seed: int = 0
    path: str = ""
    label_column: int = -1
    has_header: bool = False


@dataclass
class CompressionSpec:
    prune: list[float] = field(default_factory=list)
    clusters: list[int] = field(default_factory=list)
    int8: bool = False
    int8_mode: str = "qat"
    finetune_epochs: int = 10
    finetune_learning_rate: float | None = None
    finetune_fraction: float = 1.0

    def target_keys(self) -> list[str]:
        keys = [f"prune{int(round(s * 100))}" for s in self.prune]
        if self.int8:
            keys.append("int8")
        keys += [f"cluster{n}" for n in self.clusters]
        return keys


@dataclass
class AttackSpec:
    nr: list[str] = field(default_factory=list)
    nr_targets: list[str] = field(default_factory=lambda: ["all"])
    sr_methods: list[str] = field(default_factory=list)
    sr_classifiers: list[str] = field(default_factory=lambda: ["rf"])
    sr_targets: list[str] = field(default_factory=lambda: ["all"])
    mr: list[str] = field(default_factory=list)
    mr_models: list[str] = field(default_factory=lambda: ["all"])
    mr_sr_method: str = "sorted_concat_label"
    mr_sr_classifier: str = "rf"


@dataclass
class ExperimentPlan:
    dataset: DatasetSpec
    split: dict
    train: dict
    dp: dict | None
    compression: CompressionSpec
    attacks: AttackSpec
    fpr_caps: list[float]
    repetitions: int
    seed_base: int
    workers: int
    raw_text: str = ""

    def plan_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode("utf-8")).hexdigest()

    def compression_keys(self) -> list[str]:
        return self.compression.target_keys()

    def nr_target_keys(self) -> list[str]:
        if self.attacks.nr_targets == ["all"]:
            return ["original"] + self.compression_keys()
        return list(self.attacks.nr_targets)

    def sr_target_keys(self) -> list[str]:
        if self.attacks.sr_targets == ["all"]:
            return self.compression_keys()
        return list(self.attacks.sr_targets)

    def mr_model_keys(self) -> list[str]:
        if self.attacks.mr_models == ["all"]:
            return self.compression_keys()
        return list(self.attacks.mr_models)

    def validate(self):
        if self.repetitions < 1:
            raise PlanError("repetitions must be >= 1")
        if self.workers < 1:
            raise PlanError("workers must be >= 1")
        if self.dataset.kind not in ("synth", "csv"):
            raise PlanError(f"unknown dataset kind {self.dataset.kind!r}")
        if self.dataset.kind == "synth":
            if min(self.dataset.samples, self.dataset.features, self.dataset.classes) < 1:
                raise PlanError("synth dataset needs samples, features, and classes")
        elif not self.dataset.path:
            raise PlanError("csv dataset needs a path")
        for key in ("victim_train", "victim_test", "shadow_train", "shadow_test"):
            if self.split[key] < 1:
                raise PlanError(f"split size {key} must be >= 1")
        for s in self.compression.prune:
            if not 0.0 <= s <= 1.0:
                raise PlanError(f"prune sparsity {s} outside [0, 1]")
        for n in self.compression.clusters:
            if n < 1:
                raise PlanError(f"cluster count {n} must be >= 1")
        if self.compression.int8_mode not in ("qat", "calibrate"):
            raise PlanError(f"unknown int8 mode {self.compression.int8_mode!r}")
        if not 0.0 < self.compression.finetune_fraction <= 1.0:
            raise PlanError("finetune_fraction must be in (0, 1]")
        declared = set(self.compression_keys())
        for a in self.attacks.nr:
            if a not in NR_ATTACKS:
                raise PlanError(f"unknown nr attack {a!r}")
        for t in self.nr_target_keys():
            if t != "original" and t not in declared:
                raise PlanError(f"nr target {t!r} is not in the compression matrix")
        for m in self.attacks.sr_methods:
            if m not in {c.value for c in SrConstruction}:
                raise PlanError(f"unknown sr method {m!r}")
        for c in self.attacks.sr_classifiers:
            if c not in SR_CLASSIFIERS:
                raise PlanError(f"unknown sr classifier {c!r}")
        for t in self.sr_target_keys():
            if t not in declared:
                raise PlanError(f"sr target {t!r} is not in the compression matrix")
        for adv in self.attacks.mr:
            if adv not in MR_ADVERSARIES:
                raise PlanError(f"unknown mr adversary {adv!r}")
        if self.attacks.mr:
            models = self.mr_model_keys()
            for t in models:
                if t not in declared:
                    raise PlanError(f"mr model {t!r} is not in the compression matrix")
            if len(models) < 2:
                raise PlanError("mr needs at least 2 compressed models")
        if self.attacks.mr_sr_method not in {c.value for c in SrConstruction}:
            raise PlanError(f"unknown mr sr method {self.attacks.mr_sr_method!r}")
        if self.attacks.mr_sr_classifier not in SR_CLASSIFIERS:
            raise PlanError(f"unknown mr sr classifier {self.attacks.mr_sr_classifier!r}")
        for cap in self.fpr_caps:
            if not 0.0 <= cap <= 1.0:
                raise PlanError(f"fpr cap {cap} outside [0, 1]")
        if self.dp is not None:
            if self.dp["clip_norm"] <= 0:
                raise PlanError("dp clip_norm must be positive")
            if self.dp["noise_multiplier"] < 0:
                raise PlanError("dp noise_multiplier must be non-negative")


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _strs(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def parse_plan_text(text: str) -> ExperimentPlan:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise PlanError(f"plan does not parse: {exc}") from None
    try:
        ds = cp["dataset"]
        dataset = DatasetSpec(
            kind=ds.get("kind", "synth"),
            samples=ds.getint("samples", 0),
            features=ds.getint("features", 0),
            classes=ds.getint("classes", 0),
            spread=ds.getfloat("spread", 1.0),
            seed=ds.getint("seed", 0),
            path=ds.get("path", ""),
            label_column=ds.getint("label_column", -1),
            has_header=ds.getboolean("has_header", False),
        )
        sp = cp["split"]
        split = {k: int(sp[k]) for k in ("victim_train", "victim_test", "shadow_train", "shadow_test")}
        tr = cp["train"]
        train = {
            "learning_rate": float(tr["learning_rate"]),
            "batch_size": int(tr["batch_size"]),
            "max_epochs": int(tr["max_epochs"]),
            "hidden": _ints(tr.get("hidden", "256,128")),
            "dropout": tr.getfloat("dropout", 0.1),
            "l2_lambda": tr.getfloat("l2_lambda", 0.0),
            "early_stop_patience": tr.getint("early_stop_patience", 0),
            "momentum": tr.getfloat("momentum", 0.0),
        }
        dp = None
        if cp.has_section("dp"):
            d = cp["dp"]
            dp = {
                "clip_norm": float(d["clip_norm"]),
                "noise_multiplier": float(d["noise_multiplier"]),
                "delta": d.getfloat("delta", 1e-5),
            }
        comp = CompressionSpec()
        if cp.has_section("compression"):
            c = cp["compression"]
            comp = CompressionSpec(
                prune=_floats(c.get("prune", "")),
                clusters=_ints(c.get("clusters", "")),
                int8=c.getboolean("int8", False),
                int8_mode=c.get("int8_mode", "qat"),
                finetune_epochs=c.getint("finetune_epochs", 10),
                finetune_learning_rate=(
                    c.getfloat("finetune_learning_rate")
                    if c.get("finetune_learning_rate", "") else None
                ),
                finetune_fraction=c.getfloat("finetune_fraction", 1.0),
            )
        att = AttackSpec()
        if cp.has_section("attacks"):
            a = cp["attacks"]
            att = AttackSpec(
                nr=_strs(a.get("nr", "")),
                nr_targets=_strs(a.get("nr_targets", "all")),
                sr_methods=_strs(a.get("sr_methods", "")),
                sr_classifiers=_strs(a.get("sr_classifiers", "rf")),
                sr_targets=_strs(a.get("sr_targets", "all")),
                mr=_strs(a.get("mr", "")),
                mr_models=_strs(a.get("mr_models", "all")),
                mr_sr_method=a.get("mr_sr_method", "sorted_concat_label"),
                mr_sr_classifier=a.get("mr_sr_classifier", "rf"),
            )
        caps = [0.001]
        if cp.has_section("metrics"):
            caps = _floats(cp["metrics"].get("fpr_caps", "0.001"))
        run = cp["run"] if cp.has_section("run") else {}
        plan = ExperimentPlan(
            dataset=dataset,
            split=split,
            train=train,
            dp=dp,
            compression=comp,
            attacks=att,
            fpr_caps=caps,
            repetitions=int(run.get("repetitions", 5)),
            seed_base=int(run.get("seed_base", 0)),
            workers=int(run.get("workers", 1)),
            raw_text=text,
        )
    except (KeyError, ValueError, configparser.Error) as exc:
        raise PlanError(f"plan is missing or mistypes a field: {exc}") from None
    plan.validate()
    return plan


def parse_plan(path) -> ExperimentPlan:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PlanError(f"cannot read plan: {exc}") from None
    return parse_plan_text(text)
