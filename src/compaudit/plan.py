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
              dropout (0.1), l2_lambda (0)
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

Each section parses straight into the dataclass that uses it: the fields
above, with their types and defaults, are the dataclass fields, so a key
the plan leaves out keeps its field's default. ``plan.split`` is a
``data.SplitSizes``, ``plan.train`` a ``TrainSpec`` (``plan.train.hidden``),
``plan.dp`` an ``nn.DpConfig`` or None (``plan.dp.noise_multiplier``),
and ``[metrics]`` and ``[run]`` fill ``ExperimentPlan``'s own fields.
A section or key not listed above is an error that names it, and a float
that is not finite (``nan``, ``inf``) is a mistyped value.

With ``int8_mode = qat`` the int8 model is fine-tuned from its float
weights like every other compressed model; ``calibrate`` leaves it snapped
onto its grid.

Target keys are "original", "prune<percent>", "int8", and
"cluster<count>"; attack selections may reference only declared targets.
A prune sparsity must be a whole percent (0.85, not 0.857), and no two
targets may share a key.
"""

import configparser
import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin

from . import data, nn
from .attacks import SrConstruction
from .errors import InputError, PlanError

NR_ATTACKS = ("loss", "mentr", "posterior_lr", "posterior_rf", "posterior_label_lr", "posterior_label_rf")
SR_CLASSIFIERS = ("lr", "rf", "mlp")
MR_ADVERSARIES = ("adv1", "adv2")


@dataclass
class DatasetSpec:
    kind: str = "synth"
    samples: int = 0
    features: int = 0
    classes: int = 0
    spread: float = 1.0
    seed: int = 0
    path: str = ""
    label_column: int = -1
    has_header: bool = False


@dataclass
class TrainSpec:
    learning_rate: float
    batch_size: int
    max_epochs: int
    hidden: list[int] = field(default_factory=lambda: [256, 128])
    dropout: float = 0.1
    l2_lambda: float = 0.0

    def __post_init__(self):
        self.config(seed=0)  # nn.TrainConfig's own checks
        if any(h < 1 for h in self.hidden):
            raise InputError("each hidden width must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise InputError("dropout must be in [0, 1)")

    def config(self, seed: int, epochs: int | None = None, lr: float | None = None) -> nn.TrainConfig:
        """The training run's config; fine-tuning passes its own epochs and rate."""
        return nn.TrainConfig(
            learning_rate=self.learning_rate if lr is None else lr, batch_size=self.batch_size,
            max_epochs=self.max_epochs if epochs is None else epochs, l2_lambda=self.l2_lambda,
            seed=seed)


@dataclass
class CompressionSpec:
    prune: list[float] = field(default_factory=list)
    clusters: list[int] = field(default_factory=list)
    int8: bool = False
    int8_mode: str = "qat"
    finetune_epochs: int = 10
    finetune_learning_rate: float | None = None
    finetune_fraction: float = 1.0

    def __post_init__(self):
        if self.finetune_epochs < 0:
            raise InputError("finetune_epochs must be non-negative")
        if self.finetune_learning_rate is not None and self.finetune_learning_rate <= 0:
            raise InputError("finetune_learning_rate must be positive")

    def targets(self) -> list[tuple[str, str, float | int | None]]:
        """(key, family, sparsity or cluster count) of each compressed model."""
        return ([(f"prune{int(round(s * 100))}", "prune", s) for s in self.prune]
                + ([("int8", "quant", None)] if self.int8 else [])
                + [(f"cluster{n}", "cluster", n) for n in self.clusters])


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
    split: data.SplitSizes
    train: TrainSpec
    dp: nn.DpConfig | None
    compression: CompressionSpec
    attacks: AttackSpec
    # fields read from the section their metadata names
    fpr_caps: list[float] = field(default_factory=lambda: [0.001], metadata={"section": "metrics"})
    repetitions: int = field(default=5, metadata={"section": "run"})
    seed_base: int = field(default=0, metadata={"section": "run"})
    workers: int = field(default=1, metadata={"section": "run"})
    raw_text: str = ""

    def plan_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode("utf-8")).hexdigest()

    def compression_keys(self) -> list[str]:
        return [key for key, _, _ in self.compression.targets()]

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
        if not 0 <= self.seed_base < 2**64:
            raise PlanError(f"seed_base {self.seed_base} outside [0, 2**64)")
        if self.workers < 1:
            raise PlanError("workers must be >= 1")
        for s in self.compression.prune:  # before any key is built from it
            if not 0.0 <= s <= 1.0:
                raise PlanError(f"prune sparsity {s} outside [0, 1]")
            if s != round(s * 100) / 100:
                raise PlanError(f"prune sparsity {s} is not a whole percent")
        keys = self.compression_keys()
        declared = set(keys)
        sr_methods = [c.value for c in SrConstruction]
        not_declared = "{!r} is not in the compression matrix"
        # (message naming the bad value, the values chosen, the values allowed)
        for message, chosen, allowed in (
            ("unknown dataset kind {!r}", [self.dataset.kind], ("synth", "csv")),
            ("unknown int8 mode {!r}", [self.compression.int8_mode], ("qat", "calibrate")),
            ("unknown nr attack {!r}", self.attacks.nr, NR_ATTACKS),
            ("nr target " + not_declared, self.nr_target_keys(), declared | {"original"}),
            ("unknown sr method {!r}", self.attacks.sr_methods, sr_methods),
            ("unknown sr classifier {!r}", self.attacks.sr_classifiers, SR_CLASSIFIERS),
            ("sr target " + not_declared, self.sr_target_keys(), declared),
            ("unknown mr adversary {!r}", self.attacks.mr, MR_ADVERSARIES),
            ("mr model " + not_declared, self.mr_model_keys() if self.attacks.mr else [], declared),
            ("unknown mr sr method {!r}", [self.attacks.mr_sr_method], sr_methods),
            ("unknown mr sr classifier {!r}", [self.attacks.mr_sr_classifier], SR_CLASSIFIERS),
        ):
            for value in chosen:
                if value not in allowed:
                    raise PlanError(message.format(value))
        if self.dataset.kind == "synth":
            if min(self.dataset.samples, self.dataset.features, self.dataset.classes) < 1:
                raise PlanError("synth dataset needs samples, features, and classes")
        elif not self.dataset.path:
            raise PlanError("csv dataset needs a path")
        for key, size in vars(self.split).items():
            if size < 1:
                raise PlanError(f"split size {key} must be >= 1")
        for n in self.compression.clusters:
            if n < 1:
                raise PlanError(f"cluster count {n} must be >= 1")
        for key in keys:
            if keys.count(key) > 1:
                raise PlanError(f"compression target {key!r} is requested twice")
        if not 0.0 < self.compression.finetune_fraction <= 1.0:
            raise PlanError("finetune_fraction must be in (0, 1]")
        if self.attacks.mr and len(self.mr_model_keys()) < 2:
            raise PlanError("mr needs at least 2 compressed models")
        for cap in self.fpr_caps:
            if not 0.0 <= cap <= 1.0:
                raise PlanError(f"fpr cap {cap} outside [0, 1]")
            if self.fpr_caps.count(cap) > 1:
                raise PlanError(f"fpr cap {cap} is listed twice")


def _convert(hint, text: str):
    """``text`` as a value of the type ``hint`` names; a list is comma-separated."""
    if hint is bool:
        if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {text!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if get_origin(hint) is list:
        return [_convert(get_args(hint)[0], tok.strip()) for tok in text.split(",") if tok.strip()]
    if isinstance(hint, UnionType):  # ``float | None``: an empty value is None
        return _convert(get_args(hint)[0], text) if text else None
    if hint is float and not math.isfinite(float(text)):
        raise ValueError(f"not a finite number: {text!r}")
    return hint(text)


def _values(cp, flds, section: str | None = None) -> dict:
    """The plan's value of each field it sets, converted by the field's type hint.

    A field is read from ``section``, or else from the section its metadata
    names. A key the plan leaves out is left out, so the field keeps its
    default; a field without a default must be set.
    """
    values = {}
    for f in flds:
        name = section or f.metadata["section"]
        sec = cp[name] if cp.has_section(name) else {}
        if f.name in sec:
            try:
                values[f.name] = _convert(f.type, sec[f.name])
            except ValueError as exc:
                raise PlanError(f"plan field [{name}] {f.name} is mistyped: {exc}") from None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise PlanError(f"plan section [{name}] is missing the required key {f.name!r}")
    return values


# the dataclass that each section other than [metrics] and [run] parses into
_SECTIONS = {"dataset": DatasetSpec, "split": data.SplitSizes, "train": TrainSpec,
             "dp": nn.DpConfig, "compression": CompressionSpec, "attacks": AttackSpec}


def _check_names(cp):
    """Raise ``PlanError`` naming the first section or key that no field reads."""
    known = {name: {f.name for f in fields(cls)} for name, cls in _SECTIONS.items()}
    for f in fields(ExperimentPlan):  # [metrics] and [run]; the rest have no section
        known.setdefault(f.metadata.get("section"), set()).add(f.name)
    for name in cp.sections():
        if name not in known:
            raise PlanError(f"unknown plan section [{name}]")
        for key in cp[name]:
            if key not in known[name]:
                raise PlanError(f"unknown key {key!r} in plan section [{name}]")


def parse_plan_text(text: str) -> ExperimentPlan:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise PlanError(f"plan does not parse: {exc}") from None
    _check_names(cp)
    specs = {}
    for name, cls in _SECTIONS.items():
        if name != "dp" or cp.has_section("dp"):  # a plan without [dp] has no defense
            try:  # the dataclass's own checks become plan errors
                specs[name] = cls(**_values(cp, fields(cls), name))
            except InputError as exc:
                raise PlanError(f"{name} {exc}") from None
    plan = ExperimentPlan(
        **{"dp": None} | specs,
        raw_text=text,
        **_values(cp, [f for f in fields(ExperimentPlan) if f.metadata]),
    )
    plan.validate()
    return plan


def parse_plan(path) -> ExperimentPlan:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PlanError(f"cannot read plan: {exc}") from None
    return parse_plan_text(text)
