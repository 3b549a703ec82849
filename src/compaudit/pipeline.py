"""Experiment orchestration over checkpointed stages.

Five stages consume and produce files under the output directory, so a
run can resume from whatever already exists and any stage can be rerun
in isolation:

    train     -> checkpoints/models/rep<r>/original_{victim,shadow}.json
    compress  -> checkpoints/models/rep<r>/<target>_{victim,shadow}.json
    attack    -> checkpoints/scores/rep<r>/<attack>__<target>.json,
                 checkpoints/scores/failures_rep<r>.json (the step's failed cells)
    evaluate  -> checkpoints/metrics/models_rep<r>.json (model accuracies)
    report    -> report/report.json, report/summary.csv, report/report.txt,
                 report/roc/rep<r>__<cell>.csv

A full run (``run_plan``) makes each repetition one task that trains,
compresses, attacks and evaluates back to back on a ``_Rep``: the
repetition's dataset, split and models, so no model it made is read back
and one it did not make is loaded once. The tasks share at most one
process pool. A single stage (``run_stage``) runs the same step on a new
``_Rep``. The report reads only files: it loads no model and builds no
dataset, and it scores every cell from its score file, so no metric is
stored anywhere else to go stale.

Every number is a pure function of the plan text and the seed base: cell
seeds are derived by hashing (seed_base, repetition, role), stages skip
work whose output file already exists (a score or accuracy file that does
not parse is computed again), and all serialization is byte-stable, so
rerunning an identical plan reproduces identical reports.
One attack cell failing is recorded in the report and never aborts the
run.
"""

import csv
import functools
import hashlib
import shutil
from pathlib import Path

import numpy as np

from . import attacks, checkpoint, compress, data, meta, metrics, nn
from .errors import CheckpointError, CompauditError, DependencyError, InputError
from .plan import ExperimentPlan

SCHEMA_VERSION = 1
STAGES = ("train", "compress", "attack", "evaluate", "report")
ROLES = ("victim", "shadow")
# what each stage writes, as glob patterns under the output directory
STAGE_OUTPUTS = {
    "train": ["checkpoints/models"],
    "compress": [f"checkpoints/models/rep*/{key}*.json" for key in ("prune", "int8", "cluster")],
    "attack": ["checkpoints/scores"],
    "evaluate": ["checkpoints/metrics"],
    "report": ["report"],
}

# JSON Schema for report.json (draft 2020-12); bump SCHEMA_VERSION on change.
REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "plan_hash", "seed_base", "repetitions",
        "fpr_caps", "models", "cells", "aggregates", "failures",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "plan_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "seed_base": {"type": "integer"},
        "repetitions": {"type": "integer", "minimum": 1},
        "fpr_caps": {"type": "array", "items": {"type": "string"}},
        "models": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": {
                    "type": "object",
                    "required": ["train_accuracy", "test_accuracy", "overfitting_gap"],
                    "properties": {
                        "train_accuracy": {"type": "number"},
                        "test_accuracy": {"type": "number"},
                        "overfitting_gap": {"type": "number"},
                    },
                },
            },
        },
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "attack", "target", "rep", "balanced_accuracy", "auc",
                    "tpr_at_fpr", "small_sample", "scores_file",
                ],
                "properties": {
                    "attack": {"type": "string"},
                    "target": {"type": "string"},
                    "rep": {"type": "integer"},
                    "balanced_accuracy": {"type": "number", "minimum": 0, "maximum": 1},
                    "auc": {"type": "number", "minimum": 0, "maximum": 1},
                    "tpr_at_fpr": {"type": "object", "additionalProperties": {"type": "number"}},
                    "small_sample": {"type": "object", "additionalProperties": {"type": "boolean"}},
                    "scores_file": {"type": "string"},
                },
            },
        },
        "aggregates": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": [
                    "balanced_accuracy_median", "auc_median",
                    "tpr_at_fpr_median", "repetitions",
                ],
            },
        },
        "failures": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rep", "cell", "error"],
            },
        },
    },
}


def derive_seed(seed_base: int, *parts) -> int:
    """Stable 64-bit seed from the base seed and a structured key."""
    text = ":".join([str(int(seed_base) & 0xFFFFFFFFFFFFFFFF)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def build_dataset(plan: ExperimentPlan) -> data.TabularDataset:
    ds = plan.dataset
    if ds.kind == "synth":
        return data.synth_generate(ds.samples, ds.features, ds.classes, ds.spread, seed=ds.seed)
    return data.load_csv(ds.path, label_column=ds.label_column, has_header=ds.has_header,
                         class_count=ds.classes if ds.classes > 0 else None)


def build_split(plan: ExperimentPlan, dataset: data.TabularDataset, rep: int) -> data.SplitPlan:
    return data.make_split(dataset, plan.split, seed=derive_seed(plan.seed_base, rep, "split"))


def _model_dir(out: Path, rep: int) -> Path:
    return out / "checkpoints" / "models" / f"rep{rep}"


def _intact(path: Path) -> bool:
    """Whether a stage output exists and parses; a damaged one is computed again."""
    if not path.exists():
        return False
    try:
        checkpoint.read_json(path)
    except CheckpointError:
        return False
    return True


class _Rep:
    """One repetition: its dataset and split, and the models it made or loaded.

    ``models`` is keyed like the checkpoint files (``prune70_victim``). A
    model is read from its checkpoint only if this repetition did not make
    it, and then once; the dataset and split are built on first use.
    """

    def __init__(self, plan: ExperimentPlan, out, rep: int):
        self.plan, self.out, self.rep = plan, Path(out), rep
        self.models = {}

    @functools.cached_property
    def dataset(self) -> data.TabularDataset:
        return build_dataset(self.plan)

    @functools.cached_property
    def split(self) -> data.SplitPlan:
        return build_split(self.plan, self.dataset, self.rep)

    def path(self, name: str) -> Path:
        return _model_dir(self.out, self.rep) / f"{name}.json"

    def model(self, name: str):
        """The model ``name``, loaded on first use."""
        if name not in self.models:
            path = self.path(name)
            if not path.exists():
                stage = "train" if name.startswith("original_") else "compress"
                raise DependencyError(f"missing the {stage} stage output {path}")
            self.models[name] = checkpoint.load_model(path)
        return self.models[name]

    def save(self, name: str, model):
        checkpoint.save_model(self.path(name), model)
        self.models[name] = model


# ---------------------------------------------------------------------------
# stage: train


def _train(r: _Rep):
    plan = r.plan
    for role in ROLES:
        if r.path(f"original_{role}").exists():
            continue
        layer_sizes = [r.dataset.n_features] + plan.train.hidden + [r.dataset.class_count]
        dropout = [plan.train.dropout] * (len(layer_sizes) - 2)
        model = nn.init_fcn(layer_sizes, seed=derive_seed(plan.seed_base, r.rep, "init", role),
                            dropout_rates=dropout)
        cfg = plan.train.config(seed=derive_seed(plan.seed_base, r.rep, "train", role))
        train_xy = r.dataset.xy(getattr(r.split, f"{role}_train"))
        if plan.dp is None:
            trained = nn.train(model, train_xy, None, cfg)
        else:
            trained = nn.train_dpsgd(model, train_xy, cfg, plan.dp)
        r.save(f"original_{role}", trained)


def stage_train(plan: ExperimentPlan, out: Path, workers: int = 1):
    _run_per_rep((_train,), plan, out, workers)


# ---------------------------------------------------------------------------
# stage: compress


def _compress(r: _Rep):
    plan, spec = r.plan, r.plan.compression
    ft_epochs = spec.finetune_epochs
    for role in ROLES:
        if not r.path(f"original_{role}").exists():
            raise DependencyError(f"compress needs the train stage output "
                                  f"{r.path(f'original_{role}')}")
        missing = [target for target in spec.targets()
                   if not r.path(f"{target[0]}_{role}").exists()]
        if not missing:
            continue
        original = r.model(f"original_{role}")
        train_idx = getattr(r.split, f"{role}_train")
        if spec.finetune_fraction < 1.0:
            train_idx = data.make_finetune_split(
                train_idx, spec.finetune_fraction,
                seed=derive_seed(plan.seed_base, r.rep, "finetune", role),
            )
        train_xy = r.dataset.xy(train_idx)
        for key, family, parameter in missing:
            seed = derive_seed(plan.seed_base, r.rep, "compress", role, key)
            if family == "prune":
                cm = compress.prune_l1(original, parameter)
            elif family == "cluster":
                cm = compress.cluster_weights(original, parameter, seed=seed)
            else:
                cm = compress.quantize_int8(original)
            if ft_epochs > 0 and (family != "quant" or spec.int8_mode == "qat"):
                cfg = plan.train.config(seed, epochs=ft_epochs, lr=spec.finetune_learning_rate)
                cm = compress.finetune_compressed(cm, train_xy, None, cfg, dp=plan.dp)
            r.save(f"{key}_{role}", cm)


def stage_compress(plan: ExperimentPlan, out: Path, workers: int = 1):
    _run_per_rep((_compress,), plan, out, workers)


# ---------------------------------------------------------------------------
# stage: attack


def _attack_cells(plan: ExperimentPlan) -> list[tuple[str, str]]:
    """All (attack_key, target_key) cells requested by the plan."""
    cells = []
    for a in plan.attacks.nr:
        for t in plan.nr_target_keys():
            cells.append((f"nr_{a}", t))
    for m in plan.attacks.sr_methods:
        for c in plan.attacks.sr_classifiers:
            for t in plan.sr_target_keys():
                cells.append((f"sr_{m}_{c}", t))
    if plan.attacks.mr:
        mr_target = "+".join(sorted(plan.mr_model_keys()))
        for adv in plan.attacks.mr:
            cells.append((f"mr_{adv}", mr_target))
    return sorted(set(cells))


def _run_attack_cell(plan, dataset, split, pair, rep, attack_key, target_key):
    """Scores of one cell; ``pair(key)`` gives the (victim, shadow) models of a target."""
    seed = derive_seed(plan.seed_base, rep, "attack", attack_key, target_key)
    if attack_key.startswith("nr_"):
        name = attack_key[len("nr_"):]
        victim, shadow = pair(target_key)
        if name in ("loss", "mentr"):
            _, scores = attacks.run_nr_metric(dataset, split, victim, shadow, metric=name)
        else:
            with_label = name.startswith("posterior_label")
            clf_kind = name.rsplit("_", 1)[1]
            _, scores = attacks.run_nr_training(
                dataset, split, victim, shadow, clf_kind=clf_kind,
                with_label=with_label, seed=seed,
            )
    elif attack_key.startswith("sr_"):
        method, clf_kind = attack_key[len("sr_"):].rsplit("_", 1)
        construction = attacks.SrConstruction(method)
        victim_orig, shadow_orig = pair("original")
        victim_cm, shadow_cm = pair(target_key)
        _, scores = attacks.run_sr(
            dataset, split, victim_orig, victim_cm, shadow_orig, shadow_cm,
            construction, clf_kind, seed=seed,
        )
    else:  # mr_
        adversary = attack_key[len("mr_"):]
        victim_orig, shadow_orig = pair("original")
        victim_models, shadow_models = [], []
        for key in target_key.split("+"):
            v, s = pair(key)
            victim_models.append(v)
            shadow_models.append(s)
        _, scores = attacks.run_mr(
            dataset, split, victim_orig, victim_models, shadow_orig, shadow_models,
            adversary=adversary,
            sr_construction=attacks.SrConstruction(plan.attacks.mr_sr_method),
            sr_clf_kind=plan.attacks.mr_sr_classifier,
            seed=seed,
        )
    return scores


def _failures_path(out: Path, rep: int) -> Path:
    return out / "checkpoints" / "scores" / f"failures_rep{rep}.json"


def _attack(r: _Rep):
    """Score the cells without an intact score file, and list the cells that fail."""
    failures = []

    def pair(key):  # attacks only run forward passes, so every cell reads the one stored copy
        return tuple(r.model(f"{key}_{role}") for role in ROLES)

    score_dir = r.out / "checkpoints" / "scores" / f"rep{r.rep}"
    for attack_key, target_key in _attack_cells(r.plan):
        cell = f"{attack_key}__{target_key}"
        path = score_dir / f"{cell}.json"
        if _intact(path):
            continue
        try:
            scores = _run_attack_cell(r.plan, r.dataset, r.split, pair, r.rep,
                                      attack_key, target_key)
        except (CheckpointError, DependencyError):
            raise  # a missing or damaged model is an input of every cell that reads it
        except CompauditError as exc:  # per-cell isolation
            failures.append({"rep": r.rep, "cell": cell, "error": str(exc)})
            continue
        checkpoint.write_json(
            {
                "attack": attack_key,
                "target": target_key,
                "rep": r.rep,
                "member_scores": scores.member_scores,
                "nonmember_scores": scores.nonmember_scores,
                "decision_threshold": scores.decision_threshold,
            },
            path,
        )
    # written even when empty: the file marks the step complete
    checkpoint.write_json(failures, _failures_path(r.out, r.rep))


def stage_attack(plan: ExperimentPlan, out: Path, workers: int = 1):
    _run_per_rep((_attack,), plan, out, workers)


# ---------------------------------------------------------------------------
# stage: evaluate


def _accuracy_path(out: Path, rep: int) -> Path:
    return out / "checkpoints" / "metrics" / f"models_rep{rep}.json"


def _model_accuracies(r: _Rep) -> dict:
    """Train and test accuracy of every model of the repetition."""
    table = {}
    for role in ROLES:
        for key in ["original"] + r.plan.compression_keys():
            name = f"{key}_{role}"
            model = r.model(name)
            if isinstance(model, compress.CompressedModel):
                model = model.model
            tr = nn.evaluate_accuracy(model, *r.dataset.xy(getattr(r.split, f"{role}_train")))
            te = nn.evaluate_accuracy(model, *r.dataset.xy(getattr(r.split, f"{role}_test")))
            table[name] = {"train_accuracy": tr, "test_accuracy": te, "overfitting_gap": tr - te}
    return table


def _evaluate(r: _Rep):
    path = _accuracy_path(r.out, r.rep)
    if not _intact(path):
        checkpoint.write_json(_model_accuracies(r), path)


def stage_evaluate(plan: ExperimentPlan, out: Path, workers: int = 1):
    _run_per_rep((_evaluate,), plan, out, workers)


# ---------------------------------------------------------------------------
# stage: report


def _scored_cell(out: Path, plan: ExperimentPlan, rep: int, score_path: Path) -> dict:
    """One cell's metrics from its score file; its ROC curve goes to ``report/roc``."""
    payload = checkpoint.read_json(score_path)
    try:
        attack, target = payload["attack"], payload["target"]
        if not (isinstance(attack, str) and isinstance(target, str)):
            raise TypeError("attack and target must be strings")
        scores = metrics.AttackScoreSet(payload["member_scores"], payload["nonmember_scores"],
                                        decision_threshold=float(payload["decision_threshold"]))
        scores.require_nonempty()
    except (KeyError, TypeError, ValueError, InputError) as exc:
        raise CheckpointError(f"{score_path}: malformed score file ({exc!r})") from None
    record = {
        "attack": attack,
        "target": target,
        "rep": rep,
        "balanced_accuracy": metrics.balanced_accuracy(scores),
        "auc": metrics.roc_auc(scores),
        "tpr_at_fpr": {repr(c): metrics.tpr_at_fpr(scores, c) for c in plan.fpr_caps},
        "small_sample": {repr(c): metrics.small_sample_flag(scores, c) for c in plan.fpr_caps},
        "scores_file": str(score_path.relative_to(out)),
    }
    metrics.export_roc_csv(
        metrics.roc_curve(scores), out / "report" / "roc" / f"rep{rep}__{score_path.stem}.csv")
    return record


def stage_report(plan: ExperimentPlan, out: Path, workers: int = 1) -> dict:
    """Write the report; each plan cell of each repetition needs a score file or a failure."""
    out = Path(out)
    names = [f"{a}__{t}" for a, t in _attack_cells(plan)]
    models, failures, score_paths = {}, [], []
    for rep in range(plan.repetitions):
        table, failed = _accuracy_path(out, rep), _failures_path(out, rep)
        for path, stage in [(table, "evaluate"), (failed, "attack")][: 1 + bool(names)]:
            if not path.exists():
                raise DependencyError(f"report needs the {stage} stage output {path}")
        models[f"rep{rep}"] = checkpoint.read_json(table)
        listed = [f for f in checkpoint.read_json(failed) if f["cell"] in names] if names else []
        failures += listed
        for name in names:
            path = out / "checkpoints" / "scores" / f"rep{rep}" / f"{name}.json"
            if path.exists():
                score_paths.append((rep, path))
            elif name not in {f["cell"] for f in listed}:
                raise DependencyError(f"report needs the attack stage output {path}")
    roc_dir = out / "report" / "roc"
    shutil.rmtree(roc_dir, ignore_errors=True)  # no curve of a cell the plan left out stays
    roc_dir.mkdir(parents=True)
    cells = [_scored_cell(out, plan, rep, path) for rep, path in score_paths]
    aggregates = {}
    by_cell = {}
    for c in cells:
        by_cell.setdefault((c["attack"], c["target"]), []).append(c)
    for (attack_key, target_key), group in sorted(by_cell.items()):
        entry = {
            "balanced_accuracy_median": float(np.median([g["balanced_accuracy"] for g in group])),
            "auc_median": float(np.median([g["auc"] for g in group])),
            "tpr_at_fpr_median": {},
            "repetitions": len(group),
        }
        for cap in plan.fpr_caps:
            entry["tpr_at_fpr_median"][repr(cap)] = float(
                np.median([g["tpr_at_fpr"][repr(cap)] for g in group])
            )
        aggregates[f"{attack_key}__{target_key}"] = entry
    report = {
        "schema_version": SCHEMA_VERSION,
        "plan_hash": plan.plan_hash(),
        "seed_base": plan.seed_base,
        "repetitions": plan.repetitions,
        "fpr_caps": [repr(c) for c in plan.fpr_caps],
        "models": models,
        "cells": sorted(cells, key=lambda c: (c["attack"], c["target"], c["rep"])),
        "aggregates": aggregates,
        "failures": failures,
    }
    report_dir = out / "report"
    checkpoint.write_json(report, report_dir / "report.json")
    _write_summary_csv(report, report_dir / "summary.csv")
    _write_text_report(report, report_dir / "report.txt")
    return report


def _write_summary_csv(report: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    caps = report["fpr_caps"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["attack", "target", "balanced_accuracy_median", "auc_median"]
            + [f"tpr_at_fpr_{c}_median" for c in caps]
            + ["repetitions"]
        )
        for cell_key, agg in report["aggregates"].items():
            attack_key, target_key = cell_key.split("__", 1)
            writer.writerow(
                [attack_key, target_key,
                 repr(agg["balanced_accuracy_median"]), repr(agg["auc_median"])]
                + [repr(agg["tpr_at_fpr_median"][c]) for c in caps]
                + [agg["repetitions"]]
            )


def _write_text_report(report: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"plan hash    : {report['plan_hash']}",
        f"seed base    : {report['seed_base']}",
        f"repetitions  : {report['repetitions']}",
        "",
        f"{'attack':<30} {'target':<28} {'bal.acc':>8} {'auc':>8} "
        + " ".join(f"tpr@{c:>7}" for c in report["fpr_caps"]),
    ]
    for cell_key, agg in report["aggregates"].items():
        attack_key, target_key = cell_key.split("__", 1)
        lines.append(
            f"{attack_key:<30} {target_key:<28} "
            f"{agg['balanced_accuracy_median']:>8.4f} {agg['auc_median']:>8.4f} "
            + " ".join(f"{agg['tpr_at_fpr_median'][c]:>11.4f}" for c in report["fpr_caps"])
        )
    if report["failures"]:
        lines += ["", "failures:"]
        lines += [f"  rep{f['rep']} {f['cell']}: {f['error']}" for f in report["failures"]]
    gaps = []
    for rep_table in report["models"].values():
        for key, acc in rep_table.items():
            if key == "original_victim":
                gaps.append(acc["overfitting_gap"])
    if gaps:
        lines += ["", f"victim overfitting gap (median): {float(np.median(gaps)):.4f}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# drivers


def _rep_task(steps, plan: ExperimentPlan, out_str: str, rep: int):
    """Run ``steps`` in order on one repetition."""
    r = _Rep(plan, out_str, rep)
    for step in steps:
        step(r)


def _run_per_rep(steps, plan: ExperimentPlan, out: Path, workers: int):
    """``_rep_task(steps)`` for every repetition; a pool has at most one worker per repetition."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    reps = list(range(plan.repetitions))
    task = functools.partial(_rep_task, steps)
    if workers <= 1 or len(reps) <= 1:
        for rep in reps:
            task(plan, str(out), rep)
        return
    # imported here: the process-pool machinery costs memory and start-up time
    # that a run without a pool has no use for
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(reps))) as pool:
        # drained, so an exception in a worker raises here
        list(pool.map(task, [plan] * len(reps), [str(out)] * len(reps), reps))


def run_stage(plan: ExperimentPlan, out, stage: str, workers: int | None = None):
    if stage not in STAGES:
        raise CompauditError(f"unknown stage {stage!r}")
    # looked up at call time, so a replaced ``stage_<name>`` attribute is the one called
    stage_fn = globals()[f"stage_{stage}"]
    return stage_fn(plan, Path(out), plan.workers if workers is None else workers)


def run_plan(plan: ExperimentPlan, out, workers: int | None = None) -> dict:
    """Run every stage, one task per repetition, and return the report dictionary."""
    out = Path(out)
    workers = plan.workers if workers is None else workers
    _run_per_rep((_train, _compress, _attack, _evaluate), plan, out, workers)
    return stage_report(plan, out, workers)


def clear_downstream(out, stage: str):
    """Delete the outputs of ``stage`` and everything after it."""
    out = Path(out)
    for s in STAGES[STAGES.index(stage):]:
        for path in (p for pattern in STAGE_OUTPUTS[s] for p in out.glob(pattern)):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
