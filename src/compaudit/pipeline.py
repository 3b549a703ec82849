"""Experiment orchestration over checkpointed stages.

Five stages (``STAGES``) read and write files under the output directory,
so a run can resume from whatever already exists and any stage can be
rerun in isolation. ``LAYOUT`` names every such file: its path and the
stage that writes it.

A full run (``run_plan``) makes each repetition one task that trains,
compresses, attacks and evaluates back to back on a ``_Rep``: the
repetition's dataset, split and models, so no model it made is read back
and one it did not make is loaded once. The tasks share at most one
process pool. A single stage (``run_stage``) runs the same step on a new
``_Rep``. The report reads only files: it loads no model and builds no
dataset, and it scores every cell from its score file, so no metric is
stored anywhere else to go stale.

Every number is a pure function of the plan text and the seed base: cell
seeds are derived by hashing (seed_base, repetition, role), and all
serialization is byte-stable, so rerunning an identical plan reproduces
identical reports. On resume a step skips a score file or accuracy table
only when its reader (``_score_set``, ``_accuracy_table``) accepts it, and
a model file when it exists (loading checks it); a missing or rejected
output is computed again. One failing attack cell never aborts the run.
"""

import csv
import functools
import hashlib
import math
import shutil
from pathlib import Path

import numpy as np

from . import attacks, checkpoint, compress, data, meta, metrics, nn
from .errors import CheckpointError, CompauditError, DependencyError, InputError
from .plan import ExperimentPlan

SCHEMA_VERSION = 1
STAGES = ("train", "compress", "attack", "evaluate", "report")
ROLES = ("victim", "shadow")
# each kind of file: the stage that writes it and its path under the output
# directory; a model file is named by its target key, ``original`` when trained
LAYOUT = {
    "original": ("train", "checkpoints/models/rep{rep}/{target}_{role}.json"),
    "compressed": ("compress", "checkpoints/models/rep{rep}/{target}_{role}.json"),
    "scores": ("attack", "checkpoints/scores/rep{rep}/{cell}.json"),
    "failures": ("attack", "checkpoints/scores/failures_rep{rep}.json"),
    "accuracies": ("evaluate", "checkpoints/metrics/models_rep{rep}.json"),
    "report": ("report", "report/report.json"),
    "summary": ("report", "report/summary.csv"),
    "text": ("report", "report/report.txt"),
    "roc": ("report", "report/roc/rep{rep}__{cell}.csv"),
}
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


def _path(out, kind: str, need: bool = False, **names) -> Path:
    """The ``kind`` file that ``names`` fill in; one a step ``need``s must exist."""
    stage, pattern = LAYOUT[kind]
    path = Path(out) / pattern.format(**names)
    if need and not path.exists():
        raise DependencyError(f"missing the {stage} stage output {path}")
    return path


def _accepted(reader, *args) -> bool:
    """Whether ``reader(*args)`` finds its stage output and accepts it."""
    try:
        reader(*args)
    except (DependencyError, CheckpointError):
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

    def path(self, name: str, need: bool = False) -> Path:
        target, role = name.rsplit("_", 1)
        kind = "original" if target == "original" else "compressed"
        return _path(self.out, kind, need=need, rep=self.rep, target=target, role=role)

    def model(self, name: str):
        """The model ``name``, loaded on first use; one of another family or degree is rejected."""
        if name not in self.models:
            path, target = self.path(name, need=True), name.rsplit("_", 1)[0]
            model = checkpoint.load_model(path)
            targets = {k: (f, compress.degree(f, p)) for k, f, p in self.plan.compression.targets()}
            want, degree = targets.get(target, ("plain", None))
            compressed = isinstance(model, compress.CompressedModel)
            got = model.family if compressed else "plain"
            if got != want:
                raise CheckpointError(f"{path}: holds a {got} model, not a {want} one")
            if compressed and model.degree_tag != degree:
                raise CheckpointError(f"{path}: degree tag {model.degree_tag!r}, "
                                      f"not the {degree!r} of {target}")
            self.models[name] = model
        return self.models[name]

    def save(self, name: str, model):
        checkpoint.save_model(self.path(name), model)
        self.models[name] = model


# ---------------------------------------------------------------------------
# stage: train


def stage_train(r: _Rep):
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


# ---------------------------------------------------------------------------
# stage: compress


def stage_compress(r: _Rep):
    plan, spec = r.plan, r.plan.compression
    ft_epochs = spec.finetune_epochs
    for role in ROLES:
        r.path(f"original_{role}", need=True)
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


def stage_attack(r: _Rep):
    """Score the cells without an accepted score file, and list the cells that fail."""
    failures = []

    def pair(key):  # attacks only run forward passes, so every cell reads the one stored copy
        return tuple(r.model(f"{key}_{role}") for role in ROLES)

    for attack_key, target_key in _attack_cells(r.plan):
        if _accepted(_score_set, r.out, r.plan, r.rep, attack_key, target_key):
            continue
        cell = f"{attack_key}__{target_key}"
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
            _path(r.out, "scores", rep=r.rep, cell=cell),
        )
    # written even when empty: the file marks the step complete
    checkpoint.write_json(failures, _path(r.out, "failures", rep=r.rep))


# ---------------------------------------------------------------------------
# stage: evaluate


def _model_names(plan: ExperimentPlan) -> list[str]:
    """Every model of a repetition, keyed like its checkpoint file."""
    return [f"{key}_{role}" for role in ROLES for key in ["original"] + plan.compression_keys()]


def _model_accuracies(r: _Rep) -> dict:
    """Train and test accuracy of every model of the repetition."""
    table = {}
    for name in _model_names(r.plan):
        role = name.rsplit("_", 1)[1]
        model = r.model(name)
        if isinstance(model, compress.CompressedModel):
            model = model.model
        tr = nn.evaluate_accuracy(model, *r.dataset.xy(getattr(r.split, f"{role}_train")))
        te = nn.evaluate_accuracy(model, *r.dataset.xy(getattr(r.split, f"{role}_test")))
        table[name] = {"train_accuracy": tr, "test_accuracy": te, "overfitting_gap": tr - te}
    return table


def stage_evaluate(r: _Rep):
    if not _accepted(_accuracy_table, r.out, r.plan, r.rep):
        checkpoint.write_json(_model_accuracies(r), _path(r.out, "accuracies", rep=r.rep))


# ---------------------------------------------------------------------------
# stage: report


def _numbers(values) -> bool:
    """Whether every value is a finite JSON number (a boolean is not one)."""
    return all(type(v) in (int, float) and math.isfinite(v) for v in values)


def _accuracy_table(out: Path, plan: ExperimentPlan, rep: int) -> dict:
    """A repetition's accuracy table; it must give each of the plan's models three numbers."""
    path = _path(out, "accuracies", need=True, rep=rep)
    table = checkpoint.read_json(path)
    fields = {"train_accuracy", "test_accuracy", "overfitting_gap"}
    if not (isinstance(table, dict) and set(table) == set(_model_names(plan)) and all(
            isinstance(row, dict) and set(row) == fields and _numbers(row.values())
            for row in table.values())):
        raise CheckpointError(f"{path}: malformed accuracy table (each of the plan's models "
                              f"needs {', '.join(sorted(fields))} as finite numbers)")
    return table


def _failure_list(out: Path, rep: int) -> list:
    """A repetition's failure list: objects holding exactly its rep, a cell and an error."""
    path = _path(out, "failures", need=True, rep=rep)
    listed = checkpoint.read_json(path)
    if not (isinstance(listed, list) and all(
            isinstance(f, dict) and set(f) == {"rep", "cell", "error"} and type(f["rep"]) is int
            and f["rep"] == rep and isinstance(f["cell"], str) and isinstance(f["error"], str)
            for f in listed)):
        raise CheckpointError(f"{path}: malformed failure list (each entry needs rep {rep}, "
                              "and a cell and an error as strings)")
    return listed


def _score_set(out: Path, plan: ExperimentPlan, rep: int, attack: str, target: str):
    """One plan cell's ``AttackScoreSet`` in one repetition, from a file that holds that cell."""
    path = _path(out, "scores", need=True, rep=rep, cell=f"{attack}__{target}")
    payload = checkpoint.read_json(path)
    try:
        found = (payload["attack"], payload["target"], payload["rep"])
        if found != (attack, target, rep):
            raise ValueError(f"holds {found}, not the plan cell {(attack, target, rep)}")
        lists = payload["member_scores"], payload["nonmember_scores"]
        if not all(isinstance(s, list) and s and _numbers(s) for s in lists):
            raise TypeError("scores must be flat, non-empty lists of finite numbers")
        if not _numbers([payload["decision_threshold"]]):
            raise TypeError("the decision threshold must be a finite number")
        return metrics.AttackScoreSet(*lists, float(payload["decision_threshold"]))
    except (KeyError, TypeError, ValueError, InputError) as exc:
        raise CheckpointError(f"{path}: malformed score file ({exc!r})") from None


def _scored_cell(out: Path, plan: ExperimentPlan, rep: int, attack: str, target: str,
                 scores: metrics.AttackScoreSet) -> dict:
    """One cell's metrics in one repetition from its scores; its ROC curve is written."""
    cell = f"{attack}__{target}"
    record = {
        "attack": attack,
        "target": target,
        "rep": rep,
        "balanced_accuracy": metrics.balanced_accuracy(scores),
        "auc": metrics.roc_auc(scores),
        "tpr_at_fpr": {repr(c): metrics.tpr_at_fpr(scores, c) for c in plan.fpr_caps},
        "small_sample": {repr(c): metrics.small_sample_flag(scores, c) for c in plan.fpr_caps},
        "scores_file": str(_path(out, "scores", rep=rep, cell=cell).relative_to(out)),
    }
    metrics.export_roc_csv(metrics.roc_curve(scores), _path(out, "roc", rep=rep, cell=cell))
    return record


def stage_report(plan: ExperimentPlan, out: Path) -> dict:
    """Write the report from inputs all read first; each plan cell is scored or failed."""
    out = Path(out)
    plan_cells = _attack_cells(plan)
    names = {f"{a}__{t}" for a, t in plan_cells}
    models, failures, scored = {}, [], []
    for rep in range(plan.repetitions):
        models[f"rep{rep}"] = _accuracy_table(out, plan, rep)
        listed = [f for f in _failure_list(out, rep) if f["cell"] in names] if names else []
        failures += listed
        failed = {f["cell"] for f in listed}  # the plan cells off the list need a score file
        scored += [(rep, a, t, _score_set(out, plan, rep, a, t))
                   for a, t in plan_cells if f"{a}__{t}" not in failed]
    roc_dir = (out / LAYOUT["roc"][1]).parent
    shutil.rmtree(roc_dir, ignore_errors=True)  # no curve of a cell the plan left out stays
    roc_dir.mkdir(parents=True)
    cells = [_scored_cell(out, plan, *cell) for cell in scored]
    aggregates, by_cell, caps = {}, {}, [repr(c) for c in plan.fpr_caps]
    for c in cells:
        by_cell.setdefault((c["attack"], c["target"]), []).append(c)
    for (attack_key, target_key), group in sorted(by_cell.items()):
        aggregates[f"{attack_key}__{target_key}"] = {
            "balanced_accuracy_median": float(np.median([g["balanced_accuracy"] for g in group])),
            "auc_median": float(np.median([g["auc"] for g in group])),
            "tpr_at_fpr_median": {c: float(np.median([g["tpr_at_fpr"][c] for g in group]))
                                  for c in caps},
            "repetitions": len(group),
        }
    report = {
        "schema_version": SCHEMA_VERSION,
        "plan_hash": plan.plan_hash(),
        "seed_base": plan.seed_base,
        "repetitions": plan.repetitions,
        "fpr_caps": caps,
        "models": models,
        "cells": sorted(cells, key=lambda c: (c["attack"], c["target"], c["rep"])),
        "aggregates": aggregates,
        "failures": failures,
    }
    checkpoint.write_json(report, _path(out, "report"))
    _write_summary_csv(report, _path(out, "summary"))
    _write_text_report(report, _path(out, "text"))
    return report


def _write_summary_csv(report: dict, path: Path):
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
    # every accuracy table holds the original victim
    gaps = [table["original_victim"]["overfitting_gap"] for table in report["models"].values()]
    lines += ["", f"victim overfitting gap (median): {float(np.median(gaps)):.4f}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# drivers


def _rep_task(stage_names, plan: ExperimentPlan, out_str: str, rep: int):
    """Run the steps ``stage_<name>`` in order on one repetition."""
    r = _Rep(plan, out_str, rep)
    for name in stage_names:
        # looked up at call time, so a replaced ``stage_<name>`` attribute is the one called
        globals()[f"stage_{name}"](r)


def _run_per_rep(stage_names, plan: ExperimentPlan, out, workers: int | None):
    """``_rep_task(stage_names)`` for every repetition; a pool has at most one worker each."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    workers = plan.workers if workers is None else workers
    reps = list(range(plan.repetitions))
    task = functools.partial(_rep_task, stage_names)
    if workers <= 1 or len(reps) <= 1:
        for rep in reps:
            task(plan, str(out), rep)
        return
    # imported here: the process-pool machinery costs memory and start-up time
    # that a run without a pool has no use for
    from concurrent.futures import ProcessPoolExecutor

    # each worker starts with the caller's numpy error state, whatever the start method
    initializer = functools.partial(np.seterr, **np.geterr())
    with ProcessPoolExecutor(max_workers=min(workers, len(reps)), initializer=initializer) as pool:
        # drained, so an exception in a worker raises here
        list(pool.map(task, [plan] * len(reps), [str(out)] * len(reps), reps))


def run_stage(plan: ExperimentPlan, out, stage: str, workers: int | None = None):
    if stage not in STAGES:
        raise CompauditError(f"unknown stage {stage!r}")
    if stage == "report":
        return stage_report(plan, out)
    _run_per_rep((stage,), plan, out, workers)


def run_plan(plan: ExperimentPlan, out, workers: int | None = None) -> dict:
    """Run every stage, one task per repetition, and return the report dictionary."""
    _run_per_rep(STAGES[:-1], plan, out, workers)
    return stage_report(plan, out)


def clear_downstream(out, stage: str):
    """Delete the outputs of ``stage`` and everything after it."""
    out = Path(out)
    for s in STAGES[STAGES.index(stage):]:
        for path in (p for pattern in STAGE_OUTPUTS[s] for p in out.glob(pattern)):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
