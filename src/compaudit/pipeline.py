"""Experiment orchestration over checkpointed stages.

Five stages consume and produce files under the output directory, so a
run can resume from whatever already exists and any stage can be rerun
in isolation:

    train     -> checkpoints/models/rep<r>/original_{victim,shadow}.json
    compress  -> checkpoints/models/rep<r>/<target>_{victim,shadow}.json
    attack    -> checkpoints/scores/rep<r>/<attack>__<target>.json
    evaluate  -> checkpoints/metrics/rep<r>/<attack>__<target>.json
    report    -> report/report.json, report/summary.csv, report/report.txt,
                 report/roc/rep<r>__<cell>.csv

Every number is a pure function of the plan text and the seed base: cell
seeds are derived by hashing (seed_base, repetition, role), stages skip
work whose output file already exists (a score or metric file that does
not parse is computed again), and all serialization is byte-stable, so
rerunning an identical plan reproduces identical reports.
One attack cell failing is recorded in the report and never aborts the
run.
"""

import csv
import functools
import hashlib
import shutil
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import attacks, checkpoint, compress, data, meta, metrics, nn
from .errors import CheckpointError, CompauditError, DependencyError
from .plan import ExperimentPlan

SCHEMA_VERSION = 1
STAGES = ("train", "compress", "attack", "evaluate", "report")

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
    schema = data.CsvSchema(
        label_column=ds.label_column,
        has_header=ds.has_header,
        class_count=ds.classes if ds.classes > 0 else None,
    )
    return data.load_csv(ds.path, schema)


def build_split(plan: ExperimentPlan, dataset: data.TabularDataset, rep: int) -> data.SplitPlan:
    sizes = data.SplitSizes(**plan.split)
    return data.make_split(dataset, sizes, seed=derive_seed(plan.seed_base, rep, "split"))


def _train_config(plan: ExperimentPlan, seed: int, epochs=None, lr=None) -> nn.TrainConfig:
    t = plan.train
    return nn.TrainConfig(
        learning_rate=t["learning_rate"] if lr is None else lr,
        batch_size=t["batch_size"],
        max_epochs=t["max_epochs"] if epochs is None else epochs,
        l2_lambda=t["l2_lambda"],
        early_stop_patience=t["early_stop_patience"],
        momentum=t["momentum"],
        seed=seed,
    )


def _dp_config(plan: ExperimentPlan) -> nn.DpConfig | None:
    if plan.dp is None:
        return None
    return nn.DpConfig(
        clip_norm=plan.dp["clip_norm"],
        noise_multiplier=plan.dp["noise_multiplier"],
        delta=plan.dp["delta"],
    )


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


def _train_indices(split: data.SplitPlan, role: str) -> np.ndarray:
    return split.victim_train if role == "victim" else split.shadow_train


def _test_indices(split: data.SplitPlan, role: str) -> np.ndarray:
    return split.victim_test if role == "victim" else split.shadow_test


# ---------------------------------------------------------------------------
# stage: train


def _train_one_rep(plan: ExperimentPlan, out_str: str, rep: int):
    out = Path(out_str)
    dataset = build_dataset(plan)
    split = build_split(plan, dataset, rep)
    dp = _dp_config(plan)
    for role in ("victim", "shadow"):
        path = _model_dir(out, rep) / f"original_{role}.json"
        if path.exists():
            continue
        layer_sizes = [dataset.n_features] + plan.train["hidden"] + [dataset.class_count]
        dropout = [plan.train["dropout"]] * (len(layer_sizes) - 2)
        model = nn.init_fcn(layer_sizes, seed=derive_seed(plan.seed_base, rep, "init", role),
                            dropout_rates=dropout)
        cfg = _train_config(plan, seed=derive_seed(plan.seed_base, rep, "train", role))
        train_xy = dataset.xy(_train_indices(split, role))
        if dp is None:
            valid_xy = (
                dataset.xy(_test_indices(split, role))
                if cfg.early_stop_patience > 0 else None
            )
            trained = nn.train(model, train_xy, valid_xy, cfg)
        else:
            trained = nn.train_dpsgd(model, train_xy, cfg, dp)
        checkpoint.save_model(path, trained)


def stage_train(plan: ExperimentPlan, out: Path, workers: int = 1):
    _run_per_rep(_train_one_rep, plan, out, workers)


# ---------------------------------------------------------------------------
# stage: compress


def _compress_one_rep(plan: ExperimentPlan, out_str: str, rep: int):
    out = Path(out_str)
    dataset = build_dataset(plan)
    split = build_split(plan, dataset, rep)
    dp = _dp_config(plan)
    spec = plan.compression
    ft_epochs = spec.finetune_epochs
    ft_lr = spec.finetune_learning_rate
    for role in ("victim", "shadow"):
        orig_path = _model_dir(out, rep) / f"original_{role}.json"
        if not orig_path.exists():
            raise DependencyError(f"compress needs the train stage output {orig_path}")
        missing = [
            key for key in plan.compression_keys()
            if not (_model_dir(out, rep) / f"{key}_{role}.json").exists()
        ]
        if not missing:
            continue
        original = checkpoint.load_model(orig_path)
        train_idx = _train_indices(split, role)
        if spec.finetune_fraction < 1.0:
            ft_plan = data.make_finetune_split(
                train_idx, spec.finetune_fraction,
                seed=derive_seed(plan.seed_base, rep, "finetune", role),
            )
            train_idx = ft_plan.fine_indices
        train_xy = dataset.xy(train_idx)
        for key in missing:
            path = _model_dir(out, rep) / f"{key}_{role}.json"
            seed = derive_seed(plan.seed_base, rep, "compress", role, key)
            cfg = _train_config(plan, seed=seed, epochs=ft_epochs, lr=ft_lr)
            if key.startswith("prune"):
                cm = compress.prune_l1(original, int(key[len("prune"):]) / 100.0)
                if ft_epochs > 0:
                    cm = compress.finetune_compressed(cm, train_xy, None, cfg, dp=dp)
            elif key.startswith("cluster"):
                cm = compress.cluster_weights(original, int(key[len("cluster"):]), seed=seed)
                if ft_epochs > 0:
                    cm = compress.finetune_compressed(cm, train_xy, None, cfg, dp=dp)
            else:  # int8
                if spec.int8_mode == "qat" and ft_epochs > 0:
                    cm = compress.quantize_int8(
                        original, "qat", train_set=train_xy, config=cfg, dp=dp
                    )
                else:
                    cm = compress.quantize_int8(original, "calibrate")
            checkpoint.save_model(path, cm)


def stage_compress(plan: ExperimentPlan, out: Path, workers: int = 1):
    _run_per_rep(_compress_one_rep, plan, out, workers)


# ---------------------------------------------------------------------------
# stage: attack


def _load_pair(out: Path, rep: int, key: str):
    pair = []
    for role in ("victim", "shadow"):
        path = _model_dir(out, rep) / f"{key}_{role}.json"
        if not path.exists():
            raise DependencyError(f"attack needs the compress/train stage output {path}")
        pair.append(checkpoint.load_model(path))
    return pair


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
    extra = {}
    if attack_key.startswith("nr_"):
        name = attack_key[len("nr_"):]
        victim, shadow = pair(target_key)
        if name in ("loss", "mentr"):
            tau, scores = attacks.run_nr_metric(dataset, split, victim, shadow, metric=name)
            extra["tau"] = tau
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
    return scores, extra


def _attack_one_rep(plan: ExperimentPlan, out_str: str, rep: int):
    out = Path(out_str)
    dataset = build_dataset(plan)
    split = build_split(plan, dataset, rep)
    failures = []
    # attacks only run forward passes, so the cells of a repetition share
    # one loaded copy of each model
    pair = functools.cache(lambda key: _load_pair(out, rep, key))
    # the directory marks stage completion even when every cell fails
    (out / "checkpoints" / "scores" / f"rep{rep}").mkdir(parents=True, exist_ok=True)
    for attack_key, target_key in _attack_cells(plan):
        cell = f"{attack_key}__{target_key}"
        path = out / "checkpoints" / "scores" / f"rep{rep}" / f"{cell}.json"
        if _intact(path):
            continue
        try:
            scores, extra = _run_attack_cell(plan, dataset, split, pair, rep, attack_key, target_key)
        except DependencyError:
            raise
        except CompauditError as exc:  # per-cell isolation
            failures.append({"rep": rep, "cell": cell, "error": str(exc)})
            continue
        checkpoint.write_json(
            {
                "attack": attack_key,
                "target": target_key,
                "rep": rep,
                "member_scores": scores.member_scores.tolist(),
                "nonmember_scores": scores.nonmember_scores.tolist(),
                "decision_threshold": scores.decision_threshold,
                "extra": extra,
            },
            path,
        )
    return failures


def stage_attack(plan: ExperimentPlan, out: Path, workers: int = 1) -> list[dict]:
    results = _run_per_rep(_attack_one_rep, plan, out, workers)
    failures = [f for sub in results for f in (sub or [])]
    if failures:
        existing = []
        fail_path = out / "failures.json"
        if fail_path.exists():
            existing = checkpoint.read_json(fail_path)
        merged = {(f["rep"], f["cell"]): f for f in existing + failures}
        checkpoint.write_json([merged[k] for k in sorted(merged)], fail_path)
    return failures


# ---------------------------------------------------------------------------
# stage: evaluate


def _evaluate_one_rep(plan: ExperimentPlan, out_str: str, rep: int):
    out = Path(out_str)
    score_dir = out / "checkpoints" / "scores" / f"rep{rep}"
    if not score_dir.exists():
        if _attack_cells(plan):
            raise DependencyError(f"evaluate needs the attack stage output {score_dir}")
        return
    (out / "checkpoints" / "metrics" / f"rep{rep}").mkdir(parents=True, exist_ok=True)
    for score_path in sorted(score_dir.glob("*.json")):
        metric_path = out / "checkpoints" / "metrics" / f"rep{rep}" / score_path.name
        if _intact(metric_path):
            continue
        payload = checkpoint.read_json(score_path)
        scores = metrics.AttackScoreSet(
            payload["member_scores"],
            payload["nonmember_scores"],
            decision_threshold=payload["decision_threshold"],
        )
        record = {
            "attack": payload["attack"],
            "target": payload["target"],
            "rep": rep,
            "balanced_accuracy": metrics.balanced_accuracy(scores),
            "auc": metrics.roc_auc(scores),
            "tpr_at_fpr": {},
            "small_sample": {},
            "scores_file": str(score_path.relative_to(out)),
        }
        for cap in plan.fpr_caps:
            record["tpr_at_fpr"][repr(cap)] = metrics.tpr_at_fpr(scores, cap)
            record["small_sample"][repr(cap)] = metrics.small_sample_flag(scores, cap)
        checkpoint.write_json(record, metric_path)


def stage_evaluate(plan: ExperimentPlan, out: Path, workers: int = 1):
    _run_per_rep(_evaluate_one_rep, plan, out, workers)


# ---------------------------------------------------------------------------
# stage: report


def _model_accuracies(plan: ExperimentPlan, out: Path, rep: int) -> dict:
    dataset = build_dataset(plan)
    split = build_split(plan, dataset, rep)
    table = {}
    for role in ("victim", "shadow"):
        for key in ["original"] + plan.compression_keys():
            path = _model_dir(out, rep) / f"{key}_{role}.json"
            if not path.exists():
                continue
            loaded = checkpoint.load_model(path)
            model = loaded.model if isinstance(loaded, compress.CompressedModel) else loaded
            tr = nn.evaluate_accuracy(model, *dataset.xy(_train_indices(split, role)))
            te = nn.evaluate_accuracy(model, *dataset.xy(_test_indices(split, role)))
            table[f"{key}_{role}"] = {
                "train_accuracy": tr,
                "test_accuracy": te,
                "overfitting_gap": tr - te,
            }
    return table


def stage_report(plan: ExperimentPlan, out: Path, workers: int = 1) -> dict:
    out = Path(out)
    cells = []
    for rep in range(plan.repetitions):
        metric_dir = out / "checkpoints" / "metrics" / f"rep{rep}"
        expected = _attack_cells(plan)
        if expected and not metric_dir.exists():
            raise DependencyError(f"report needs the evaluate stage output {metric_dir}")
        if metric_dir.exists():
            for p in sorted(metric_dir.glob("*.json")):
                cells.append(checkpoint.read_json(p))
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
    failures = []
    fail_path = out / "failures.json"
    if fail_path.exists():
        failures = checkpoint.read_json(fail_path)
    models = {f"rep{rep}": _model_accuracies(plan, out, rep) for rep in range(plan.repetitions)}
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
    _export_rocs(plan, out, report_dir / "roc")
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


def _export_rocs(plan: ExperimentPlan, out: Path, roc_dir: Path):
    roc_dir.mkdir(parents=True, exist_ok=True)
    for rep in range(plan.repetitions):
        score_dir = out / "checkpoints" / "scores" / f"rep{rep}"
        if not score_dir.exists():
            continue
        for score_path in sorted(score_dir.glob("*.json")):
            payload = checkpoint.read_json(score_path)
            scores = metrics.AttackScoreSet(
                payload["member_scores"], payload["nonmember_scores"]
            )
            metrics.export_roc_csv(
                metrics.roc_curve(scores), roc_dir / f"rep{rep}__{score_path.stem}.csv"
            )


# ---------------------------------------------------------------------------
# drivers


def _run_per_rep(fn, plan: ExperimentPlan, out: Path, workers: int):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    reps = list(range(plan.repetitions))
    if workers <= 1 or len(reps) <= 1:
        return [fn(plan, str(out), rep) for rep in reps]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, [plan] * len(reps), [str(out)] * len(reps), reps))


def run_stage(plan: ExperimentPlan, out, stage: str, workers: int | None = None):
    workers = plan.workers if workers is None else workers
    out = Path(out)
    if stage == "train":
        return stage_train(plan, out, workers)
    if stage == "compress":
        return stage_compress(plan, out, workers)
    if stage == "attack":
        return stage_attack(plan, out, workers)
    if stage == "evaluate":
        return stage_evaluate(plan, out, workers)
    if stage == "report":
        return stage_report(plan, out, workers)
    raise CompauditError(f"unknown stage {stage!r}")


def run_plan(plan: ExperimentPlan, out, workers: int | None = None) -> dict:
    """Run every stage in order and return the report dictionary."""
    for stage in STAGES:
        result = run_stage(plan, out, stage, workers=workers)
    return result


def clear_downstream(out, stage: str):
    """Delete the outputs of ``stage`` and everything after it."""
    out = Path(out)
    start = STAGES.index(stage)
    for s in STAGES[start:]:
        if s == "train":
            path = out / "checkpoints" / "models"
            if path.is_dir():
                shutil.rmtree(path)
        elif s == "compress":
            models = out / "checkpoints" / "models"
            if models.is_dir():
                for p in models.glob("rep*/*.json"):
                    if not p.name.startswith("original_"):
                        p.unlink()
        elif s == "attack":
            for path in (out / "checkpoints" / "scores", out / "failures.json"):
                if path.is_dir():
                    shutil.rmtree(path)
                elif path.exists():
                    path.unlink()
        elif s == "evaluate":
            path = out / "checkpoints" / "metrics"
            if path.is_dir():
                shutil.rmtree(path)
        elif s == "report":
            path = out / "report"
            if path.is_dir():
                shutil.rmtree(path)
