"""Output checks that recompute each quantity apart from the program.

Every check reads the audit's files directly (``json``, not the program's
checkpoint loader) and recomputes what it checks with its own code:
balanced accuracy at the stored threshold, the pairwise Mann-Whitney AUC,
TPR at each FPR cap by an exhaustive threshold scan, the compression rule
of each compressed checkpoint, and train/test accuracy by a forward pass
written here. Only the inputs come from the program: the synthetic
dataset and the split, which the accuracy check needs to know which rows
a model was trained on.

A check returns a list of problems; an empty list means it passed.
"""

import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-12


# ---------------------------------------------------------------------------
# attack metrics


def balanced_accuracy(member, nonmember, threshold) -> float:
    """Mean of TPR and TNR for the rule "member iff score >= threshold"."""
    tpr = sum(1 for s in member if s >= threshold) / len(member)
    tnr = sum(1 for s in nonmember if s < threshold) / len(nonmember)
    return 0.5 * (tpr + tnr)


def pairwise_auc(member, nonmember) -> float:
    """Share of (member, non-member) pairs ranked right; ties count half."""
    m = np.asarray(member, dtype=float)[:, None]
    n = np.asarray(nonmember, dtype=float)[None, :]
    wins = np.count_nonzero(m > n) + 0.5 * np.count_nonzero(m == n)
    return float(wins) / (m.size * n.size)


def tpr_at_fpr_scan(member, nonmember, cap: float) -> float:
    """Largest TPR over every threshold whose FPR stays within ``cap``.

    The thresholds are +inf, every observed score and -inf; a score at or
    above the threshold counts as member.
    """
    m = np.asarray(member, dtype=float)
    n = np.asarray(nonmember, dtype=float)
    best = 0.0
    for t in np.concatenate([[np.inf], np.unique(np.concatenate([m, n])), [-np.inf]]):
        if np.count_nonzero(n >= t) / n.size <= cap:
            best = max(best, np.count_nonzero(m >= t) / m.size)
    return float(best)


def check_scores(payload: dict, cell: dict, caps: list[str], sizes: dict) -> list[str]:
    """Compare one score file with its ``report.json`` cell."""
    name = f"rep{cell['rep']} {cell['attack']}__{cell['target']}"
    member, nonmember = payload["member_scores"], payload["nonmember_scores"]
    problems = []
    if len(member) != sizes["victim_train"] or len(nonmember) != sizes["victim_test"]:
        problems.append(
            f"{name}: {len(member)} member / {len(nonmember)} non-member scores, "
            f"plan has {sizes['victim_train']} / {sizes['victim_test']}"
        )
    if not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in member + nonmember):
        problems.append(f"{name}: a score is not finite or lies outside [0, 1]")
    if not member or not nonmember:
        return problems + [f"{name}: empty score population"]
    expect = {
        "balanced_accuracy": balanced_accuracy(member, nonmember, payload["decision_threshold"]),
        "auc": pairwise_auc(member, nonmember),
    }
    for key, value in expect.items():
        if abs(cell[key] - value) > TOL:
            problems.append(f"{name}: report {key} {cell[key]!r}, recomputed {value!r}")
    for cap in caps:
        value = tpr_at_fpr_scan(member, nonmember, float(cap))
        if abs(cell["tpr_at_fpr"][cap] - value) > TOL:
            problems.append(
                f"{name}: report tpr@{cap} {cell['tpr_at_fpr'][cap]!r}, recomputed {value!r}"
            )
    return problems


# ---------------------------------------------------------------------------
# compression rules, checked on the stored weights


def check_compression(weights: list, family: str, param) -> list[str]:
    """The family's rule on the weight matrices themselves.

    prune: at least floor(s * P) of the P weights are zero; cluster: at
    most N distinct values per matrix; int8: every weight is an integer
    multiple of max|w| / 127 with the integer in [-127, 127].
    """
    mats = [np.asarray(w, dtype=float) for w in weights]
    problems = []
    if family == "prune":
        total = sum(w.size for w in mats)
        zeros = sum(int(np.count_nonzero(w == 0.0)) for w in mats)
        need = math.floor(param * total)
        if zeros < need:
            problems.append(f"{zeros} zero weights, sparsity {param} needs {need}")
    elif family == "cluster":
        for i, w in enumerate(mats):
            distinct = np.unique(w).size
            if distinct > param:
                problems.append(f"matrix {i} holds {distinct} distinct values, {param} allowed")
    elif family == "int8":
        for i, w in enumerate(mats):
            peak = float(np.max(np.abs(w)))
            if peak == 0.0:
                continue
            q = w / (peak / 127.0)
            if np.max(np.abs(q - np.round(q))) > 1e-6 or np.max(np.abs(np.round(q))) > 127:
                problems.append(f"matrix {i} has a weight off the int8 grid of max|w|/127")
    else:
        problems.append(f"unknown family {family!r}")
    return problems


# ---------------------------------------------------------------------------
# model accuracy by an independent forward pass


def predict(weights: list, biases: list, X: np.ndarray) -> np.ndarray:
    """Arg-max class of a dense ReLU network, dropout off.

    Matrices are stored (out, in), as the checkpoint format documents.
    """
    h = X
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ np.asarray(w, dtype=float).T + np.asarray(b, dtype=float)
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return np.argmax(h, axis=1)


def accuracy(model: dict, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(predict(model["weights"], model["biases"], X) == y))


# ---------------------------------------------------------------------------
# a whole audit directory


def _read(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_audit(out: Path, workload, inputs) -> tuple[list[str], dict]:
    """Check one audit's outputs; returns (problems, facts).

    ``inputs(rep)`` gives ``(X, y, split)`` for a repetition, where split
    maps each split name to its row indices. ``facts`` holds the
    recomputed per-cell AUC medians, the report's cell and failure
    counts, and each original model's train accuracy.
    """
    out = Path(out)
    report = _read(out / "report" / "report.json")
    problems = []
    expected = {(f"{a}__{t}", r) for a, t in workload.cells() for r in range(workload.repetitions)}
    present = {(f"{c['attack']}__{c['target']}", c["rep"]) for c in report["cells"]}
    failed = {(f["cell"], f["rep"]) for f in report["failures"]}
    if present | failed != expected:
        problems.append(
            f"report cells do not match the plan: {len(present)} present, "
            f"{len(failed)} failed, {len(expected)} expected"
        )
    if report["fpr_caps"] != workload.fpr_caps:
        problems.append(f"report caps {report['fpr_caps']} != plan caps {workload.fpr_caps}")

    aucs = {}
    for cell in report["cells"]:
        payload = _read(out / cell["scores_file"])
        problems += check_scores(payload, cell, workload.fpr_caps, workload.split)
        key = f"{cell['attack']}__{cell['target']}"
        aucs.setdefault(key, []).append(pairwise_auc(payload["member_scores"],
                                                     payload["nonmember_scores"]))
    auc_medians = {k: float(np.median(v)) for k, v in aucs.items()}
    for key, agg in report["aggregates"].items():
        if abs(agg["auc_median"] - auc_medians.get(key, -1.0)) > TOL:
            problems.append(f"{key}: report AUC median {agg['auc_median']!r} "
                            f"!= recomputed {auc_medians.get(key)!r}")

    train_acc = {}
    targets = workload.compression_targets()
    for rep in range(workload.repetitions):
        X, y, split = inputs(rep)
        for key in ["original"] + list(targets):
            for role in ("victim", "shadow"):
                path = out / "checkpoints" / "models" / f"rep{rep}" / f"{key}_{role}.json"
                if not path.exists():
                    problems.append(f"missing model checkpoint {path.relative_to(out)}")
                    continue
                model = _read(path)
                name = f"rep{rep} {key}_{role}"
                if key in targets:
                    problems += [f"{name}: {p}" for p in
                                 check_compression(model["weights"], *targets[key])]
                stored = report["models"][f"rep{rep}"][f"{key}_{role}"]
                for part, rows in (("train", split[f"{role}_train"]),
                                   ("test", split[f"{role}_test"])):
                    acc = accuracy(model, X[rows], y[rows])
                    # one row of slack: arg-max over logits here, over
                    # softmax outputs in the program, may break a tie apart
                    if abs(acc - stored[f"{part}_accuracy"]) > 1.0 / len(rows) + TOL:
                        problems.append(f"{name}: report {part} accuracy "
                                        f"{stored[f'{part}_accuracy']!r}, recomputed {acc!r}")
                    if key == "original" and part == "train":
                        train_acc[name] = acc
    for name, acc in train_acc.items():
        if acc <= 1.0 / workload.classes:
            problems.append(f"{name}: train accuracy {acc:.3f} is not above chance "
                            f"{1.0 / workload.classes:.3f}")
    facts = {
        "auc_medians": auc_medians,
        "cells": len(report["cells"]),
        "failed_cells": len(report["failures"]),
        "original_train_accuracy": train_acc,
    }
    return problems, facts


def check_sr_beats_nr(auc_medians: dict, target: str) -> list[str]:
    """The paired attack on ``target`` beats every single-model attack on it."""
    sr = {k: v for k, v in auc_medians.items() if k.startswith("sr_") and k.endswith(f"__{target}")}
    nr = {k: v for k, v in auc_medians.items() if k.startswith("nr_") and k.endswith(f"__{target}")}
    if not sr or not nr:
        return [f"no paired and single-model attacks on {target} to compare"]
    if max(sr.values()) <= max(nr.values()):
        return [f"paired AUC {max(sr.values()):.4f} on {target} does not beat the best "
                f"single-model AUC {max(nr.values()):.4f}"]
    return []


def report_files(out: Path) -> dict:
    """Relative path -> bytes of every file under ``report/``."""
    root = Path(out) / "report"
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


def compare_reports(a: Path, b: Path, what: str) -> list[str]:
    fa, fb = report_files(a), report_files(b)
    if not fa:
        return [f"{what}: no report files under {a}"]
    differ = sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
    if differ:
        return [f"{what}: {len(differ)} report files differ, first {differ[0]}"]
    return []
