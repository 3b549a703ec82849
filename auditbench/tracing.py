"""Traced audit: spans recorded around the calls into each compaudit module.

Run as a script, this file imports the package, replaces the public
functions of each module with wrappers that record a span (name, start,
end, parent), runs the ``compaudit`` CLI in this one process, and writes
the spans and counts to a JSON file when the audit ends::

    python3 auditbench/tracing.py SPANS.json --plan plan.ini --out DIR --workers 1

Wrappers replace module attributes, so a call is seen when the caller
looks the name up on the module at call time (``nn.forward(...)`` or a
module-internal call). A name bound elsewhere by ``from ... import`` still
points at the original; ``unseen_bindings`` lists those.

``layer_metrics`` turns the spans into per-layer figures. A span's self
time is its duration minus the durations of its child spans; spans nest
strictly because the traced run is single-threaded.
"""

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module, attribute, span name) of every wrapped function
WRAPPED = [
    ("pipeline", "run_stage", "pipeline.other"),
    ("pipeline", "stage_train", "pipeline.train"),
    ("pipeline", "stage_compress", "pipeline.compress"),
    ("pipeline", "stage_attack", "pipeline.attack"),
    ("pipeline", "stage_evaluate", "pipeline.evaluate"),
    ("pipeline", "stage_report", "pipeline.report"),
    ("pipeline", "_run_attack_cell", "pipeline.cell"),
    ("plan", "parse_plan_text", "plan.parse"),
    ("data", "synth_generate", "data.build"),
    ("data", "load_csv", "data.build"),
    ("data", "make_split", "data.build"),
    ("data", "make_finetune_split", "data.build"),
    ("nn", "train", "nn.train"),
    ("nn", "train_dpsgd", "nn.train_dpsgd"),
    ("nn", "forward", "nn.forward"),
    ("nn", "evaluate_accuracy", "nn.forward"),
    ("compress", "prune_l1", "compress.prune"),
    ("compress", "quantize_int8", "compress.quantize"),
    ("compress", "cluster_weights", "compress.cluster"),
    ("compress", "finetune_compressed", "compress.finetune"),
    ("meta", "_fit_rf", "meta.fit_rf"),
    ("meta", "_fit_mlp", "meta.fit_mlp"),
    ("meta", "_fit_lr", "meta.fit_lr"),
    ("meta", "RandomForestMeta.score_proba", "meta.score_rf"),
    ("meta", "out_of_bag_proba", "meta.oob"),
    ("meta", "fit", "meta.other"),
    ("meta", "score_proba", "meta.other"),
    ("meta", "MlpMeta.score_proba", "meta.other"),
    ("meta", "LogisticMeta.score_proba", "meta.other"),
    ("attacks", "run_nr_metric", "attacks.runner"),
    ("attacks", "run_nr_training", "attacks.runner"),
    ("attacks", "run_sr", "attacks.runner"),
    ("attacks", "run_mr", "attacks.runner"),
    ("attacks", "fit_sr_classifier", "attacks.runner"),
    ("attacks", "_cross_fitted_sr_probabilities", "attacks.runner"),
    ("attacks", "calibrate_threshold", "attacks.calibrate"),
    ("attacks", "modified_entropy", "attacks.features"),
    ("attacks", "build_nr_metadata_batch", "attacks.features"),
    ("attacks", "build_sr_metadata_batch", "attacks.features"),
    ("attacks", "_sr_features", "attacks.features"),
    ("attacks", "_posteriors", "attacks.features"),
    ("attacks", "_meta_records", "attacks.features"),
    ("attacks", "mr_loss_concat", "attacks.features"),
    ("attacks", "mr_posterior_concat", "attacks.features"),
    ("metrics", "balanced_accuracy", "metrics.eval"),
    ("metrics", "roc_auc", "metrics.eval"),
    ("metrics", "roc_curve", "metrics.eval"),
    ("metrics", "tpr_at_fpr", "metrics.eval"),
    ("metrics", "small_sample_flag", "metrics.eval"),
    ("metrics", "export_roc_csv", "metrics.roc_export"),
    ("checkpoint", "save_model", "checkpoint.save"),
    ("checkpoint", "save_classifier", "checkpoint.save"),
    ("checkpoint", "load_model", "checkpoint.load"),
    ("checkpoint", "load_classifier", "checkpoint.load"),
]
# Work counted from a wrapped function's arguments or result:
# (module, attribute) -> (counter, fn(args, kwargs, result) -> number).
MEASURED = {
    ("nn", "forward"): ("nn.forward_rows",
                        lambda a, k, r: len(a[1] if len(a) > 1 else k["inputs"])),
    ("meta", "_fit_rf"): ("meta.fit_rf_trees", lambda a, k, r: len(r.trees)),
}
# Call counts: metric name -> span name.
CALLS = {
    "pipeline.cells": "pipeline.cell",
    "data.build_calls": "data.build",
    "nn.train_calls": "nn.train",
    "nn.train_dpsgd_calls": "nn.train_dpsgd",
    "meta.fit_mlp_calls": "meta.fit_mlp",
    "checkpoint.save_calls": "checkpoint.save",
    "checkpoint.load_calls": "checkpoint.load",
}

# Self-time metrics: metric name -> the span names whose self time it sums.
SELF_TIME = {
    "pipeline.self_s": ["pipeline.other", "pipeline.cell", "pipeline.train", "pipeline.compress",
                        "pipeline.attack", "pipeline.evaluate", "pipeline.report"],
    "plan.parse_s": ["plan.parse"],
    "data.build_s": ["data.build"],
    "nn.train_s": ["nn.train"],
    "nn.train_dpsgd_s": ["nn.train_dpsgd"],
    "nn.forward_s": ["nn.forward"],
    "compress.prune_s": ["compress.prune"],
    "compress.quantize_s": ["compress.quantize"],
    "compress.cluster_s": ["compress.cluster"],
    "compress.finetune_s": ["compress.finetune"],
    "meta.fit_rf_s": ["meta.fit_rf"],
    "meta.score_rf_s": ["meta.score_rf"],
    "meta.oob_s": ["meta.oob"],
    "meta.fit_mlp_s": ["meta.fit_mlp"],
    "meta.fit_lr_s": ["meta.fit_lr"],
    "meta.other_s": ["meta.other"],
    "attacks.self_s": ["attacks.runner"],
    "attacks.features_s": ["attacks.features"],
    "attacks.calibrate_s": ["attacks.calibrate"],
    "metrics.eval_s": ["metrics.eval"],
    "metrics.roc_export_s": ["metrics.roc_export"],
    "checkpoint.save_s": ["checkpoint.save"],
    "checkpoint.load_s": ["checkpoint.load"],
}
# Wall time of each pipeline stage, children included.
STAGE_TIME = {f"pipeline.{s}_s": f"pipeline.{s}"
              for s in ("train", "compress", "attack", "evaluate", "report")}


class Tracer:
    """Spans and counts held in memory until the traced run ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.loaded_paths = set()
        self._stack = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][1:3] = [start, time.perf_counter()]
                self._stack.pop()
            if count is not None:
                key, measure = count
                self.counts[key] = self.counts.get(key, 0) + measure(args, kwargs, result)
            if name == "checkpoint.load":
                self.loaded_paths.add(str(args[0] if args else kwargs["path"]))
            return result

        return traced

    def install(self, package: str = "compaudit"):
        """Wrap every function in ``WRAPPED`` where the program looks it up."""
        swapped = {}
        for module_name, attr, name in WRAPPED:
            owner = importlib.import_module(f"{package}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(name, original, MEASURED.get((module_name, attr))))
            swapped[id(original)] = getattr(owner, leaf)
        # tables of functions held by a module, such as meta's fitter table
        for module_name in {m for m, *_ in WRAPPED}:
            module = importlib.import_module(f"{package}.{module_name}")
            for value in vars(module).values():
                if isinstance(value, dict):
                    for key, fn in list(value.items()):
                        if id(fn) in swapped:
                            value[key] = swapped[id(fn)]

    def dump(self, path):
        counts = dict(self.counts, **{"checkpoint.load_files": len(self.loaded_paths)})
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": counts}),
                              encoding="utf-8")


def unseen_bindings(package: str = "compaudit") -> list[str]:
    """``module.name`` bindings that still point at an unwrapped original.

    Call after ``install``. These are names bound by ``from ... import``,
    so calls through them bypass the wrappers.
    """
    originals = {}
    for module_name, attr, _ in WRAPPED:
        owner = importlib.import_module(f"{package}.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        originals[id(owner.__wrapped__)] = f"{module_name}.{attr}"
    found = []
    modules = sorted(n for n in sys.modules if n == package or n.startswith(package + "."))
    for module_name in modules:
        for name, value in vars(sys.modules[module_name]).items():
            if id(value) in originals:
                found.append(f"{module_name}.{name} -> {originals[id(value)]}")
    return sorted(found)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict, traced_wall: float) -> dict:
    """Per-layer figures from one traced run's spans and counts.

    ``trace.untraced_s`` is the traced wall time not covered by any span:
    interpreter start, imports and the CLI's own code.
    """
    spans, counts = trace["spans"], trace["counts"]
    own = self_times(spans)
    by_name = {}
    for (name, *_), t in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
    out = {metric: sum(by_name.get(n, 0.0) for n in names) for metric, names in SELF_TIME.items()}
    for metric, name in STAGE_TIME.items():
        out[metric] = sum(end - start for n, start, end, _ in spans if n == name)
    for metric, name in CALLS.items():
        out[metric] = sum(1 for span in spans if span[0] == name)
    for counter, _ in MEASURED.values():
        out[counter] = counts.get(counter, 0)
    out["checkpoint.load_files"] = counts.get("checkpoint.load_files", 0)
    out["trace.audit_s"] = traced_wall
    out["trace.untraced_s"] = traced_wall - sum(own)
    out["trace.spans"] = len(spans)
    return out


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    tracer.install()
    from compaudit import cli

    code = cli.main(cli_args)
    tracer.dump(spans_path)
    Path(spans_path).with_suffix(".unseen.json").write_text(
        json.dumps(unseen_bindings(), indent=1), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
