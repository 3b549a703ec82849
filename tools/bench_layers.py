"""Layer microbenchmarks: the median time of the audit's hottest layers.

    PYTHONPATH=src python3 tools/bench_layers.py --out BENCH.json \
        [--parent <parent checkout>/src]

The ``change`` side is the ``compaudit`` that ``PYTHONPATH`` names. With
``--parent``, the same process also imports that directory's ``compaudit``
under the name ``compaudit_parent`` (the package's modules import each
other relatively) and times it as the ``parent`` side. The two sides then
take turns sample by sample, layer by layer, so drift in the machine's
speed falls on both alike. The figures go under ``sides.<side>`` of the
output file, and where both sides are present the file also holds each
layer's parent-over-change ratio of medians.

Each layer runs once per side as a warm-up and then ``REPEATS`` (15)
times. The checkpoint layers' times fall into two modes, and with 5
samples the two sides' medians of ``save_cluster_s`` could land on
different modes. The warm-up matters: in a fresh process the C library
maps and unmaps each temporary of a few hundred kilobytes, which makes the
first fit much slower than the same fit inside an audit. A second run into a file that already
holds a side adds its samples to that side's, and a layer's figure is the
median of all of them. The layers are

- an adversary-1 stacker fit (400 x 10) and an adversary-2 stacker fit
  (400 x 93), with the multi-reference attack's MLP hyperparameters;
- a logistic-regression fit (600 x 30, default hyperparameters);
- ``kmeans_1d`` on 32,768 values with k = 8;
- a forward pass of a 64-256-128-10 model on 300 rows;
- checkpoint save and load of a 64-256-128-10 model and of its 8-cluster
  and 70 %-pruned versions, and the save of its int8 version;
- one training epoch of that model on 300 rows in batches of 32: plain
  SGD, DP-SGD (clip 1, noise multiplier 0.5), and a constrained fine-tune
  of each compression family (70 % pruned, int8 quantization-aware
  training, 8 clusters). ``qat_int8_s`` times
  ``finetune_compressed(quantize_int8(model), ...)``; on a checkout whose
  ``quantize_int8`` keeps no float latents, the same call times a
  fine-tune from the grid values, which is the same work;
- a 300-tree random-forest fit on 400 rows of 45 sorted posteriors next to
  a 45-class one-hot label (90 columns), that forest's scores on 200 new
  rows, and its out-of-bag scores on the 400 training rows;
- a 100-tree random-forest fit on 240 rows of 4 sorted posteriors
  (``rf_fit_narrow_s``), the shape of the acceptance-9 plan's single-model
  posterior forests: its steps are many and small, so it is bound by the
  work per step, where ``rf_fit_s`` is mostly work per cell;
- threshold calibration on 300 member and 300 non-member values, and one
  cell's metrics on those values: balanced accuracy, AUC, and the TPR at
  FPR caps 0.01 and 0.001.

Each sample records wall time (``samples``) and the process's CPU time
(``cpu_samples``); CPU time leaves out the time the process waited for a
core. Each side's layer figure holds the median and the quartiles of its
samples (``median``, ``q1``, ``q3``; ``cpu_median``, ``cpu_q1``,
``cpu_q3``), so a ratio can be read against that side's spread.
``parent_over_change`` holds the ratios of wall medians and
``parent_over_change_cpu`` those of CPU medians. Each side also records
``checkpoint_bytes``: the size of its saved checkpoint of the plain,
``prune70``, ``int8`` and ``cluster8`` model.

The environment record is taken after ``import compaudit``, which sets the
BLAS thread variables, so it names the thread count the layers ran with.
"""

import compaudit  # first: it pins the BLAS threads before numpy loads

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPEATS = 15
MODULES = ("attacks", "checkpoint", "compress", "meta", "metrics", "nn")


def load_package(name: str, src: Path):
    """The package in ``src/compaudit`` imported under the name ``name``."""
    init = src / "compaudit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def environment(package) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = None  # the build paths in the full record name no property of the run
    package = Path(package.__file__).resolve().parent
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(package.rglob("*.py"))),
    }


def stacker_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, d))
    X[:, :3] += 0.8 * y[:, None]
    return X, y


def posterior_rows(n, classes, seed):
    """Sorted posteriors next to one-hot labels; members are a little more confident."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    logits = rng.normal(size=(n, classes)) * (2.0 + 0.3 * y[:, None])
    P = np.exp(logits)
    P /= P.sum(axis=1, keepdims=True)
    onehot = np.eye(classes)[rng.integers(0, classes, n)]
    return np.concatenate([-np.sort(-P, axis=1), onehot], axis=1), y


def layers(tmp: Path, package) -> dict:
    """Each layer's name and a call that runs it once on ``package``'s code."""
    attacks, checkpoint, compress, meta, metrics, nn = (
        importlib.import_module(f"{package.__name__}.{m}") for m in MODULES)
    X1, y1 = stacker_rows(400, 10, 1)
    X2, y2 = stacker_rows(400, 93, 2)
    X3, y3 = stacker_rows(600, 30, 3)
    weights = np.random.default_rng(4).normal(0.0, 0.05, 32768)
    model = nn.init_fcn([64, 256, 128, 10], seed=5)
    clustered = compress.cluster_weights(model, 8, seed=6)
    int8 = compress.quantize_int8(model)
    pruned = compress.prune_l1(model, 0.7)
    rng = np.random.default_rng(11)
    xy = (rng.normal(size=(300, 64)), rng.integers(0, 10, 300))
    epoch = nn.TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=1, seed=12)
    dp = nn.DpConfig(clip_norm=1.0, noise_multiplier=0.5)
    X4, y4 = posterior_rows(400, 45, 13)
    X5, _ = posterior_rows(200, 45, 14)
    forest_hyper = meta.RfHyper(n_trees=300)
    forest = meta.fit("rf", X4, y4, forest_hyper, 15)
    X6, y6 = posterior_rows(240, 4, 17)
    X6 = X6[:, :4]
    calibration = np.random.default_rng(16)
    member, nonmember = calibration.normal(size=300), calibration.normal(0.3, 1.0, size=300)
    cell = metrics.AttackScoreSet(member, nonmember, decision_threshold=0.15)
    saved = {"plain": model, "cluster8": clustered, "int8": int8, "prune70": pruned}
    paths = {name: tmp / f"{name}.json" for name in saved}
    for name, m in saved.items():
        checkpoint.save_model(paths[name], m)
    return {
        "mlp_fit_adv1_s": lambda: meta.fit("mlp", X1, y1, attacks.MR_MLP_DEFAULTS[attacks.ADV1], 7),
        "mlp_fit_adv2_s": lambda: meta.fit("mlp", X2, y2, attacks.MR_MLP_DEFAULTS[attacks.ADV2], 8),
        "lr_fit_s": lambda: meta.fit("lr", X3, y3, seed=9),
        "kmeans_1d_s": lambda: compress.kmeans_1d(weights, 8, seed=10),
        "forward_s": lambda: nn.forward(model, xy[0]),
        "save_model_s": lambda: checkpoint.save_model(paths["plain"], model),
        "load_model_s": lambda: checkpoint.load_model(paths["plain"]),
        "save_cluster_s": lambda: checkpoint.save_model(paths["cluster8"], clustered),
        "load_cluster_s": lambda: checkpoint.load_model(paths["cluster8"]),
        "save_int8_s": lambda: checkpoint.save_model(paths["int8"], int8),
        "save_prune70_s": lambda: checkpoint.save_model(paths["prune70"], pruned),
        "load_prune70_s": lambda: checkpoint.load_model(paths["prune70"]),
        "sgd_epoch_s": lambda: nn.train(model, xy, None, epoch),
        "dpsgd_epoch_s": lambda: nn.train_dpsgd(model, xy, epoch, dp),
        "finetune_prune70_s": lambda: compress.finetune_compressed(pruned, xy, None, epoch),
        "qat_int8_s": lambda: compress.finetune_compressed(
            compress.quantize_int8(model), xy, None, epoch),
        "finetune_cluster8_s": lambda: compress.finetune_compressed(clustered, xy, None, epoch),
        "rf_fit_s": lambda: meta.fit("rf", X4, y4, forest_hyper, 15),
        "rf_fit_narrow_s": lambda: meta.fit("rf", X6, y6, meta.RfHyper(n_trees=100), 18),
        "rf_score_s": lambda: meta.score_proba(forest, X5),
        "rf_oob_s": lambda: meta.out_of_bag_proba(forest, X4),
        "calibrate_s": lambda: attacks.calibrate_threshold(member, nonmember),
        "metrics_eval_s": lambda: (metrics.balanced_accuracy(cell), metrics.roc_auc(cell),
                                   [metrics.tpr_at_fpr(cell, cap) for cap in (0.01, 0.001)]),
    }


def measure(runs: dict) -> dict:
    """Each side's wall and CPU seconds of ``REPEATS`` runs after a warm-up.

    The sides take turns, and which goes first alternates.
    """
    for run in runs.values():
        run()
    samples = {side: ([], []) for side in runs}
    for i in range(REPEATS):
        for side in list(runs)[:: 1 if i % 2 == 0 else -1]:
            start, start_cpu = time.perf_counter(), time.process_time()
            runs[side]()
            samples[side][0].append(time.perf_counter() - start)
            samples[side][1].append(time.process_time() - start_cpu)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", type=Path,
                        help="the src directory of the checkout to time as the parent side")
    args = parser.parse_args(argv)
    packages = {"change": compaudit}
    if args.parent is not None:
        packages = {"parent": load_package("compaudit_parent", args.parent), **packages}
    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    sides = bench.setdefault("sides", {})
    for name, package in packages.items():
        side = sides.setdefault(name, {"runs": 0, "layers": {}})
        side["environment"] = environment(package)
        side["runs"] += 1
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for name, package in packages.items():
            (Path(tmp) / name).mkdir()
            runs[name] = layers(Path(tmp) / name, package)
        for layer in runs["change"]:
            for name, (wall, cpu) in measure({n: r[layer] for n, r in runs.items()}).items():
                fig = sides[name]["layers"].setdefault(layer, {"samples": []})
                fig["samples"] += wall
                fig["cpu_samples"] = fig.get("cpu_samples", []) + cpu
                for prefix, values in (("", fig["samples"]), ("cpu_", fig["cpu_samples"])):
                    fig[f"{prefix}median"] = statistics.median(values)
                    fig[f"{prefix}q1"], _, fig[f"{prefix}q3"] = statistics.quantiles(values, n=4)
                print(f"{name} {layer}: {fig['median']:.4f} s wall, {fig['cpu_median']:.4f} s "
                      f"CPU over {len(fig['samples'])}", file=sys.stderr)
        for name in packages:
            sides[name]["checkpoint_bytes"] = {
                p.stem: p.stat().st_size for p in sorted((Path(tmp) / name).glob("*.json"))}
    if "parent" in sides and "change" in sides:
        parent, change = sides["parent"]["layers"], sides["change"]["layers"]
        for key, figure in (("parent_over_change", "median"),
                            ("parent_over_change_cpu", "cpu_median")):
            bench[key] = {name: parent[name][figure] / fig[figure]
                          for name, fig in change.items()
                          if figure in fig and figure in parent.get(name, {})}
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
