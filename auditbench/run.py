"""Audit benchmark: each workload's plan run through the ``compaudit`` CLI.

    python3 auditbench/run.py --workload {pool-small|mr-paper|dp-defense}
                              --seed N --seconds S --trace {0|1}

Run from the repository root. One run is made of rounds; each round

1. runs one full audit into an empty directory (``audit_s``), and records
   its peak resident memory, the largest of the CLI process and its pool
   workers (``peak_rss_mb``), and the bytes it wrote (``out_mb``);
2. times a fresh interpreter that imports the package, parses the plan
   and builds the dataset and split (``setup_s``);
3. reruns the CLI into that directory, where every stage's outputs
   exist (``pipeline.resume_s``, reported with the per-layer figures).

The number of rounds is ``--seconds`` over the first audit's time, to the
nearest whole number (at least one); about 6 set-ups and 4 resumes are
shared out over the rounds. Each metric is the median of its samples, and
``best_auc`` is the highest median AUC in the report. After the rounds
the outputs are checked by code of the benchmark's own (``oracles.py``).
With ``--trace 1`` a workload with a worker pool is rerun with one worker
and must give the same report bytes, and a traced audit runs in one
process with one worker (``tracing.py``); its per-layer figures are
reported instead of the end-to-end ones.

The seed is the CLI's ``--seed-base``.
No thread variable is set: the CLI runs with the environment it is
given, which is recorded. Outputs go to ``.auditbench_out/<workload>/``.
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (attack cells) and ``metrics``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 6
RESUME_SAMPLES = 4
SETUP_CODE = (
    "import sys\n"
    "from compaudit import pipeline, plan\n"
    "p = plan.parse_plan(sys.argv[1])\n"
    "p.seed_base = int(sys.argv[2])\n"
    "pipeline.build_split(p, pipeline.build_dataset(p), 0)\n"
)
# exit code 1 means that attack cells failed; the report lists them and
# they are counted in ``failed``
CLI_OK = (0, 1)
END_TO_END_UNITS = {"audit_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "out_mb": "MB",
                    "best_auc": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed(cmd: list[str], log: Path) -> tuple[float, int, float]:
    """Run ``cmd``; returns (wall seconds, exit code, peak RSS in MB).

    The peak comes from ``wait4``: the largest resident set of the process
    and of every child it waited for, such as pool workers.
    """
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli(plan: Path, out: Path, workers: int, seed: int) -> list[str]:
    return [sys.executable, "-m", "compaudit", "--plan", str(plan), "--out", str(out),
            "--workers", str(workers), "--seed-base", str(seed)]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def environment() -> dict:
    """The machine and library facts a run's figures depend on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a checkout without git metadata
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": sha,
        "src_lines": src_lines,
    }


def audit_inputs(plan_text: str, seed: int):
    """``inputs(rep)`` for the oracles: the program's dataset and split."""
    from compaudit import pipeline, plan

    parsed = plan.parse_plan_text(plan_text)
    parsed.seed_base = seed
    dataset = pipeline.build_dataset(parsed)

    def inputs(rep):
        split = pipeline.build_split(parsed, dataset, rep)
        return dataset.features, dataset.labels, split.components()

    return inputs


def run(workload, seed: int, seconds: int, trace: bool) -> dict:
    base = ROOT / ".auditbench_out" / workload.name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    log = base / "cli.log"
    plan_path = base / "plan.ini"
    plan_text = workload.render()
    plan_path.write_text(plan_text, encoding="utf-8")
    problems = []

    def expect_ok(code, what, allowed=(0,)):
        if code not in allowed:
            problems.append(f"{what} exited with {code}; see {log}")

    # Rounds of one audit, then set-ups and resumes: spreading each metric's
    # samples over the whole run evens out the machine's slow spells.
    setup, audits, peaks, sizes, resume, dirs = [], [], [], [], [], []
    rounds = 1
    while len(audits) < rounds:
        out = base / f"audit{len(audits)}"
        wall, code, peak = timed(cli(plan_path, out, workload.workers, seed), log)
        expect_ok(code, f"audit {len(audits)}", CLI_OK)
        audits.append(wall)
        peaks.append(peak)
        sizes.append(dir_bytes(out))
        dirs.append(out)
        rounds = max(1, round(seconds / audits[0]))
        for _ in range(math.ceil(SETUP_SAMPLES / rounds)):
            wall, code, _ = timed([sys.executable, "-c", SETUP_CODE, str(plan_path), str(seed)],
                                  log)
            expect_ok(code, "set-up")
            setup.append(wall)
        before = oracles.report_files(out)
        for _ in range(math.ceil(RESUME_SAMPLES / rounds)):
            wall, code, _ = timed(cli(plan_path, out, workload.workers, seed), log)
            expect_ok(code, "resume", CLI_OK)
            resume.append(wall)
        if oracles.report_files(out) != before:
            problems.append(f"resuming {out.name} changed its report files")
    last = dirs[-1]
    for other in dirs[:-1]:
        problems += oracles.compare_reports(other, last, f"{other.name} against {last.name}")

    one_worker_s = statistics.median(audits)
    if trace and workload.workers > 1:
        one = base / "one_worker"
        one_worker_s, code, _ = timed(cli(plan_path, one, 1, seed), log)
        expect_ok(code, "one-worker audit", CLI_OK)
        problems += oracles.compare_reports(one, last, f"1 worker against {workload.workers}")

    try:
        found, facts = oracles.check_audit(last, workload, audit_inputs(plan_text, seed))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        found, facts = [f"outputs unreadable: {exc!r}"], {"auc_medians": {}, "failed_cells": 0}
    problems += found
    if workload.paired_beats_single:
        problems += oracles.check_sr_beats_nr(facts["auc_medians"], workload.paired_beats_single)

    metrics = {
        "audit_s": statistics.median(audits),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(peaks),
        "out_mb": statistics.median(sizes) / 1e6,
        "best_auc": max(facts["auc_medians"].values(), default=0.0),
    }
    result = {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "attempted": len(audits) * len(workload.cells()) * workload.repetitions,
        "failed": len(audits) * facts["failed_cells"],
        "problems": problems,
        "facts": {"audits": audits, "setup": setup, "resume": resume, "peaks": peaks,
                  "one_worker_s": one_worker_s, **facts},
    }
    if trace:
        result["layers"] = traced_run(plan_path, base, seed, last, one_worker_s, problems)
        result["layers"]["pipeline.resume_s"] = statistics.median(resume)
    return result


def traced_run(plan_path, base, seed, untraced_dir, untraced_s, problems) -> dict:
    out = base / "traced"
    spans_path = base / "spans.json"
    cmd = [sys.executable, str(HERE / "tracing.py"), str(spans_path)]
    wall, code, _ = timed(cmd + cli(plan_path, out, 1, seed)[3:], base / "cli.log")
    if code not in CLI_OK:
        problems.append(f"traced audit exited with {code}")
        return {}
    problems += oracles.compare_reports(out, untraced_dir, "traced against untraced")
    layers = tracing.layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")), wall)
    layers["trace.overhead_s"] = wall - untraced_s
    covered = sum(layers[m] for m in tracing.SELF_TIME) + layers["trace.untraced_s"]
    if abs(covered - wall) > 1e-6 or layers["trace.untraced_s"] < 0:
        problems.append(f"layer self times {covered:.6f} s do not add up to the wall {wall:.6f} s")
    return layers


def per_layer_units(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "compaudit" / "__init__.py").is_file():
        print(f"error: no compaudit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    env = environment()
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("environment: " + json.dumps(env, sort_keys=True))
    for key, value in sorted(result["facts"].items()):
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    metrics = result["metrics"]
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in result["layers"].items()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"attack cells attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
