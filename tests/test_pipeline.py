"""Pipeline stage, determinism, and CLI tests."""

import collections
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import compaudit
from compaudit import cli, pipeline
from compaudit.errors import CompauditError, DependencyError
from compaudit.plan import parse_plan_text
from tests.test_checkpoint import PACKED_EDITS, stored_mask
from tests.test_plan import GOOD

MINIMAL = """
[dataset]
kind = synth
samples = 200
features = 5
classes = 2
spread = 0.7
seed = 3

[split]
victim_train = 40
victim_test = 40
shadow_train = 40
shadow_test = 40

[train]
learning_rate = 0.2
batch_size = 20
max_epochs = 10
hidden = 8
dropout = 0.0

[compression]
prune = 0.7
finetune_epochs = 1

[attacks]
nr = loss
nr_targets = prune70

[run]
repetitions = 1
seed_base = 9
"""


# every compression family, with NR, SR and MR cells over them
EVERY_KIND = MINIMAL.replace(
    "prune = 0.7\n", "prune = 0.7\nint8 = true\nclusters = 2\n").replace(
    "nr_targets = prune70",
    "nr_targets = all\nsr_methods = sorted_concat\nsr_classifiers = lr\nmr = adv2")


def report_bytes(out):
    return (out / "report" / "report.json").read_bytes()


def counted_loads(monkeypatch) -> collections.Counter:
    """Count ``checkpoint.load_model`` calls by file name from now on."""
    from compaudit import checkpoint

    loads = collections.Counter()
    real = checkpoint.load_model

    def counting(path):
        loads[Path(path).name] += 1
        return real(path)

    monkeypatch.setattr(checkpoint, "load_model", counting)
    return loads


class TestRunPlan:
    def test_minimal_plan_single_attack_row(self, tmp_path):
        plan = parse_plan_text(MINIMAL)
        report = pipeline.run_plan(plan, tmp_path / "out")
        assert len(report["cells"]) == 1
        cell = report["cells"][0]
        assert cell["attack"] == "nr_loss"
        assert cell["target"] == "prune70"
        assert 0.0 <= cell["balanced_accuracy"] <= 1.0
        assert report["failures"] == []

    def test_report_files_exist(self, tmp_path):
        plan = parse_plan_text(MINIMAL)
        out = tmp_path / "out"
        pipeline.run_plan(plan, out)
        assert (out / "report" / "report.json").exists()
        assert (out / "report" / "summary.csv").exists()
        assert (out / "report" / "report.txt").exists()
        rocs = list((out / "report" / "roc").glob("*.csv"))
        assert len(rocs) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        plan = parse_plan_text(MINIMAL)
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline.run_plan(plan, a)
        pipeline.run_plan(plan, b)
        assert report_bytes(a) == report_bytes(b)

    def test_full_battery_runs(self, tmp_path):
        plan = parse_plan_text(GOOD)
        report = pipeline.run_plan(plan, tmp_path / "out")
        attacks_seen = {c["attack"] for c in report["cells"]}
        assert attacks_seen == {"nr_loss", "sr_sorted_concat_label_lr", "mr_adv2"}
        # nr on 3 targets, sr on 2, mr once
        assert len(report["cells"]) == 6
        assert report["models"]["rep0"]["original_victim"]["train_accuracy"] >= 0.5


class TestStages:
    def test_attack_without_compress_is_dependency_error(self, tmp_path):
        plan = parse_plan_text(MINIMAL)
        out = tmp_path / "out"
        pipeline.run_stage(plan, out, "train")
        with pytest.raises(DependencyError, match="compress"):
            pipeline.run_stage(plan, out, "attack")

    def test_compress_without_train_is_dependency_error(self, tmp_path):
        plan = parse_plan_text(MINIMAL)
        with pytest.raises(DependencyError, match="train"):
            pipeline.run_stage(plan, tmp_path / "out", "compress")

    def test_resume_after_deleting_downstream(self, tmp_path):
        plan = parse_plan_text(MINIMAL)
        out = tmp_path / "out"
        pipeline.run_plan(plan, out)
        first = report_bytes(out)
        pipeline.clear_downstream(out, "attack")
        assert not (out / "checkpoints" / "scores").exists()
        pipeline.run_plan(plan, out)
        assert report_bytes(out) == first

    def test_compress_constraints_valid_for_every_degree(self, tmp_path):
        from compaudit import checkpoint

        plan = parse_plan_text(GOOD)
        out = tmp_path / "out"
        pipeline.run_stage(plan, out, "train")
        pipeline.run_stage(plan, out, "compress")
        for key in plan.compression_keys():
            for role in ("victim", "shadow"):
                cm = checkpoint.load_model(out / "checkpoints" / "models" / "rep0" / f"{key}_{role}.json")
                assert cm.verify()

    @pytest.mark.parametrize("mode, tuned", [
        ("qat", ["prune", "quant", "cluster"]),
        ("calibrate", ["prune", "cluster"]),
    ], ids=["qat", "calibrate"])
    def test_every_family_fine_tuned_but_calibrated_int8(self, tmp_path, monkeypatch, mode, tuned):
        from compaudit import compress

        plan = parse_plan_text(MINIMAL.replace(
            "prune = 0.7\n", f"prune = 0.7\nint8 = true\nint8_mode = {mode}\nclusters = 2\n"))
        out = tmp_path / "out"
        families = []
        real = compress.finetune_compressed

        def recording(cm, *args, **kwargs):
            families.append(cm.family)
            return real(cm, *args, **kwargs)

        monkeypatch.setattr(compress, "finetune_compressed", recording)
        pipeline.run_stage(plan, out, "train")
        pipeline.run_stage(plan, out, "compress")
        assert families == tuned * 2  # victim, then shadow

    def test_each_model_loaded_once_per_repetition(self, tmp_path, monkeypatch):
        from compaudit import checkpoint

        plan = parse_plan_text(MINIMAL.replace("nr = loss", "nr = loss,mentr").replace(
            "nr_targets = prune70", "nr_targets = original,prune70\nsr_methods = sorted_concat"
            "\nsr_classifiers = lr"))
        out = tmp_path / "out"
        loads = []
        real = checkpoint.load_model

        def counting(path):
            loads.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(checkpoint, "load_model", counting)
        pipeline.run_stage(plan, out, "train")
        pipeline.run_stage(plan, out, "compress")
        assert sorted(loads) == ["original_shadow.json", "original_victim.json"]
        loads.clear()
        pipeline.run_stage(plan, out, "compress")  # every compressed model exists
        assert loads == []
        pipeline.run_stage(plan, out, "attack")
        assert len(pipeline._attack_cells(plan)) == 5
        assert sorted(loads) == sorted(f"{k}_{r}.json" for k in ("original", "prune70")
                                       for r in ("victim", "shadow"))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch, workers):
        plan = parse_plan_text(MINIMAL.replace("repetitions = 1", "repetitions = 2"))
        pools = []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        # the pipeline imports the pool class where it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        seq, par = tmp_path / "seq", tmp_path / "par"
        pipeline.run_plan(plan, seq, workers=1)
        assert pools == []
        pipeline.run_plan(plan, par, workers=workers)
        assert pools == [2]  # one pool for the whole run, of one worker per repetition at most
        assert report_bytes(seq) == report_bytes(par)
        files = output_files(seq)
        assert files == output_files(par)
        assert all((seq / f).read_bytes() == (par / f).read_bytes() for f in files)


class TestRepetitionTask:
    """A full run keeps each repetition's models in memory and reads none it made."""

    def test_fresh_run_loads_no_model(self, tmp_path, monkeypatch):
        plan = parse_plan_text(EVERY_KIND)
        loads = counted_loads(monkeypatch)
        report = pipeline.run_plan(plan, tmp_path / "out")
        assert {c["attack"].split("_")[0] for c in report["cells"]} == {"nr", "sr", "mr"}
        assert len(report["models"]["rep0"]) == 8  # original and three families, two roles
        assert report["failures"] == []
        assert loads == {}

    @pytest.mark.parametrize("damaged, loaded", [
        (None, []),
        ("nr_loss__int8.json", ["int8_shadow.json", "int8_victim.json"]),
    ], ids=["plain", "damaged_score"])
    def test_resume_loads_each_model_at_most_once(self, tmp_path, monkeypatch, damaged, loaded):
        plan = parse_plan_text(EVERY_KIND)
        out = tmp_path / "out"
        pipeline.run_plan(plan, out)
        before = {f: (out / f).read_bytes() for f in output_files(out)}
        if damaged is not None:  # only its cell runs again, on the models it reads
            score = out / "checkpoints" / "scores" / "rep0" / damaged
            score.write_bytes(score.read_bytes()[:40])
        loads = counted_loads(monkeypatch)
        pipeline.run_plan(plan, out)
        assert loads == collections.Counter(loaded)  # each once, and the report loads none
        assert {f: (out / f).read_bytes() for f in output_files(out)} == before

    def test_report_stage_reads_only_files(self, tmp_path, monkeypatch):
        plan = parse_plan_text(EVERY_KIND)
        out = tmp_path / "out"
        pipeline.run_plan(plan, out)
        before = {f: (out / f).read_bytes() for f in output_files(out) if f.parts[0] == "report"}
        shutil.rmtree(out / "report")
        shutil.rmtree(out / "checkpoints" / "models")

        def no_dataset(plan):
            raise AssertionError("the report built a dataset")

        monkeypatch.setattr(pipeline, "build_dataset", no_dataset)
        loads = counted_loads(monkeypatch)
        pipeline.run_stage(plan, out, "report")
        assert loads == {}
        assert {f: (out / f).read_bytes() for f in output_files(out)
                if f.parts[0] == "report"} == before

    def test_report_holds_only_the_plan_cells(self, tmp_path, monkeypatch):
        # a wider plan's run leaves score files and a failure of cells
        # that a narrower plan, rerun into the same directory, does not request
        from compaudit import attacks
        from compaudit.errors import ConfigError

        def broken(*args, **kwargs):
            raise ConfigError("sabotaged cell")

        out, fresh = tmp_path / "out", tmp_path / "fresh"
        with monkeypatch.context() as patch:
            patch.setattr(attacks, "run_nr_training", broken)
            wide = pipeline.run_plan(
                parse_plan_text(MINIMAL.replace("nr = loss", "nr = loss,mentr,posterior_lr")), out)
        assert [f["cell"] for f in wide["failures"]] == ["nr_posterior_lr__prune70"]
        assert len(wide["cells"]) == 2
        plan = parse_plan_text(MINIMAL)
        report = pipeline.run_plan(plan, out)
        assert list(report["aggregates"]) == ["nr_loss__prune70"] and report["failures"] == []
        pipeline.run_plan(plan, fresh)
        reports = [{f: (d / f).read_bytes() for f in output_files(d) if f.parts[0] == "report"}
                   for d in (out, fresh)]
        assert reports[0] == reports[1]

    def test_report_needs_the_accuracy_table(self, tmp_path):
        plan = parse_plan_text(MINIMAL)
        out = tmp_path / "out"
        pipeline.run_plan(plan, out)
        table = out / "checkpoints" / "metrics" / "models_rep0.json"
        assert set(json.loads(table.read_text())) == {
            f"{k}_{r}" for k in ("original", "prune70") for r in ("victim", "shadow")}
        table.unlink()
        with pytest.raises(DependencyError, match="models_rep0.json"):
            pipeline.stage_report(plan, out)

    def test_resume_with_an_added_target_recomputes_the_table(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        pipeline.run_plan(parse_plan_text(MINIMAL), out)
        wider = parse_plan_text(MINIMAL.replace("prune = 0.7\n", "prune = 0.7\nint8 = true\n"))
        report = pipeline.run_plan(wider, out)
        assert len(report["models"]["rep0"]) == 6
        pipeline.run_plan(wider, fresh)
        assert report_bytes(out) == report_bytes(fresh)

    def test_plan_without_attack_cells_gets_a_table(self, tmp_path):
        plan = parse_plan_text(MINIMAL.replace("nr = loss\nnr_targets = prune70\n", ""))
        assert pipeline._attack_cells(plan) == []
        out = tmp_path / "out"
        report = pipeline.run_plan(plan, out)
        assert report["cells"] == [] and len(report["models"]["rep0"]) == 4
        assert (out / "checkpoints" / "metrics" / "models_rep0.json").exists()

    def test_stored_models_equal_their_checkpoints(self, tmp_path, monkeypatch):
        from compaudit import checkpoint, compress

        plan = parse_plan_text(EVERY_KIND)
        out = tmp_path / "out"
        stores = []
        real = pipeline._model_accuracies

        def keeping(r):
            stores.append(r.models)
            return real(r)

        monkeypatch.setattr(pipeline, "_model_accuracies", keeping)
        pipeline.run_plan(plan, out)
        (store,) = stores
        model_dir = out / "checkpoints" / "models" / "rep0"
        assert sorted(store) == sorted(p.stem for p in model_dir.glob("*.json"))
        for name, held in store.items():
            loaded = checkpoint.load_model(model_dir / f"{name}.json")
            assert type(held) is type(loaded)
            if isinstance(held, compress.CompressedModel):
                assert type(held.constraint) is type(loaded.constraint)
                assert held.degree_tag == loaded.degree_tag
                assert (json.dumps(held.constraint.fields(), default=np.ndarray.tolist)
                        == json.dumps(loaded.constraint.fields(), default=np.ndarray.tolist))
                held, loaded = held.model, loaded.model
            assert held.layer_sizes == loaded.layer_sizes
            assert held.dropout_rates == loaded.dropout_rates
            for a, b in zip(held.weights + held.biases, loaded.weights + loaded.biases,
                            strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()  # bit for bit

    def test_single_stages_give_the_full_run_bytes(self, tmp_path):
        plan = parse_plan_text(EVERY_KIND)
        full, staged = tmp_path / "full", tmp_path / "staged"
        pipeline.run_plan(plan, full)
        cells = [f"{a}__{t}" for a, t in pipeline._attack_cells(plan)]
        targets = {"original": ["original"], "compressed": plan.compression_keys()}
        written = set()
        for stage in pipeline.STAGES:
            pipeline.run_stage(plan, staged, stage)
            # the files the layout names for this stage, and no others, are new
            named = {Path(pattern.format(rep=0, role=role, target=target, cell=cell))
                     for kind, (writer, pattern) in pipeline.LAYOUT.items() if writer == stage
                     for role in pipeline.ROLES for target in targets.get(kind, [None])
                     for cell in cells}
            assert output_files(staged) - written == named, stage
            written = output_files(staged)
        files = output_files(full)
        assert files == output_files(staged)
        assert all((full / f).read_bytes() == (staged / f).read_bytes() for f in files)


def readme_layout() -> list[str]:
    """The path patterns of the README's output layout block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^### Output layout\n\n```\nout/\n(.*?)^```", readme, flags=re.S | re.M)
    return [line.split()[0] for line in block[1].splitlines()]


def layout_regex(pattern: str) -> re.Pattern:
    """``<a|b>`` stands for either name, any other ``<name>`` for one path component."""
    parts = re.split(r"<([^>]+)>", pattern)  # literal, placeholder, literal, ...
    return re.compile("".join(
        re.escape(p) if i % 2 == 0 else f"({p})" if "|" in p else "[^/]+"
        for i, p in enumerate(parts)))


# how the README writes each placeholder of a ``pipeline.LAYOUT`` pattern
README_NAMES = {"rep": "<r>", "role": "<victim|shadow>", "target": "<target>",
                "cell": "<attack>__<target>"}


def test_readme_layout_names_every_output_file(tmp_path):
    table = {re.sub(r"\{(\w+)\}", lambda m: README_NAMES[m[1]], pattern)
             for _, pattern in pipeline.LAYOUT.values()}
    assert sorted(readme_layout()) == sorted(table)
    out = tmp_path / "out"
    pipeline.run_plan(parse_plan_text(EVERY_KIND), out)
    patterns = {p: layout_regex(p) for p in readme_layout()}
    matched = collections.Counter()
    for f in output_files(out):
        hits = [p for p, regex in patterns.items() if regex.fullmatch(f.as_posix())]
        assert len(hits) == 1, (f, hits)
        matched.update(hits)
    assert set(matched) == set(patterns)


def output_files(out):
    return {p.relative_to(out) for p in out.rglob("*") if p.is_file()}


def stage_of(rel):
    """The stage that writes an output file, by its path."""
    if rel.parts[0] == "report":
        return "report"
    if rel.parts[1] == "scores":
        return "attack"
    if rel.parts[1] == "metrics":
        return "evaluate"
    return "train" if rel.name.startswith("original_") else "compress"


class TestStageTables:
    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        """A finished run with every compression family."""
        families = "prune = 0.7\nint8 = true\nclusters = 4"
        plan = parse_plan_text(MINIMAL.replace("prune = 0.7", families))
        out = tmp_path_factory.mktemp("clean") / "out"
        pipeline.run_plan(plan, out)
        return plan, out

    @pytest.mark.parametrize("stage", pipeline.STAGES)
    def test_clear_downstream_keeps_earlier_stages(self, clean, tmp_path, stage):
        plan, clean_out = clean
        files = output_files(clean_out)
        assert {stage_of(f) for f in files} == set(pipeline.STAGES)
        assert {f.name for f in files} >= {"int8_victim.json", "cluster4_shadow.json"}
        out = tmp_path / "out"
        shutil.copytree(clean_out, out)
        pipeline.clear_downstream(out, stage)
        earlier = pipeline.STAGES[: pipeline.STAGES.index(stage)]
        assert output_files(out) == {f for f in files if stage_of(f) in earlier}
        pipeline.run_plan(plan, out)
        report = [f for f in files if stage_of(f) == "report"]
        assert all((out / f).read_bytes() == (clean_out / f).read_bytes() for f in report)
        assert {f for f in output_files(out) if stage_of(f) == "report"} == set(report)

    def test_runs_call_each_stage_attribute_once_per_repetition(self, tmp_path, monkeypatch):
        # the benchmark tracer times the stages by replacing these attributes
        calls = []

        def recorder(stage):
            def step(*args):
                calls.append((stage, args[0].rep) if stage != "report" else (stage,))
            return step

        for stage in pipeline.STAGES:
            monkeypatch.setattr(pipeline, f"stage_{stage}", recorder(stage))
        plan = parse_plan_text(MINIMAL.replace("repetitions = 1", "repetitions = 2"))
        per_rep = [(stage, rep) for rep in (0, 1) for stage in pipeline.STAGES[:-1]]
        pipeline.run_plan(plan, tmp_path / "full")
        assert calls == per_rep + [("report",)]
        calls.clear()
        for stage in pipeline.STAGES:
            pipeline.run_stage(plan, tmp_path / "staged", stage)
        staged = [(stage, rep) for stage in pipeline.STAGES[:-1] for rep in (0, 1)]
        assert calls == staged + [("report",)]

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(CompauditError, match="unknown stage"):
            pipeline.run_stage(parse_plan_text(MINIMAL), tmp_path, "deploy")


SCORE = "checkpoints/scores/rep0/nr_loss__prune70.json"
TABLE = "checkpoints/metrics/models_rep0.json"
FAILS = "checkpoints/scores/failures_rep0.json"
MODELS = "checkpoints/models/rep0"


def edited(rel, change):
    """An edit of a finished run: ``change`` applied to the JSON of one file."""
    def edit(out):
        path = out / rel
        d = json.loads(path.read_text())
        d = change(d) or d
        path.write_text(json.dumps(d), encoding="utf-8")
    return edit


def written(rel, text):
    """An edit of a finished run: one file's text replaced."""
    return lambda out: (out / rel).write_text(text, encoding="utf-8")


def model_file(name, change):
    """An edit of one model file; the accuracy table goes, so the evaluate step loads it."""
    def edit(out):
        (out / TABLE).unlink()
        change(out / MODELS / f"{name}.json")
    return edit


def copied_from(name):
    return lambda path: shutil.copyfile(path.parent / f"{name}.json", path)


def no_constraint(path):  # a whole plain model: no constraint, family or degree tag
    edited(path.name, lambda d: d.update(constraint=None, family=None, degree_tag=None))(
        path.parent)


def updated(**fields):
    return lambda path: edited(path.name, lambda d: d.update(fields))(path.parent)


# case: (stage to run, plan text edit or edit of a finished run, texts the error names);
# a stage of None runs the whole plan into a new directory
REJECTED = {
    "learning_rate_nan": (None, ("learning_rate = 0.2", "learning_rate = nan"),
                          ["[train] learning_rate is mistyped: not a finite number: 'nan'"]),
    "learning_rate_inf": (None, ("learning_rate = 0.2", "learning_rate = inf"),
                          ["[train] learning_rate is mistyped: not a finite number: 'inf'"]),
    "l2_lambda_nan": (None, ("dropout = 0.0\n", "dropout = 0.0\nl2_lambda = nan\n"),
                      ["[train] l2_lambda is mistyped: not a finite number: 'nan'"]),
    "finetune_learning_rate_inf": (
        None, ("finetune_epochs = 1\n", "finetune_epochs = 1\nfinetune_learning_rate = inf\n"),
        ["[compression] finetune_learning_rate is mistyped: not a finite number: 'inf'"]),
    "score_of_another_target": ("report", edited(SCORE, lambda d: d.update(target="x")),
                                [f"{SCORE}: malformed score file", "not the plan cell"]),
    "score_of_another_attack": ("report", edited(SCORE, lambda d: d.update(attack="nr_mentr")),
                                [f"{SCORE}: malformed score file", "not the plan cell"]),
    "score_of_another_rep": ("report", edited(SCORE, lambda d: d.update(rep=1)),
                             [f"{SCORE}: malformed score file", "not the plan cell"]),
    "scores_true": ("report", edited(SCORE, lambda d: d.update(member_scores=True)),
                    [f"{SCORE}: malformed score file", "flat, non-empty lists"]),
    "scores_nested": ("report", edited(SCORE, lambda d: d.update(
        member_scores=[d["member_scores"]])), [f"{SCORE}: malformed score file", "flat"]),
    "scores_as_text": ("report", edited(SCORE, lambda d: d.update(
        nonmember_scores=[str(v) for v in d["nonmember_scores"]])),
        [f"{SCORE}: malformed score file", "flat"]),
    "threshold_nan": ("report", edited(SCORE, lambda d: d.update(decision_threshold=float("nan"))),
                      [f"{SCORE}: malformed score file", "threshold must be a finite number"]),
    "threshold_true": ("report", edited(SCORE, lambda d: d.update(decision_threshold=True)),
                       [f"{SCORE}: malformed score file", "threshold must be a finite number"]),
    "threshold_text": ("report", edited(SCORE, lambda d: d.update(decision_threshold="nan")),
                       [f"{SCORE}: malformed score file", "threshold must be a finite number"]),
    "accuracy_row_null": ("report", edited(TABLE, lambda d: d.update(original_victim=None)),
                          [f"{TABLE}: malformed accuracy table"]),
    "accuracy_row_text": ("report", edited(TABLE, lambda d: d.update(prune70_victim="x")),
                          [f"{TABLE}: malformed accuracy table"]),
    "accuracy_row_missing": ("report", edited(TABLE, lambda d: d.pop("int8_shadow") and None),
                             [f"{TABLE}: malformed accuracy table"]),
    "accuracy_nan": ("report", edited(TABLE, lambda d: d["int8_victim"].update(
        test_accuracy=float("nan"))), [f"{TABLE}: malformed accuracy table"]),
    "pruned_model_without_constraint": (
        "evaluate", model_file("prune70_victim", no_constraint),
        [f"{MODELS}/prune70_victim.json: holds a plain model, not a prune one"]),
    "original_holding_a_pruned_model": (
        "evaluate", model_file("original_victim", copied_from("prune70_victim")),
        [f"{MODELS}/original_victim.json: holds a prune model, not a plain one"]),
    "pruned_holding_an_int8_model": (
        "evaluate", model_file("prune70_shadow", copied_from("int8_shadow")),
        [f"{MODELS}/prune70_shadow.json: holds a quant model, not a prune one"]),
    "pruned_model_of_another_degree": (
        "evaluate", model_file("prune70_victim", updated(degree_tag=91.0)),
        [f"{MODELS}/prune70_victim.json: degree tag 91.0, not the 70.0 of prune70"]),
    "clustered_model_of_another_degree": (
        "evaluate", model_file("cluster2_shadow", updated(degree_tag=25.0)),
        [f"{MODELS}/cluster2_shadow.json: degree tag 25.0, not the 50.0 of cluster2"]),
    "original_with_a_degree_tag": (
        "evaluate", model_file("original_victim", updated(degree_tag=70.0)),
        [f"{MODELS}/original_victim.json: malformed model", "without a constraint"]),
    "original_with_a_family": (
        "evaluate", model_file("original_shadow", updated(family="prune")),
        [f"{MODELS}/original_shadow.json: malformed model", "without a constraint"]),
    "dropout_rates_empty": (
        "evaluate", model_file("original_victim", updated(dropout_rates=[])),
        [f"{MODELS}/original_victim.json: malformed model", "one number per hidden layer"]),
    "dropout_rates_object": (
        "evaluate", model_file("original_victim", updated(dropout_rates={"0": 0.5})),
        [f"{MODELS}/original_victim.json: malformed model", "one number per hidden layer"]),
    "failure_list_of_a_number": ("report", written(FAILS, "[1]"),
                                 [f"{FAILS}: malformed failure list"]),
    "failure_list_as_an_object": ("report", written(FAILS, "{}"),
                                  [f"{FAILS}: malformed failure list"]),
    "failure_of_another_rep": ("report", written(FAILS, json.dumps(
        [{"rep": 1, "cell": "nr_loss__int8", "error": "e"}])),
        [f"{FAILS}: malformed failure list"]),
    "failure_without_its_error": ("report", written(FAILS, json.dumps(
        [{"rep": 0, "cell": "nr_loss__int8"}])), [f"{FAILS}: malformed failure list"]),
    "failure_of_a_numbered_cell": ("report", written(FAILS, json.dumps(
        [{"rep": 0, "cell": 3, "error": "e"}])), [f"{FAILS}: malformed failure list"]),
}


def truncated(rel):
    """An edit of a finished run: one file cut to half its bytes, as by an interrupted copy."""
    def edit(out):
        text = (out / rel).read_bytes()
        (out / rel).write_bytes(text[:len(text) // 2])
    return edit


# case: (file a full run must write again, edit of a finished run that damages it)
REMADE = {
    "score_truncated": (SCORE, truncated(SCORE)),
    "scores_true": (SCORE, edited(SCORE, lambda d: d.update(member_scores=True))),
    "score_of_another_target": (SCORE, edited(SCORE, lambda d: d.update(target="x"))),
    "threshold_nan": (SCORE, edited(SCORE, lambda d: d.update(decision_threshold=float("nan")))),
    "accuracy_table_truncated": (TABLE, truncated(TABLE)),
    "accuracy_row_null": (TABLE, edited(TABLE, lambda d: d.update(original_victim=None))),
    "accuracy_row_missing": (TABLE, edited(TABLE, lambda d: d.pop("int8_shadow") and None)),
    "failure_list_truncated": (FAILS, truncated(FAILS)),
    "failure_list_as_an_object": (FAILS, written(FAILS, "{}")),
    "failure_list_of_a_number": (FAILS, written(FAILS, "[1]")),
}


class TestRejectedInput:
    """A plan value or stage output that a step must not use stops the run with one line,
    unless the step can write the output again."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("clean") / "out"
        pipeline.run_plan(parse_plan_text(EVERY_KIND), out)
        return out

    @pytest.mark.parametrize("case", list(REJECTED))
    def test_one_line_exit_two(self, clean, tmp_path, capsys, case):
        stage, edit, named = REJECTED[case]
        plan_path, out = tmp_path / "plan.ini", tmp_path / "out"
        if stage is None:
            assert edit[0] in EVERY_KIND
            plan_path.write_text(EVERY_KIND.replace(*edit), encoding="utf-8")
        else:
            plan_path.write_text(EVERY_KIND, encoding="utf-8")
            shutil.copytree(clean, out)
            edit(out)
        argv = ["--plan", str(plan_path), "--out", str(out)]
        assert cli.main(argv + (["--stage", stage] if stage else [])) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err
        assert all(text in lines[0] for text in named), lines[0]
        if stage is None:
            assert not out.exists()  # rejected before the output directory is made

    @pytest.mark.parametrize("case", list(REMADE))
    def test_full_run_remakes_it(self, clean, tmp_path, case):
        rel, edit = REMADE[case]
        plan_path, out = tmp_path / "plan.ini", tmp_path / "out"
        plan_path.write_text(EVERY_KIND, encoding="utf-8")
        shutil.copytree(clean, out)
        edit(out)
        assert (out / rel).read_bytes() != (clean / rel).read_bytes()
        assert cli.main(["--plan", str(plan_path), "--out", str(out)]) == 0
        assert (out / rel).read_bytes() == (clean / rel).read_bytes()
        reports = [{f: (d / f).read_bytes() for f in output_files(d) if f.parts[0] == "report"}
                   for d in (clean, out)]
        assert reports[0] == reports[1]


class TestReportSchema:
    def test_report_validates_against_published_schema(self, tmp_path):
        import jsonschema

        plan = parse_plan_text(GOOD)
        report = pipeline.run_plan(plan, tmp_path / "out")
        jsonschema.validate(report, pipeline.REPORT_SCHEMA)
        on_disk = json.loads((tmp_path / "out" / "report" / "report.json").read_text())
        jsonschema.validate(on_disk, pipeline.REPORT_SCHEMA)

    def test_metrics_traceable_to_stored_scores(self, tmp_path):
        plan = parse_plan_text(MINIMAL)
        out = tmp_path / "out"
        report = pipeline.run_plan(plan, out)
        for cell in report["cells"]:
            assert (out / cell["scores_file"]).exists()


class TestFailureIsolation:
    def test_one_failing_cell_never_aborts_the_run(self, tmp_path, monkeypatch):
        from compaudit import attacks
        from compaudit.errors import ConfigError

        real = attacks.run_nr_metric

        def sabotaged(dataset, splits, victim_model, shadow_model, metric="loss"):
            if metric == "mentr":
                raise ConfigError("sabotaged cell")
            return real(dataset, splits, victim_model, shadow_model, metric)

        monkeypatch.setattr(attacks, "run_nr_metric", sabotaged)
        plan = parse_plan_text(MINIMAL.replace("nr = loss", "nr = loss,mentr"))
        report = pipeline.run_plan(plan, tmp_path / "out")
        assert len(report["failures"]) == 1
        assert report["failures"][0]["cell"] == "nr_mentr__prune70"
        assert "sabotaged" in report["failures"][0]["error"]
        # the healthy cell still computed
        assert {c["attack"] for c in report["cells"]} == {"nr_loss"}

    def test_a_cell_that_succeeds_on_resume_is_no_failure(self, tmp_path, monkeypatch):
        from compaudit import attacks
        from compaudit.errors import ConfigError

        def broken(*args, **kwargs):
            raise ConfigError("sabotaged cell")

        plan_path, out = tmp_path / "plan.ini", tmp_path / "out"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        argv = ["--plan", str(plan_path), "--out", str(out)]
        with monkeypatch.context() as patch:
            patch.setattr(attacks, "run_nr_metric", broken)
            assert cli.main(argv) == 1
        assert cli.main(argv) == 0
        report = json.loads(report_bytes(out))
        assert report["failures"] == []
        assert [c["attack"] for c in report["cells"]] == ["nr_loss"]

    def test_a_failed_cell_over_a_damaged_score_file(self, tmp_path, monkeypatch, capsys):
        from compaudit import attacks
        from compaudit.errors import ConfigError

        def broken(*args, **kwargs):
            raise ConfigError("sabotaged cell")

        plan_path, out = tmp_path / "plan.ini", tmp_path / "out"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        argv = ["--plan", str(plan_path), "--out", str(out)]
        assert cli.main(argv) == 0
        truncated(SCORE)(out)
        monkeypatch.setattr(attacks, "run_nr_metric", broken)
        capsys.readouterr()
        assert cli.main(argv) == 1  # the stale file stays out of the report
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads(report_bytes(out))
        assert [f["cell"] for f in report["failures"]] == ["nr_loss__prune70"]
        assert report["cells"] == []

    def test_cli_exit_one_on_failed_cells(self, tmp_path, monkeypatch, capsys):
        from compaudit import attacks
        from compaudit.errors import ConfigError

        def always_broken(*args, **kwargs):
            raise ConfigError("sabotaged cell")

        monkeypatch.setattr(attacks, "run_nr_metric", always_broken)
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        code = cli.main(["--plan", str(plan_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "failed cells" in capsys.readouterr().err


class TestEditedPlan:
    @pytest.mark.parametrize("stage", [None, "report"], ids=["full_run", "report_stage"])
    def test_new_fpr_caps_rescore_every_cell(self, tmp_path, stage):
        edited = MINIMAL + "\n[metrics]\nfpr_caps = 0.05\n"
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for text, directory in ((MINIMAL, out), (edited, fresh)):
            path = tmp_path / f"{directory.name}.ini"
            path.write_text(text, encoding="utf-8")
            assert cli.main(["--plan", str(path), "--out", str(directory)]) == 0
        argv = ["--plan", str(tmp_path / "fresh.ini"), "--out", str(out)]
        assert cli.main(argv + (["--stage", stage] if stage else [])) == 0
        report = json.loads(report_bytes(out))
        assert report["fpr_caps"] == ["0.05"]
        assert [list(c["tpr_at_fpr"]) for c in report["cells"]] == [["0.05"]]
        assert report_bytes(out) == report_bytes(fresh)


class TestFinetuneFraction:
    def test_fraction_restricts_finetune_rows(self, tmp_path):
        plan = parse_plan_text(MINIMAL + "\n")
        plan.compression.finetune_fraction = 0.5
        report = pipeline.run_plan(plan, tmp_path / "half")
        full = parse_plan_text(MINIMAL)
        report_full = pipeline.run_plan(full, tmp_path / "full")
        # different fine-tune subsets give different pruned models and scores
        assert (
            report["cells"][0]["balanced_accuracy"]
            != report_full["cells"][0]["balanced_accuracy"]
            or report["models"] != report_full["models"]
        )


class TestCli:
    def test_env_overrides_for_paths_and_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPAUDIT_OUT", str(tmp_path / "envout"))
        monkeypatch.setenv("COMPAUDIT_WORKERS", "1")
        args = cli.build_parser().parse_args(["--plan", "p.ini"])
        assert args.out == str(tmp_path / "envout")
        assert args.workers == 1

    @pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
    def test_no_worker_variable_means_the_plan_value(self, monkeypatch, value):
        monkeypatch.delenv("COMPAUDIT_WORKERS", raising=False)
        if value is not None:
            monkeypatch.setenv("COMPAUDIT_WORKERS", value)
        assert cli.build_parser().parse_args(["--plan", "p.ini"]).workers is None

    @pytest.mark.parametrize("source, value", [
        ("env", "two"), ("env", "0"), ("env", "-1"), ("env", "1.5"),
        ("flag", "0"), ("flag", "-2"), ("flag", "two"),
    ])
    def test_bad_worker_count_is_one_line_exit_two(self, tmp_path, monkeypatch, capsys,
                                                   source, value):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        argv = ["--plan", str(plan_path), "--out", str(tmp_path / "o")]
        monkeypatch.delenv("COMPAUDIT_WORKERS", raising=False)
        if source == "env":
            monkeypatch.setenv("COMPAUDIT_WORKERS", value)
        else:
            argv += ["--workers", value]
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and repr(value) in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_training_prints_no_numpy_warning(self, tmp_path, workers):
        """Only the ``error:`` line, from pool workers too; run apart, as pytest keeps warnings."""
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL.replace("learning_rate = 0.2", "learning_rate = 1e300")
                             .replace("repetitions = 1", "repetitions = 2"), encoding="utf-8")
        env = dict(os.environ)
        src = str(Path(compaudit.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run([sys.executable, "-m", "compaudit", "--plan", str(plan_path),
                              "--out", str(tmp_path / "o"), "--workers", str(workers)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr == "error: non-finite loss at epoch 0\n"

    def test_full_run_exit_zero(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main(["--plan", str(plan_path), "--out", str(out)])
        assert code == 0
        assert (out / "report" / "report.json").exists()
        assert "balanced accuracy" in capsys.readouterr().out

    def test_single_stage_and_seed_override(self, tmp_path):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", "train",
                         "--seed-base", "123"])
        assert code == 0
        assert (out / "checkpoints" / "models" / "rep0" / "original_victim.json").exists()

    def test_plan_error_exit_two(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text("[dataset]\nkind = synth\n", encoding="utf-8")
        code = cli.main(["--plan", str(plan_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (("shadow_test = 40\n", ""), "shadow_test"),
        (("learning_rate = 0.2\n", ""), "learning_rate"),
        (("[compression]", "[dp]\nnoise_multiplier = 0.5\n\n[compression]"), "clip_norm"),
        (("prune = 0.7\n", "prune = nan\n"), "prune is mistyped: not a finite number: 'nan'"),
        (("prune = 0.7\n", "prune = inf\n"), "prune is mistyped: not a finite number: 'inf'"),
        (None, "cannot read plan"),
        (("learning_rate = 0.2\n", "learning_rate = 0.2\nmomentum = 0.9\n"),
         "unknown key 'momentum'"),
        (("learning_rate = 0.2\n", "learning_rate = 0.2\nearly_stop_patience = 3\n"),
         "unknown key 'early_stop_patience'"),
    ], ids=["split", "train", "dp", "prune_nan", "prune_inf", "no_file", "momentum",
            "early_stop_patience"])
    def test_plan_error_is_one_line_exit_two(self, tmp_path, capsys, edit, named):
        plan_path = tmp_path / "plan.ini"
        if edit is not None:
            assert edit[0] in MINIMAL
            plan_path.write_text(MINIMAL.replace(*edit), encoding="utf-8")
        code = cli.main(["--plan", str(plan_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", ["missing_csv", "csv_is_a_directory", "out_is_a_file"])
    def test_file_system_error_is_one_line_exit_two(self, tmp_path, capsys, case):
        plan_text, out = MINIMAL, tmp_path / "o"
        if case == "out_is_a_file":
            out.write_text("", encoding="utf-8")
        else:
            csv_path = tmp_path / "rows.csv"
            if case == "csv_is_a_directory":
                csv_path.mkdir()
            synth = MINIMAL[MINIMAL.index("[dataset]"):MINIMAL.index("[split]")]
            plan_text = MINIMAL.replace(synth, f"[dataset]\nkind = csv\npath = {csv_path}\n\n")
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(plan_text, encoding="utf-8")
        assert cli.main(["--plan", str(plan_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(tmp_path / ("o" if case == "out_is_a_file" else "rows.csv")) in err[0]

    def test_report_of_a_cell_with_neither_scores_nor_failure_exit_two(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["--plan", str(plan_path), "--out", str(out)]) == 0
        plan_path.write_text(MINIMAL.replace("nr = loss", "nr = loss,mentr"), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", "report"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "attack stage output" in err[0]
        assert err[0].endswith("nr_mentr__prune70.json")

    def test_dependency_error_exit_two(self, tmp_path):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        code = cli.main(["--plan", str(plan_path), "--out", str(tmp_path / "o"),
                         "--stage", "attack"])
        assert code == 2

    def test_evaluate_without_compress_exit_two(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        argv = ["--plan", str(plan_path), "--out", str(tmp_path / "out"), "--stage"]
        assert cli.main(argv + ["train"]) == 0
        capsys.readouterr()
        assert cli.main(argv + ["evaluate"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "compress stage output" in err[0]
        assert err[0].endswith("prune70_victim.json")

    def test_truncated_score_file_exit_two(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        for stage in ("train", "compress", "attack", "evaluate"):
            assert cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", stage]) == 0
        score = out / "checkpoints" / "scores" / "rep0" / "nr_loss__prune70.json"
        score.write_bytes(score.read_bytes()[:40])
        code = cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", "report"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "malformed JSON" in err[0]

    @pytest.mark.parametrize("edit", [
        lambda full: {},
        lambda full: [full],
        lambda full: {**full, "member_scores": "high"},
        lambda full: {**full, "nonmember_scores": []},
        lambda full: {**full, "decision_threshold": None},
        lambda full: {**full, "attack": 3},
    ], ids=["empty", "not_an_object", "scores_text", "no_scores", "threshold_null", "attack_int"])
    def test_score_file_missing_or_mistyping_a_field_exit_two(self, tmp_path, capsys, edit):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["--plan", str(plan_path), "--out", str(out)]) == 0
        score = out / "checkpoints" / "scores" / "rep0" / "nr_loss__prune70.json"
        score.write_text(json.dumps(edit(json.loads(score.read_text()))), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", "report"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {score}: malformed score file")

    def test_model_missing_a_field_exit_two(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", "train"]) == 0
        model = out / "checkpoints" / "models" / "rep0" / "original_victim.json"
        d = json.loads(model.read_text())
        del d["biases"]
        model.write_text(json.dumps(d), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", "compress"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "malformed model" in err[0] and "biases" in err[0]

    @pytest.mark.parametrize("edit, message", [
        ("masked_weight", "weights that break the prune constraint"),
        ("dropped_mask", "malformed model"),
    ])
    def test_pruned_model_off_its_masks_exit_two(self, tmp_path, capsys, edit, message):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        for stage in ("train", "compress"):
            assert cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", stage]) == 0
        model = out / "checkpoints" / "models" / "rep0" / "prune70_victim.json"
        d = json.loads(model.read_text())
        if edit == "masked_weight":
            i, j = np.argwhere(stored_mask(d, 0) == 0)[0]
            assert d["weights"][0][i][j] == 0.0
            d["weights"][0][i][j] = 1.0
        else:
            del d["constraint"]["masks"][1]
        model.write_text(json.dumps(d), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", "attack"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0] and "prune70_victim.json" in err[0]

    @pytest.mark.parametrize("name", sorted(PACKED_EDITS))
    def test_malformed_packed_field_exit_two(self, tmp_path, capsys, name):
        family, edit, reason = PACKED_EDITS[name]
        # layers of 35 and 21 weights, as in the edits' own test
        text = (MINIMAL.replace("classes = 2", "classes = 3").replace("hidden = 8", "hidden = 7")
                .replace("prune = 0.7", "prune = 0.7\nclusters = 4"))
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        for stage in ("train", "compress"):
            assert cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", stage]) == 0
        target = {"prune": "prune70", "cluster": "cluster4"}[family]
        model = out / "checkpoints" / "models" / "rep0" / f"{target}_victim.json"
        d = json.loads(model.read_text())
        edit(d)
        model.write_text(json.dumps(d), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", "evaluate"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {model}: malformed model")
        assert reason in err[0]

    def test_version_one_run_directory_exit_two(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        for stage in ("train", "compress"):
            assert cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", stage]) == 0
        models = sorted((out / "checkpoints" / "models" / "rep0").glob("*.json"))
        for model in models:  # the layout of version 1: masks as nested 0/1 lists
            d = json.loads(model.read_text())
            if d["constraint"] is not None:
                d["constraint"]["masks"] = [stored_mask(d, l).tolist()
                                            for l in range(len(d["weights"]))]
            model.write_text(json.dumps({**d, "version": 1}), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["--plan", str(plan_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert any(err[0].startswith(f"error: {m}: unsupported version 1") for m in models)

    def test_report_seed_base_recorded(self, tmp_path):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        cli.main(["--plan", str(plan_path), "--out", str(out), "--seed-base", "55"])
        report = json.loads((out / "report" / "report.json").read_text())
        assert report["seed_base"] == 55


class TestBlasThreads:
    """Importing the package pins BLAS to one thread before numpy loads."""

    THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def import_package(self, **env_vars):
        env = {k: v for k, v in os.environ.items() if k not in self.THREAD_VARS}
        src = str(Path(compaudit.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = ("import json, os, sys; import compaudit; print(json.dumps(["
                "'numpy' in sys.modules, [os.environ.get(k) for k in %r]]))" % (self.THREAD_VARS,))
        run = subprocess.run([sys.executable, "-c", code], env=env | env_vars,
                             capture_output=True, text=True, check=True)
        return json.loads(run.stdout)

    def test_unset_variables_become_one_without_loading_numpy(self):
        assert self.import_package() == [False, ["1", "1", "1"]]

    def test_a_user_setting_wins(self):
        assert self.import_package(OPENBLAS_NUM_THREADS="2") == [False, ["2", "1", "1"]]


def test_cli_import_loads_no_pool_machinery():
    """The process-pool modules load only when a run starts a pool."""
    env = dict(os.environ)
    src = str(Path(compaudit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, compaudit.cli; print('concurrent.futures.process' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
