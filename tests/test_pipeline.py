"""Pipeline stage, determinism, and CLI tests."""

import json
from pathlib import Path

import pytest

from compaudit import cli, pipeline
from compaudit.errors import DependencyError
from compaudit.plan import parse_plan_text
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


def report_bytes(out):
    return (out / "report" / "report.json").read_bytes()


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
        pipeline.stage_train(plan, out)
        with pytest.raises(DependencyError, match="compress"):
            pipeline.stage_attack(plan, out)

    def test_compress_without_train_is_dependency_error(self, tmp_path):
        plan = parse_plan_text(MINIMAL)
        with pytest.raises(DependencyError, match="train"):
            pipeline.stage_compress(plan, tmp_path / "out")

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
        pipeline.stage_train(plan, out)
        pipeline.stage_compress(plan, out)
        for key in plan.compression_keys():
            for role in ("victim", "shadow"):
                cm = checkpoint.load_model(out / "checkpoints" / "models" / "rep0" / f"{key}_{role}.json")
                assert cm.verify()

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
        pipeline.stage_train(plan, out)
        pipeline.stage_compress(plan, out)
        assert sorted(loads) == ["original_shadow.json", "original_victim.json"]
        loads.clear()
        pipeline.stage_compress(plan, out)  # every compressed model exists
        assert loads == []
        pipeline.stage_attack(plan, out)
        assert len(pipeline._attack_cells(plan)) == 5
        assert sorted(loads) == sorted(f"{k}_{r}.json" for k in ("original", "prune70")
                                       for r in ("victim", "shadow"))

    def test_worker_pool_matches_sequential(self, tmp_path):
        plan = parse_plan_text(MINIMAL.replace("repetitions = 1", "repetitions = 2"))
        seq, par = tmp_path / "seq", tmp_path / "par"
        pipeline.run_plan(plan, seq, workers=1)
        pipeline.run_plan(plan, par, workers=2)
        assert report_bytes(seq) == report_bytes(par)


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

    def test_dependency_error_exit_two(self, tmp_path):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        code = cli.main(["--plan", str(plan_path), "--out", str(tmp_path / "o"),
                         "--stage", "attack"])
        assert code == 2

    def test_truncated_score_file_exit_two(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        for stage in ("train", "compress", "attack"):
            assert cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", stage]) == 0
        score = out / "checkpoints" / "scores" / "rep0" / "nr_loss__prune70.json"
        score.write_bytes(score.read_bytes()[:40])
        code = cli.main(["--plan", str(plan_path), "--out", str(out), "--stage", "evaluate"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "malformed JSON" in err[0]

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

    @pytest.mark.parametrize("damaged", [
        "checkpoints/scores/rep0/nr_loss__prune70.json",
        "checkpoints/metrics/rep0/nr_loss__prune70.json",
    ])
    def test_resume_recomputes_a_damaged_output(self, tmp_path, damaged):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert cli.main(["--plan", str(plan_path), "--out", str(clean)]) == 0
        assert cli.main(["--plan", str(plan_path), "--out", str(out)]) == 0
        path = out / damaged
        path.write_bytes(path.read_bytes()[:40])
        assert cli.main(["--plan", str(plan_path), "--out", str(out)]) == 0
        assert path.read_bytes() == (clean / damaged).read_bytes()
        files = sorted(p.relative_to(clean) for p in (clean / "report").rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out) for p in (out / "report").rglob("*") if p.is_file())
        assert all((clean / f).read_bytes() == (out / f).read_bytes() for f in files)

    def test_report_seed_base_recorded(self, tmp_path):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "out"
        cli.main(["--plan", str(plan_path), "--out", str(out), "--seed-base", "55"])
        report = json.loads((out / "report" / "report.json").read_text())
        assert report["seed_base"] == 55
