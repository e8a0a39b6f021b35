import copy
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import pdxplain as px
from pdxplain.cli import main
from pdxplain.pipeline import RunConfig, StageError, format_report, run_pipeline

DATA = Path(px.__file__).parent / "data"

SMALL_DOC = {
    "seed": 21,
    "generator": {
        "n_companies": 900,
        "year_range": [2004, 2018],
        "imbalance_ratio": 12.0,
        "signal_strength": 1.2,
        "missing_rates": {"total_employees": 0.05},
    },
    "split": {"train_years": [2004, 2012], "validation_years": [2013, 2018], "test_fraction": 0.3},
    "smote": {"k": 5, "target_ratio": 0.5},
    "model": {"kind": "gbt", "params": {"n_estimators": 20, "max_depth": 3}},
    "attribution": {"background_size": 40, "n_instances": 6, "group_countries": True},
    "grading": {"mode": "calibrate"},
}


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def swapped_survey(tmp_path) -> Path:
    """The bundled survey with two features' points swapped for every analyst."""
    survey = tmp_path / "survey.csv"
    survey.write_text((DATA / "analyst_survey.csv").read_text().replace("r2_liquidity", "@")
                      .replace("r3_profitability", "r2_liquidity").replace("@", "r3_profitability"))
    return survey


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    config = RunConfig.from_dict(SMALL_DOC)
    bundle = run_pipeline(config, out)
    return {"config": config, "bundle": bundle, "out": out}


class TestRunPipeline:
    def test_bundle_contains_all_five_tables(self, small_run):
        bundle = small_run["bundle"]
        assert {r["row"] for r in bundle["performance"]["rows"]} == {"WRS", "RS", "RS+VS"}
        assert len(bundle["default_rates"]) > 5
        assert np.array(bundle["grading"]["confusion"]["matrix"]).shape == (6, 6)
        assert len(bundle["attribution"]["ranking"]) == 10  # grouped players
        assert set(bundle["alignment"]["features"]) == set(bundle["attribution"]["players"])

    def test_csv_tables_written(self, small_run):
        names = {p.name for p in small_run["out"].iterdir()}
        assert {
            "report.json",
            "performance.csv",
            "default_rates.csv",
            "grade_confusion.csv",
            "importance.csv",
            "alignment.csv",
        } <= names

    def test_rerun_to_fresh_directory_is_byte_identical(self, small_run, tmp_path):
        out2 = tmp_path / "again"
        run_pipeline(small_run["config"], out2)
        assert tree_digest(small_run["out"]) == tree_digest(out2)

    def test_rerun_same_directory_reuses_stages(self, small_run):
        out = small_run["out"]
        markers = list((out / "stages").glob("*/.done"))
        assert len(markers) == 8
        before = tree_digest(out)
        run_pipeline(small_run["config"], out)
        assert tree_digest(out) == before

    def test_stage_error_names_the_stage(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_DOC))
        doc["generator"]["signal_strength"] = 60.0
        doc["generator"]["imbalance_ratio"] = 200.0
        with pytest.raises(StageError, match="generate"):
            run_pipeline(RunConfig.from_dict(doc), tmp_path / "fail")

    def test_partial_artifacts_survive_failure(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_DOC))
        doc["generator"]["n_companies"] = 400
        doc["split"]["train_years"] = [1990, 1995]  # no rows -> prepare fails
        doc["split"]["validation_years"] = [1996, 1999]
        out = tmp_path / "partial"
        with pytest.raises(StageError, match="prepare"):
            run_pipeline(RunConfig.from_dict(doc), out)
        produced = list(out.rglob("data.csv"))
        assert produced, "generate stage output should be retained"

    def test_empty_validation_window_fails_in_prepare(self, tmp_path):
        doc = copy.deepcopy(SMALL_DOC)
        doc["split"]["validation_years"] = [2019, 2020]  # past the panel's last year
        with pytest.raises(StageError, match=r"'prepare'.*validation years 2019-2020 hold no rows"):
            run_pipeline(RunConfig.from_dict(doc), tmp_path / "empty_validation")

    def test_bundle_write_failure_keeps_previous_files(self, small_run, tmp_path, monkeypatch):
        out = tmp_path / "copy"
        shutil.copytree(small_run["out"], out)
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        survey = swapped_survey(tmp_path)  # a changed survey changes the bundle; only align reruns
        doc = copy.deepcopy(SMALL_DOC)
        doc["survey_path"] = str(survey)

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(px.pipeline.csv, "writer", fail)  # the CSV tables cannot be written
        with pytest.raises(StageError, match="'report'"):
            run_pipeline(RunConfig.from_dict(doc), out)
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    def test_uniform_survey_writes_null_correlations(self, small_run, tmp_path):
        survey = tmp_path / "survey.csv"
        players = small_run["bundle"]["attribution"]["players"]
        survey.write_text("analyst_id,feature,points\n" + "".join(f"even,{p},10\n" for p in players))
        out = tmp_path / "copy"
        shutil.copytree(small_run["out"], out)
        doc = copy.deepcopy(SMALL_DOC)
        doc["survey_path"] = str(survey)
        bundle = run_pipeline(RunConfig.from_dict(doc), out)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        assert json.loads((out / "report.json").read_text(), parse_constant=reject) == bundle
        assert bundle["alignment"]["spearman"] is None and bundle["alignment"]["kendall"] is None
        assert bundle["alignment"]["per_analyst_spearman"] == {"even": None}
        assert "Spearman rho: n/a   Kendall tau-b: n/a" in format_report(bundle)

    def test_ungrouped_countries_rejected_before_any_stage(self, tmp_path):
        doc = copy.deepcopy(SMALL_DOC)
        doc["attribution"]["group_countries"] = False
        with pytest.raises(ValueError, match="group_countries"):
            run_pipeline(RunConfig.from_dict(doc), tmp_path / "ungrouped")
        assert not (tmp_path / "ungrouped").exists()

    def test_bundled_demo_config_digest_is_pinned(self):
        doc = json.loads((DATA / "demo_config.json").read_text())
        assert RunConfig.from_dict(doc).digest() == "23141dd01b2e"

    def test_seed_propagation_fills_stage_seeds(self):
        config = RunConfig.from_dict({"seed": 5, "generator": SMALL_DOC["generator"]})
        other = RunConfig.from_dict({"seed": 6, "generator": SMALL_DOC["generator"]})
        assert config.generator.seed != other.generator.seed
        assert config.split.seed != other.split.seed
        assert config.digest() != other.digest()

    def test_explicit_stage_seed_wins(self):
        doc = json.loads(json.dumps(SMALL_DOC))
        doc["smote"]["seed"] = 12345
        config = RunConfig.from_dict(doc)
        assert config.smote.seed == 12345


def stage_markers(out) -> dict:
    """Stage directory name -> mtime of its .done marker."""
    return {p.parent.name: p.stat().st_mtime_ns for p in (Path(out) / "stages").glob("*/.done")}


class TestStageCache:
    def test_model_sweep_reuses_upstream_stages(self, tmp_path):
        out = tmp_path / "sweep"
        run_pipeline(RunConfig.from_dict(SMALL_DOC), out)
        before = stage_markers(out)
        doc = copy.deepcopy(SMALL_DOC)
        doc["model"] = {"kind": "lr"}
        run_pipeline(RunConfig.from_dict(doc), out)
        after = stage_markers(out)
        assert {name: after[name] for name in before} == before
        rerun = {name.rsplit("_", 1)[0] for name in set(after) - set(before)}
        assert rerun == {"train", "evaluate", "explain", "map-grades", "align"}

    @pytest.mark.parametrize(
        "bundled, set_path, edit, section, stage",
        [
            (
                "analyst_survey.csv",
                lambda doc, path: doc.__setitem__("survey_path", path),
                # swap two features' points for every analyst
                lambda text: text.replace("r2_liquidity", "@")
                .replace("r3_profitability", "r2_liquidity")
                .replace("@", "r3_profitability"),
                "alignment",
                "align",
            ),
            (
                "scorecard_intervals.json",
                lambda doc, path: doc.__setitem__("grading", {"mode": "fixed", "intervals_path": path}),
                lambda text: text.replace("0.0828", "0.0128"),
                "grading",
                "map-grades",
            ),
        ],
        ids=["survey", "intervals"],
    )
    def test_input_file_edited_in_place_is_not_served_stale(
        self, tmp_path, bundled, set_path, edit, section, stage
    ):
        path = tmp_path / bundled
        shutil.copyfile(DATA / bundled, path)
        doc = copy.deepcopy(SMALL_DOC)
        set_path(doc, str(path))
        config = RunConfig.from_dict(doc)
        out = tmp_path / "run"
        first = run_pipeline(config, out)
        before = stage_markers(out)
        path.write_text(edit(path.read_text()))
        rerun = run_pipeline(config, out)
        fresh = run_pipeline(config, tmp_path / "fresh")
        assert rerun[section] != first[section]
        assert rerun == fresh
        assert {name.rsplit("_", 1)[0] for name in set(stage_markers(out)) - set(before)} == {stage}


BUNDLE_FILES = ("report.json", "performance.csv", "default_rates.csv", "grade_confusion.csv",
                "importance.csv", "alignment.csv")


def bundle_bytes(out) -> dict:
    return {name: (Path(out) / name).read_bytes() for name in BUNDLE_FILES}


def copy_stages(small_run, dest) -> Path:
    """A copy of the small run's stage directories, without its bundle."""
    shutil.copytree(small_run["out"] / "stages", dest / "stages")
    return dest


def forbid_upstream_reads(monkeypatch, allowed=()):
    """Make every upstream artifact parser raise, except ``allowed``."""
    def fail(*args, **kwargs):
        raise AssertionError("upstream artifact parsed")

    for owner, name in ((px.pipeline, "read_statements"), (px.pipeline, "read_reference_grades"),
                        (px.pipeline, "load_model"), (px.FeatureMatrix, "from_csv")):
        if name not in allowed:
            monkeypatch.setattr(owner, name, fail)


class TestArtifactReads:
    def test_all_hit_rerun_parses_no_upstream_artifact(self, small_run, tmp_path, monkeypatch):
        out = copy_stages(small_run, tmp_path / "rerun")
        forbid_upstream_reads(monkeypatch)
        run_pipeline(small_run["config"], out)
        assert bundle_bytes(out) == bundle_bytes(small_run["out"])

    def test_survey_edit_loads_only_the_attribution(self, small_run, tmp_path, monkeypatch):
        doc = copy.deepcopy(SMALL_DOC)
        doc["survey_path"] = str(swapped_survey(tmp_path))
        config = RunConfig.from_dict(doc)
        run_pipeline(config, tmp_path / "fresh")
        out = copy_stages(small_run, tmp_path / "rerun")
        forbid_upstream_reads(monkeypatch)
        loaded, original = [], px.AttributionReport.load.__func__

        def load(cls, path):
            loaded.append(Path(path).name)
            return original(cls, path)

        monkeypatch.setattr(px.AttributionReport, "load", classmethod(load))
        run_pipeline(config, out)
        assert loaded == ["attributions.json"]
        assert bundle_bytes(out) == bundle_bytes(tmp_path / "fresh")

    def test_model_sweep_never_reads_raw_statements(self, small_run, tmp_path, monkeypatch):
        doc = copy.deepcopy(SMALL_DOC)
        doc["model"] = {"kind": "lr"}
        config = RunConfig.from_dict(doc)
        run_pipeline(config, tmp_path / "fresh")
        out = copy_stages(small_run, tmp_path / "sweep")
        forbid_upstream_reads(monkeypatch, allowed=("from_csv", "load_model", "read_reference_grades"))
        run_pipeline(config, out)
        assert bundle_bytes(out) == bundle_bytes(tmp_path / "fresh")

    def test_missing_resampled_rows_fail_in_train(self, small_run, tmp_path):
        out = tmp_path / "broken"
        shutil.copytree(small_run["out"], out)
        (rs,) = out.glob("stages/resample_*/train_resampled.csv")
        rs.unlink()
        doc = copy.deepcopy(SMALL_DOC)
        doc["model"] = {"kind": "lr"}
        with pytest.raises(StageError, match="'train'") as info:
            run_pipeline(RunConfig.from_dict(doc), out)
        assert info.value.stage == "train"
        assert bundle_bytes(out) == bundle_bytes(small_run["out"])


class TestFormatReport:
    def test_percent_and_fraction_conventions(self):
        bundle = {
            "performance": {
                "rows": [
                    {
                        "row": "RS+VS",
                        "model": "gbt",
                        "accuracy": 0.9539,
                        "precision": 0.0122,
                        "recall": 0.1529,
                        "f1": 0.0536,
                        "auc": 0.7466,
                    }
                ]
            }
        }
        text = format_report(bundle)
        assert "95.39" in text
        assert "0.0536" in text
        assert "0.7466" in text

    def test_empty_sections_announced(self):
        text = format_report({})
        assert text.count("[section omitted:") == 5

    def test_full_bundle_renders(self, small_run):
        text = format_report(small_run["bundle"])
        for heading in (
            "Performance",
            "Default rate by year",
            "Grade confusion",
            "Global importance",
            "Expert alignment",
        ):
            assert heading in text

    def test_undefined_auc_renders_na(self):
        bundle = {
            "performance": {
                "rows": [
                    {
                        "row": "WRS",
                        "model": "lr",
                        "accuracy": 1.0,
                        "precision": 0.0,
                        "recall": 0.0,
                        "f1": 0.0,
                        "auc": None,
                    }
                ]
            }
        }
        assert "n/a" in format_report(bundle)


class TestCli:
    def test_full_stage_chain(self, tmp_path, capsys):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(
            json.dumps(
                {
                    "n_companies": 500,
                    "year_range": [2004, 2018],
                    "imbalance_ratio": 10.0,
                    "signal_strength": 1.2,
                    "seed": 3,
                }
            )
        )
        prep_cfg = tmp_path / "prep.json"
        prep_cfg.write_text(json.dumps({"test_fraction": 0.3, "seed": 1}))
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n_estimators": 10, "max_depth": 3}))

        data = tmp_path / "data.csv"
        ref = tmp_path / "ref.csv"
        features = tmp_path / "features.csv"
        meta = tmp_path / "features.meta.json"
        train_rs = tmp_path / "train_rs.csv"
        model = tmp_path / "model.json"
        report = tmp_path / "eval.json"
        attr = tmp_path / "attr.json"
        grading = tmp_path / "grading.json"
        align_out = tmp_path / "alignment.json"

        steps = [
            ["generate", "--config", str(gen_cfg), "--out", str(data), "--grades-out", str(ref)],
            ["prepare", "--in", str(data), "--config", str(prep_cfg), "--out", str(features)],
            ["resample", "--in", str(features), "--meta", str(meta), "--k", "5",
             "--ratio", "0.5", "--seed", "2", "--out", str(train_rs)],
            ["train", "--model", "gbt", "--params", str(params), "--in", str(train_rs),
             "--out", str(model), "--seed", "0"],
            ["evaluate", "--model", str(model), "--in", str(features), "--meta", str(meta),
             "--split", "validation", "--report", str(report)],
            ["explain", "--model", str(model), "--in", str(features), "--meta", str(meta),
             "--split", "validation", "--background", str(train_rs), "--group-countries",
             "--max-instances", "5", "--out", str(attr), "--seed", "1"],
            ["map-grades", "--model", str(model), "--reference", str(ref), "--in", str(features),
             "--meta", str(meta), "--split", "validation", "--out", str(grading)],
            ["align", "--attribution", str(attr), "--out", str(align_out)],
        ]
        for argv in steps:
            assert main(argv) == 0, f"subcommand failed: {argv[0]}"
        capsys.readouterr()

        doc = json.loads(align_out.read_text())
        assert "spearman" in doc

    def test_stage_chain_matches_pipeline_artifacts(self, small_run, tmp_path, capsys):
        config = small_run["config"]
        stages = small_run["out"] / "stages"

        def pipeline_artifact(name):
            (path,) = stages.glob(f"*/{name}")
            return path

        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(SMALL_DOC["generator"]))
        split_cfg = tmp_path / "split.json"
        split_cfg.write_text(json.dumps(SMALL_DOC["split"]))
        params = tmp_path / "params.json"
        params.write_text(json.dumps(SMALL_DOC["model"]["params"]))
        f = {name: str(tmp_path / name) for name in (
            "data.csv", "reference_grades.csv", "features.csv", "features.meta.json",
            "train_resampled.csv", "smote_audit.json", "model_rs.json", "grading.json",
            "alignment.json",
        )}
        steps = [
            ["generate", "--config", str(gen_cfg), "--seed", str(config.generator.seed),
             "--out", f["data.csv"], "--grades-out", f["reference_grades.csv"]],
            ["prepare", "--in", f["data.csv"], "--config", str(split_cfg),
             "--seed", str(config.split.seed), "--out", f["features.csv"]],
            ["resample", "--in", f["features.csv"], "--meta", f["features.meta.json"],
             "--k", str(config.smote.k), "--ratio", str(config.smote.target_ratio),
             "--seed", str(config.smote.seed), "--out", f["train_resampled.csv"],
             "--audit", f["smote_audit.json"]],
            ["train", "--model", config.model_kind, "--params", str(params),
             "--in", f["train_resampled.csv"], "--seed", str(config.model_seed),
             "--out", f["model_rs.json"]],
            ["map-grades", "--model", f["model_rs.json"], "--reference", f["reference_grades.csv"],
             "--in", f["features.csv"], "--meta", f["features.meta.json"],
             "--split", "validation", "--out", f["grading.json"]],
            ["align", "--attribution", str(pipeline_artifact("attributions.json")),
             "--out", f["alignment.json"]],
        ]
        for argv in steps:
            assert main(argv) == 0, f"subcommand failed: {argv[0]}"
        capsys.readouterr()
        for name, path in f.items():
            assert Path(path).read_bytes() == pipeline_artifact(name).read_bytes(), name

    def test_calibrated_grading_needs_meta(self, small_run, tmp_path, capsys):
        stages = small_run["out"] / "stages"
        (features,) = stages.glob("*/features.csv")
        (model,) = stages.glob("*/model_rs.json")
        (ref,) = stages.glob("*/reference_grades.csv")
        rc = main(["map-grades", "--model", str(model), "--reference", str(ref),
                   "--in", str(features), "--out", str(tmp_path / "grading.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error [map-grades]:" in err and "--meta" in err

    def test_fixed_interval_grading(self, tmp_path):
        from conftest import random_matrix

        fm = random_matrix(40, seed=0)
        features = tmp_path / "f.csv"
        fm.to_csv(features)
        model_path = tmp_path / "m.json"
        px.save_model(px.fit("gbt", fm, {"n_estimators": 5, "max_depth": 2}), model_path)
        ref = tmp_path / "ref.csv"
        lines = ["company_id,statement_year,grade"]
        lines += [f"{cid},2010,{'ABCDEF'[i % 6]}" for i, cid in enumerate(fm.company_ids)]
        ref.write_text("\n".join(lines) + "\n")
        out = tmp_path / "grading.json"
        assert (
            main(
                [
                    "map-grades", "--model", str(model_path), "--reference", str(ref),
                    "--in", str(features), "--fixed-intervals",
                    "src/pdxplain/data/scorecard_intervals.json", "--out", str(out),
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["mode"] == "fixed"
        assert doc["calibration"]["upper_bounds"][0] == 0.0828

    def test_run_and_report_commands(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = json.loads(json.dumps(SMALL_DOC))
        doc["generator"]["n_companies"] = 500
        doc["attribution"]["n_instances"] = 4
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "bundle"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Performance" in text and "Expert alignment" in text

    def test_train_on_empty_csv_names_the_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = main(["train", "--model", "lr", "--in", str(empty), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert f"error [train]: feature CSV {empty} is empty" in capsys.readouterr().err

    def test_align_rejects_all_zero_attribution(self, tmp_path, capsys):
        from pdxplain.alignment import PLAYER_FEATURES

        attr = tmp_path / "attr.json"
        px.AttributionReport(players=list(PLAYER_FEATURES), base_value=0.1,
                             phi=np.zeros((3, len(PLAYER_FEATURES))), predictions=np.full(3, 0.1)).save(attr)
        out = tmp_path / "alignment.json"
        rc = main(["align", "--attribution", str(attr), "--out", str(out)])
        assert rc == 1
        assert "error [align]: every player has zero mean |attribution|" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_grades_without_year_column(self, tmp_path):
        # company-wide grades (no statement_year column) apply to all years
        from pdxplain.pipeline import read_reference_grades

        path = tmp_path / "ref.csv"
        path.write_text("company_id,grade\nC1,A\nC2,F\n")
        ref = read_reference_grades(path)
        assert ref.get("C1", 2010) == "A"
        assert ref.get("C1", 2015) == "A"
        assert ref.get("C3", 2010) is None

    def test_failure_is_stage_tagged_and_nonzero(self, tmp_path, capsys):
        rc = main(["evaluate", "--model", str(tmp_path / "nope.json"),
                   "--in", str(tmp_path / "nope.csv"), "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert "error [evaluate]:" in capsys.readouterr().err

    def test_run_failure_reports_inner_stage(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = json.loads(json.dumps(SMALL_DOC))
        doc["generator"]["signal_strength"] = 60.0
        doc["generator"]["imbalance_ratio"] = 200.0
        cfg.write_text(json.dumps(doc))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert rc == 1
        assert "error [generate]:" in capsys.readouterr().err
