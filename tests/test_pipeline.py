import copy
import hashlib
import json
import os
import re
import runpy
import shutil
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import pdxplain as px
from pdxplain import forks
from pdxplain.cli import main
from pdxplain.pipeline import (
    BUNDLE_FILES,
    AttributionSection,
    ModelSection,
    ReferenceGrades,
    RunConfig,
    StageError,
    _paired_grades,
    format_report,
    read_reference_grades,
    run_pipeline,
)

from conftest import SPOILERS, tree_digest
from record_loops import paired_grades, to_records, write_records

DATA = Path(px.__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]

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
        produced = list(out.rglob("data.npz"))
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
        marker = (out / "stages" / "bundle.json").read_bytes()
        with pytest.raises(StageError, match="'report'"):
            run_pipeline(RunConfig.from_dict(doc), out)
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert (out / "stages" / "bundle.json").read_bytes() == marker
        states = file_states(out)  # the original config hits: nothing is rendered, so the failing writer is not called
        assert run_pipeline(small_run["config"], out) == small_run["bundle"]
        assert file_states(out) == states
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


class TestStrictConfig:
    @pytest.mark.parametrize("section, key", [
        ("generator", "n_company"),
        ("split", "train_year"),
        ("smote", "ratio"),
        ("model", "param"),
        ("attribution", "n_instance"),
        ("grading", "interval_path"),
        (None, "survey"),
    ])
    def test_unknown_key_rejected_before_any_stage(self, tmp_path, section, key):
        doc = copy.deepcopy(SMALL_DOC)
        (doc if section is None else doc[section])[key] = 5
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            run_pipeline(RunConfig.from_dict(doc), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_section_must_be_an_object(self):
        doc = copy.deepcopy(SMALL_DOC)
        doc["model"] = None
        with pytest.raises(ValueError, match="'model' must be a JSON object"):
            RunConfig.from_dict(doc)

    def test_missing_required_key_names_the_section(self):
        doc = copy.deepcopy(SMALL_DOC)
        del doc["generator"]["n_companies"]
        with pytest.raises(ValueError, match="'generator'.*n_companies"):
            RunConfig.from_dict(doc)

    def test_sections_cast_their_values(self):
        doc = copy.deepcopy(SMALL_DOC)
        doc.update(seed="21", countries=["FR", "GB"])
        doc["smote"].update(k=5.0, target_ratio=1)
        doc["attribution"].update(n_instances="6", seed=3.0)
        config = RunConfig.from_dict(doc)
        assert config.generator.year_range == (2004, 2018) and config.split.train_years == (2004, 2012)
        assert (config.seed, config.countries) == (21, ("FR", "GB"))
        assert (config.smote.k, config.smote.target_ratio) == (5, 1.0)
        assert type(config.smote.target_ratio) is float
        assert (config.attribution.n_instances, config.attribution.seed) == (6, 3)
        assert config.to_dict() == RunConfig.from_dict(config.to_dict()).to_dict()

    def test_unknown_grading_mode_rejected(self):
        doc = copy.deepcopy(SMALL_DOC)
        doc["grading"] = {"mode": "nearest"}
        with pytest.raises(ValueError, match="grading.mode"):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("model, message", [
        ({"kind": "xgb"}, "model.kind 'xgb' is not one of lr, adaboost, rf, gbt"),
        ({"kind": "gbt", "params": {"n_estimator": 3}}, "unknown key 'n_estimator'"),
        ({"kind": "lr", "params": {"max_depth": 3}}, "unknown key 'max_depth'"),
        ({"kind": "rf", "params": {"bootstrap_fraction": 2.0}}, "invalid random forest hyperparameters"),
        ({"kind": "gbt", "params": []}, "must be a JSON object"),
    ], ids=["kind", "gbt_key", "lr_key", "rf_value", "params_list"])
    def test_bad_model_rejected_before_any_stage(self, tmp_path, model, message):
        doc = copy.deepcopy(SMALL_DOC)
        doc["model"] = model
        with pytest.raises(ValueError, match=re.escape(message)):
            run_pipeline(RunConfig.from_dict(doc), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("model, digest", [
        (SMALL_DOC["model"], "74e0338312e5"),
        ({"kind": "rf", "params": {"n_estimators": 3, "max_depth": 2, "bootstrap_fraction": 0.5}}, "5600dfa0281f"),
    ])
    def test_model_check_keeps_digests(self, model, digest):
        assert RunConfig.from_dict({**SMALL_DOC, "model": model}).digest() == digest

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_group_countries_must_be_a_boolean(self, value):
        doc = copy.deepcopy(SMALL_DOC)
        doc["attribution"]["group_countries"] = value
        with pytest.raises(ValueError, match="group_countries must be true or false"):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("value", ["abc", 2.5, None, [1], True, "2.0"])
    def test_non_integer_seed_names_the_key(self, value):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, not {value!r}")):
            RunConfig.from_dict({**SMALL_DOC, "seed": value})

    def test_whole_number_seeds_are_accepted(self):
        assert {RunConfig.from_dict({**SMALL_DOC, "seed": v}).seed for v in (21, "21", 21.0)} == {21}

    @pytest.mark.parametrize("section, key, value, bad", [
        ("generator", "seed", 2.5, 2.5),
        ("generator", "n_companies", 900.5, 900.5),
        ("generator", "year_range", [2004, 2018.5], 2018.5),
        ("split", "seed", 1.5, 1.5),
        ("split", "train_years", [2004.5, 2012], 2004.5),
        ("smote", "k", 5.7, 5.7),
        ("smote", "seed", True, True),
        ("model", "seed", "3.5", "3.5"),
        ("attribution", "background_size", 40.1, 40.1),
        ("attribution", "n_instances", 25.9, 25.9),
        ("attribution", "seed", 2.5, 2.5),
    ])
    def test_section_integers_must_be_whole_numbers(self, tmp_path, section, key, value, bad):
        doc = copy.deepcopy(SMALL_DOC)
        doc[section][key] = value
        with pytest.raises(ValueError, match=re.escape(f"{section}.{key} must be an integer, not {bad!r}")):
            run_pipeline(RunConfig.from_dict(doc), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("model, key, bad", [
        ({"kind": "gbt", "params": {"n_estimators": 5.5}}, "n_estimators", 5.5),
        ({"kind": "gbt", "params": {"n_estimators": 3, "max_depth": 2.5}}, "max_depth", 2.5),
        ({"kind": "rf", "params": {"n_estimators": "4.0"}}, "n_estimators", "4.0"),
        ({"kind": "lr", "params": {"epochs": True}}, "epochs", True),
    ])
    def test_integer_hyperparameters_must_be_whole_numbers(self, tmp_path, model, key, bad):
        doc = copy.deepcopy(SMALL_DOC)
        doc["model"] = model
        with pytest.raises(ValueError, match=re.escape(f"model.params.{key} must be an integer, not {bad!r}")):
            run_pipeline(RunConfig.from_dict(doc), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("cls, kwargs, key, bad", [
        (px.GeneratorConfig, {"n_companies": 900, "year_range": (2004, 2018), "seed": 2.5}, "generator.seed", 2.5),
        (px.GeneratorConfig, {"n_companies": 900.5, "year_range": (2004, 2018)}, "generator.n_companies", 900.5),
        (px.GeneratorConfig, {"n_companies": 900, "year_range": (2004, 2018.5)}, "generator.year_range", 2018.5),
        (px.SplitSpec, {"seed": 1.5}, "split.seed", 1.5),
        (px.SplitSpec, {"train_years": (2004.5, 2012)}, "split.train_years", 2004.5),
        (px.SplitSpec, {"validation_years": (2013, 2018.5)}, "split.validation_years", 2018.5),
        (px.SmoteConfig, {"seed": 2.5}, "smote.seed", 2.5),
        (ModelSection, {"seed": 1.5}, "model.seed", 1.5),
        (AttributionSection, {"background_size": 99.5}, "attribution.background_size", 99.5),
        (AttributionSection, {"n_instances": 25.9}, "attribution.n_instances", 25.9),
        (AttributionSection, {"seed": 0.5}, "attribution.seed", 0.5),
    ])
    def test_sections_built_directly_refuse_non_whole_integers(self, cls, kwargs, key, bad):
        with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, not {bad!r}")):
            cls(**kwargs)

    @pytest.mark.parametrize("key, value", [
        ("background_size", 0),
        ("background_size", -1),
        ("n_instances", 0),
        ("n_instances", -3),
    ])
    def test_attribution_sizes_below_one_rejected_before_any_stage(self, tmp_path, key, value):
        message = re.escape(f"attribution.{key} must be >= 1, not {value}")
        with pytest.raises(ValueError, match=message):
            AttributionSection(**{key: value})
        doc = copy.deepcopy(SMALL_DOC)
        doc["attribution"][key] = value
        with pytest.raises(ValueError, match=message):
            run_pipeline(RunConfig.from_dict(doc), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_whole_number_section_integers_keep_the_digest(self):
        doc = copy.deepcopy(SMALL_DOC)
        doc["generator"].update(seed=11, n_companies=900.0, year_range=[2004.0, 2018])
        doc["split"].update(seed=12.0, train_years=[2004, 2012.0])
        doc["smote"].update(k=5.0, seed="13")
        doc["model"].update(seed=14.0, params={"n_estimators": 20.0, "max_depth": 3.0})
        doc["attribution"].update(background_size=40.0, n_instances=6.0, seed=15.0)
        whole = copy.deepcopy(SMALL_DOC)
        whole["generator"]["seed"], whole["split"]["seed"], whole["smote"]["seed"] = 11, 12, 13
        whole["model"]["seed"], whole["attribution"]["seed"] = 14, 15
        config = RunConfig.from_dict(doc)
        assert config.to_dict() == RunConfig.from_dict(whole).to_dict()
        assert config.digest() == RunConfig.from_dict(whole).digest()
        assert type(config.generator.n_companies) is int and type(config.split.train_years[1]) is int
        assert type(config.model.params["n_estimators"]) is int


def held_in(doc, parsed) -> bool:
    """Whether every key and value of ``doc`` appears in ``parsed``."""
    if isinstance(doc, dict):
        return isinstance(parsed, dict) and all(k in parsed and held_in(v, parsed[k]) for k, v in doc.items())
    return doc == parsed


def test_every_benchmark_config_parses_and_round_trips():
    """The strict parser accepts every workload config the desk-run
    benchmark generates, and drops none of its keys or values."""
    workloads = runpy.run_path(str(ROOT / "deskbench" / "workloads.py"))  # writes no bytecode
    for name in workloads["NAMES"]:
        for smoke in (False, True):
            doc = workloads["config_doc"](name, 2024, ROOT / "src", smoke=smoke)
            parsed = json.loads(json.dumps(RunConfig.from_dict(doc).to_dict()))
            assert held_in(doc, parsed), (name, smoke)


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


def bundle_bytes(out) -> dict:
    return {name: (Path(out) / name).read_bytes() for name in BUNDLE_FILES}


def file_states(out) -> dict:
    """Path under ``out`` (``out`` itself included) -> (mtime, inode). A file
    created, rewritten, renamed over or deleted changes it."""
    return {str(p.relative_to(out)): (p.stat().st_mtime_ns, p.stat().st_ino)
            for p in [Path(out), *Path(out).rglob("*")]}


def copy_stages(small_run, dest) -> Path:
    """A copy of the small run's stage directories, without its bundle."""
    shutil.copytree(small_run["out"] / "stages", dest / "stages")
    return dest


# Every reader of an upstream artifact: label -> (owner, attribute).
UPSTREAM_READERS = {
    "Statements.load": (px.Statements, "load"),
    "FeatureMatrix.load": (px.FeatureMatrix, "load"),
    "ReferenceGrades.load": (px.pipeline.ReferenceGrades, "load"),
    "load_model": (px.pipeline, "load_model"),
}


def forbid_upstream_reads(monkeypatch, allowed=()):
    """Make every upstream artifact reader raise, except those ``allowed``."""
    def fail(*args, **kwargs):
        raise AssertionError("upstream artifact parsed")

    for label, (owner, name) in UPSTREAM_READERS.items():
        if label not in allowed:
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
        forbid_upstream_reads(monkeypatch, allowed=("FeatureMatrix.load", "load_model", "ReferenceGrades.load"))
        run_pipeline(config, out)
        assert bundle_bytes(out) == bundle_bytes(tmp_path / "fresh")

    def test_missing_resampled_rows_fail_in_train(self, small_run, tmp_path):
        out = tmp_path / "broken"
        shutil.copytree(small_run["out"], out)
        (rs,) = out.glob("stages/resample_*/train_resampled.npz")
        rs.unlink()
        doc = copy.deepcopy(SMALL_DOC)
        doc["model"] = {"kind": "lr"}
        with pytest.raises(StageError, match="'train'") as info:
            run_pipeline(RunConfig.from_dict(doc), out)
        assert info.value.stage == "train"
        assert bundle_bytes(out) == bundle_bytes(small_run["out"])

    @pytest.mark.parametrize("spoil", SPOILERS)
    @pytest.mark.parametrize("artifact, stage, edit", [
        ("data.npz", "prepare", {"split": {**SMALL_DOC["split"], "test_fraction": 0.25}}),
        ("features.npz", "train", {"model": {"kind": "lr"}}),
        ("train_resampled.npz", "train", {"model": {"kind": "lr"}}),
    ], ids=["data", "features", "train_resampled"])
    def test_spoiled_stage_file_fails_in_the_stage_reading_it(self, small_run, tmp_path, spoil, artifact, stage,
                                                              edit):
        out = copy_stages(small_run, tmp_path / "spoiled")
        (path,) = out.glob(f"stages/*/{artifact}")
        SPOILERS[spoil][0](path)
        with pytest.raises(StageError) as info:
            run_pipeline(RunConfig.from_dict({**SMALL_DOC, **edit}), out)
        assert info.value.stage == stage
        assert isinstance(info.value.cause, ValueError) and str(info.value.cause).startswith(f"{path}: ")


def edited_marker(edit):
    """A marker spoiler that parses the marker, lets ``edit`` change it in place and writes it back."""
    def spoil(data):
        marker = json.loads(data)
        edit(marker)
        return json.dumps(marker).encode()
    return spoil


# How the bundle marker can be broken: its bytes -> new bytes, or None to delete it.
MARKER_SPOILERS = {
    "missing": lambda data: None,
    "empty": lambda data: b"",
    "truncated": lambda data: data[: len(data) // 2],
    "garbage": lambda data: b"\xff\xfe garbage",
    "list": lambda data: b"[1, 2]",
    "no_key": edited_marker(lambda m: m.pop("key")),
    "no_digests": edited_marker(lambda m: m["files"].clear()),
    "files_list": edited_marker(lambda m: m.update(files=list(m["files"]))),
    "stale_digest": edited_marker(lambda m: m["files"].update({"report.json": "0" * 64})),
}


# The stage JSON files the bundle is rendered from.
BUNDLE_SOURCES = ("generate_*/generation.json", "prepare_*/features.meta.json", "evaluate_*/performance.json",
                  "explain_*/attributions.json", "map-grades_*/grading.json", "align_*/alignment.json")


class TestBundleCache:
    """The bundle is keyed by the config and the bytes of the stage files it
    is rendered from; ``stages/bundle.json`` records that key and each bundle
    file's sha256."""

    def test_all_hit_rerun_writes_nothing(self, small_run, tmp_path, monkeypatch):
        out = tmp_path / "rerun"
        shutil.copytree(small_run["out"], out)
        forbid_upstream_reads(monkeypatch)
        read, read_json = [], px.pipeline.read_json
        monkeypatch.setattr(px.pipeline, "read_json", lambda path: read.append(Path(path).name) or read_json(path))
        states = file_states(out)
        assert run_pipeline(small_run["config"], out) == small_run["bundle"]
        assert file_states(out) == states
        assert not list(out.rglob("*.tmp"))
        assert read == ["bundle.json", "report.json"]  # the stage files are hashed, not parsed

    @pytest.mark.parametrize("pattern", BUNDLE_SOURCES)
    def test_any_byte_of_a_source_enters_the_key(self, small_run, tmp_path, pattern):
        out = tmp_path / "source"
        shutil.copytree(small_run["out"], out)
        key = json.loads((out / "stages" / "bundle.json").read_text())["key"]
        [path] = (out / "stages").glob(pattern)
        path.write_bytes(path.read_bytes() + b"\n")  # same JSON, different bytes
        assert run_pipeline(small_run["config"], out) == small_run["bundle"]
        assert json.loads((out / "stages" / "bundle.json").read_text())["key"] != key
        assert bundle_bytes(out) == bundle_bytes(small_run["out"])

    def test_stale_stage_file_is_rendered_not_served(self, small_run, tmp_path):
        """A finished stage's output edited in place reaches the next bundle,
        although every stage hits."""
        out = tmp_path / "stale"
        shutil.copytree(small_run["out"], out)
        [perf] = (out / "stages").glob("evaluate_*/performance.json")
        doc = json.loads(perf.read_text())
        doc["rows"][0]["accuracy"] = 0.5
        perf.write_text(json.dumps(doc))
        markers = stage_markers(out)
        report = run_pipeline(small_run["config"], out)
        assert stage_markers(out) == markers
        assert report["performance"] == doc
        assert report == json.loads((out / "report.json").read_text())
        assert (out / "performance.csv").read_text().splitlines()[1].split(",")[2] == "0.5"

    @pytest.mark.parametrize("name", BUNDLE_FILES)
    @pytest.mark.parametrize("damage", ["deleted", "edited"])
    def test_damaged_bundle_file_is_restored(self, small_run, tmp_path, name, damage):
        out = tmp_path / "damaged"
        shutil.copytree(small_run["out"], out)
        path = out / name
        if damage == "deleted":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes().replace(b"0", b"1", 1))
        assert run_pipeline(small_run["config"], out) == small_run["bundle"]
        assert bundle_bytes(out) == bundle_bytes(small_run["out"])
        assert tree_digest(out) == tree_digest(small_run["out"])

    @pytest.mark.parametrize("spoil", list(MARKER_SPOILERS))
    def test_broken_marker_rebuilds_the_bundle(self, small_run, tmp_path, spoil):
        out = tmp_path / "broken"
        shutil.copytree(small_run["out"], out)
        path = out / "stages" / "bundle.json"
        spoiled = MARKER_SPOILERS[spoil](path.read_bytes())
        if spoiled is None:
            path.unlink()
        else:
            path.write_bytes(spoiled)
        assert run_pipeline(small_run["config"], out) == small_run["bundle"]
        assert tree_digest(out) == tree_digest(small_run["out"])

    def test_survey_edit_rebuilds_the_bundle_and_updates_the_marker(self, small_run, tmp_path):
        out = tmp_path / "survey"
        shutil.copytree(small_run["out"], out)
        survey = tmp_path / "in_place.csv"
        shutil.copyfile(DATA / "analyst_survey.csv", survey)
        config = RunConfig.from_dict({**SMALL_DOC, "survey_path": str(survey)})
        first = run_pipeline(config, out)
        marker = json.loads((out / "stages" / "bundle.json").read_text())
        survey.write_text(swapped_survey(tmp_path).read_text())
        second = run_pipeline(config, out)
        assert second["alignment"] != first["alignment"]
        updated = json.loads((out / "stages" / "bundle.json").read_text())
        assert updated["key"] != marker["key"]
        assert updated["files"] == {name: hashlib.sha256(data).hexdigest() for name, data in bundle_bytes(out).items()}
        states = file_states(out)
        assert run_pipeline(config, out) == second
        assert file_states(out) == states


def count_forks(monkeypatch) -> list:
    """Record the pid of every child forked from now on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWork:
    """A tree ensemble's WRS fit and half its explained instances run in a
    forked child; the run tree is byte-identical to a one-CPU run's."""

    @pytest.mark.parametrize("model, forks_on_two_cpus", [
        (SMALL_DOC["model"], 2),  # train and explain
        ({"kind": "rf", "params": {"n_estimators": 8, "max_depth": 4}}, 2),
        ({"kind": "adaboost", "params": {"n_estimators": 10}}, 2),
        ({"kind": "lr", "params": None}, 0),
    ], ids=["gbt", "rf", "adaboost", "lr"])
    def test_forked_run_matches_one_cpu_run(self, tmp_path, monkeypatch, model, forks_on_two_cpus):
        config = RunConfig.from_dict({**SMALL_DOC, "model": model})
        runs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(forks, "_cpus", lambda: cpus)
            pids = count_forks(monkeypatch)
            run_pipeline(config, tmp_path / str(cpus))
            assert len(pids) == (forks_on_two_cpus if cpus == 2 else 0)
            assert_no_child_left()
            runs[cpus] = tree_digest(tmp_path / str(cpus))
        assert runs[1] == runs[2]

    def test_child_fit_failure_is_a_train_stage_error(self, small_run, tmp_path, monkeypatch):
        out = copy_stages(small_run, tmp_path / "failed")
        (train_dir,) = out.glob("stages/train_*")
        shutil.rmtree(train_dir)
        monkeypatch.setattr(forks, "_cpus", lambda: 2)
        pids = count_forks(monkeypatch)
        train_stage = px.pipeline.train_stage

        def fail_wrs(kind, rows, params, seed, model_path):
            if Path(model_path).name == "model_wrs.json":
                raise ValueError(f"no WRS fit in pid {os.getpid()}")
            train_stage(kind, rows, params, seed, model_path)

        monkeypatch.setattr(px.pipeline, "train_stage", fail_wrs)
        with pytest.raises(StageError, match="'train'") as info:
            run_pipeline(small_run["config"], out)
        assert info.value.stage == "train" and isinstance(info.value.cause, ValueError)
        assert str(info.value.cause) == f"no WRS fit in pid {pids[0]}"  # raised in the child
        if sys.version_info >= (3, 11):  # the child's traceback comes back as a note
            (note,) = info.value.cause.__notes__
            assert ", in fail_wrs\n" in note and 'raise ValueError(f"no WRS fit in pid' in note
        assert not (train_dir / ".done").exists()
        assert_no_child_left()
        monkeypatch.setattr(px.pipeline, "train_stage", train_stage)
        run_pipeline(small_run["config"], out)
        assert (train_dir / ".done").exists()
        assert tree_digest(out) == tree_digest(small_run["out"])
        assert_no_child_left()

    def test_global_importance_alone_stays_serial(self, small_run, monkeypatch):
        """Only run_pipeline lets its stages fork: a library caller's process may hold threads."""
        monkeypatch.setattr(forks, "_cpus", lambda: 2)
        pids = count_forks(monkeypatch)
        (prep,), (train,) = small_run["out"].glob("stages/prepare_*"), small_run["out"].glob("stages/train_*")
        split = px.SplitResult.load(prep / "features.npz")
        report = px.global_importance(px.load_model(train / "model_rs.json"), split.validation.X[:4],
                                      px.AttributionConfig(background=split.train.X[:20]))
        assert report.phi.shape[0] == 4 and pids == []


def test_stage_files_are_markers_json_or_npz(small_run):
    """No stray text writer in the stage directories, and no wall-clock byte
    in the hashed run directory: each .npz loads without pickles, and every
    zip member carries numpy's fixed 1980 timestamp."""
    files = [p for p in (small_run["out"] / "stages").rglob("*") if p.is_file()]
    for p in files:
        assert p.name == ".done" or p.suffix in (".json", ".npz"), p
    npzs = sorted(p for p in files if p.suffix == ".npz")
    assert sorted(p.name for p in npzs) == ["data.npz", "features.npz", "reference_grades.npz", "train_resampled.npz"]
    for p in npzs:
        with np.load(p, allow_pickle=False) as npz:
            assert all(npz[name].dtype != object for name in npz.files)
        with zipfile.ZipFile(p) as zf:
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}, p


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

        data = tmp_path / "data.npz"
        ref = tmp_path / "reference_grades.npz"
        features = tmp_path / "features.npz"
        train_rs = tmp_path / "train_rs.npz"
        model = tmp_path / "model.json"
        report = tmp_path / "eval.json"
        attr = tmp_path / "attr.json"
        grading = tmp_path / "grading.json"
        align_out = tmp_path / "alignment.json"

        steps = [
            ["generate", "--config", str(gen_cfg), "--out", str(data), "--grades-out", str(ref)],
            ["prepare", "--in", str(data), "--config", str(prep_cfg), "--out", str(features)],
            ["resample", "--in", str(features), "--split", "train", "--k", "5",
             "--ratio", "0.5", "--seed", "2", "--out", str(train_rs)],
            ["train", "--model", "gbt", "--params", str(params), "--in", str(train_rs),
             "--out", str(model), "--seed", "0"],
            ["evaluate", "--model", str(model), "--in", str(features),
             "--split", "validation", "--report", str(report)],
            ["explain", "--model", str(model), "--in", str(features),
             "--split", "validation", "--background", str(train_rs), "--group-countries",
             "--max-instances", "5", "--out", str(attr), "--seed", "1"],
            ["map-grades", "--model", str(model), "--reference", str(ref), "--in", str(features),
             "--split", "validation", "--out", str(grading)],
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
            "data.npz", "reference_grades.npz", "features.npz", "features.meta.json",
            "train_resampled.npz", "smote_audit.json", "model_rs.json", "grading.json",
            "alignment.json",
        )}
        steps = [
            ["generate", "--config", str(gen_cfg), "--seed", str(config.generator.seed),
             "--out", f["data.npz"], "--grades-out", f["reference_grades.npz"]],
            ["prepare", "--in", f["data.npz"], "--config", str(split_cfg),
             "--seed", str(config.split.seed), "--out", f["features.npz"]],
            ["resample", "--in", f["features.npz"], "--split", "train",
             "--k", str(config.smote.k), "--ratio", str(config.smote.target_ratio),
             "--seed", str(config.smote.seed), "--out", f["train_resampled.npz"],
             "--audit", f["smote_audit.json"]],
            ["train", "--model", config.model.kind, "--params", str(params),
             "--in", f["train_resampled.npz"], "--seed", str(config.model.seed),
             "--out", f["model_rs.json"]],
            ["map-grades", "--model", f["model_rs.json"], "--reference", f["reference_grades.npz"],
             "--in", f["features.npz"], "--split", "validation", "--out", f["grading.json"]],
            ["align", "--attribution", str(pipeline_artifact("attributions.json")),
             "--out", f["alignment.json"]],
        ]
        for argv in steps:
            assert main(argv) == 0, f"subcommand failed: {argv[0]}"
        capsys.readouterr()
        for name, path in f.items():
            assert Path(path).read_bytes() == pipeline_artifact(name).read_bytes(), name

    def test_calibrated_grading_needs_a_split(self, small_run, tmp_path, capsys):
        """Calibration fits on the test split, which a resampled matrix does not hold."""
        stages = small_run["out"] / "stages"
        (rows,) = stages.glob("*/train_resampled.npz")
        (model,) = stages.glob("*/model_rs.json")
        (ref,) = stages.glob("*/reference_grades.npz")
        rc = main(["map-grades", "--model", str(model), "--reference", str(ref),
                   "--in", str(rows), "--out", str(tmp_path / "grading.json")])
        assert rc == 1
        assert f"error [map-grades]: {rows}: no array 'train_indices'" in capsys.readouterr().err
        assert not (tmp_path / "grading.json").exists()

    def test_explain_falls_back_to_test_when_validation_is_empty(self, small_run, tmp_path, capsys):
        stages = small_run["out"] / "stages"
        (data,) = stages.glob("*/data.npz")
        (model,) = stages.glob("*/model_rs.json")
        (background,) = stages.glob("*/train_resampled.npz")
        cfg = tmp_path / "split.json"
        cfg.write_text(json.dumps({**SMALL_DOC["split"], "validation_years": [2019, 2020]}))  # past the panel
        features = tmp_path / "features.npz"
        assert main(["prepare", "--in", str(data), "--config", str(cfg), "--out", str(features)]) == 0
        assert px.SplitResult.load(features).validation_indices.size == 0
        for part in ("validation", "test"):
            assert main(["explain", "--model", str(model), "--in", str(features), "--split", part,
                         "--background", str(background), "--group-countries", "--max-instances", "3",
                         "--seed", "4", "--out", str(tmp_path / f"{part}.json")]) == 0
        assert "explained 3 rows" in capsys.readouterr().out
        assert (tmp_path / "validation.json").read_bytes() == (tmp_path / "test.json").read_bytes()

    def test_fixed_interval_grading(self, tmp_path):
        from conftest import random_matrix

        fm = random_matrix(40, seed=0)
        features = tmp_path / "f.npz"
        fm.save(features)
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

    def test_train_on_empty_file_names_the_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.npz"
        empty.write_text("")
        rc = main(["train", "--model", "lr", "--in", str(empty), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert f"error [train]: {empty}: " in capsys.readouterr().err

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
        path = tmp_path / "ref.csv"
        path.write_text("company_id,grade\nC1,A\nC2,F\n")
        ref = read_reference_grades(path)
        codes = ref.codes(np.array(["C1", "C1", "C3", "C2"]), np.array([2010, 2015, 2010, 1]))
        assert codes.tolist() == [0, 0, -1, 5]

    def test_failure_is_stage_tagged_and_nonzero(self, tmp_path, capsys):
        rc = main(["evaluate", "--model", str(tmp_path / "nope.json"),
                   "--in", str(tmp_path / "nope.npz"), "--report", str(tmp_path / "r.json")])
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

    def test_run_rejects_misspelled_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = copy.deepcopy(SMALL_DOC)
        doc["attribution"]["n_instance"] = 5
        cfg.write_text(json.dumps(doc))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error [run]:" in err and "'n_instance'" in err
        assert not (tmp_path / "b").exists()

    def test_prepare_config_checks_split_keys_and_takes_countries(self, small_run, tmp_path, capsys):
        (data,) = (small_run["out"] / "stages").glob("*/data.npz")
        cfg = tmp_path / "prep.json"
        cfg.write_text(json.dumps({"test_fraction": 0.3, "countries": ["FR", "GB"]}))
        meta = tmp_path / "f.meta.json"
        assert main(["prepare", "--in", str(data), "--config", str(cfg), "--out", str(tmp_path / "f.npz")]) == 0
        assert json.loads(meta.read_text())["countries"] == ["FR", "GB"]
        cfg.write_text(json.dumps({"test_fration": 0.3, "countries": ["FR", "GB"]}))
        capsys.readouterr()
        assert main(["prepare", "--in", str(data), "--config", str(cfg), "--out", str(tmp_path / "g.npz")]) == 1
        err = capsys.readouterr().err
        assert "error [prepare]:" in err and "'test_fration'" in err

    def test_prepare_reads_a_raw_statement_csv_as_the_npz(self, small_run, tmp_path, capsys):
        (data,) = (small_run["out"] / "stages").glob("*/data.npz")
        text = tmp_path / "data.csv"
        write_records(text, to_records(px.Statements.load(data)))
        for name, inp in (("from_npz", data), ("from_csv", text)):
            assert main(["prepare", "--in", str(inp), "--seed", "5", "--out", str(tmp_path / f"{name}.npz")]) == 0
        capsys.readouterr()
        for suffix in (".npz", ".meta.json"):
            assert (tmp_path / f"from_csv{suffix}").read_bytes() == (tmp_path / f"from_npz{suffix}").read_bytes()

    @pytest.mark.parametrize("rows, message", [
        ("C1,2010,A\nC2,2010\n", "line 3: row has fewer cells than the header"),
        ("C1,2010,A\nC2,20x0,B\n", "line 3: invalid literal for int"),
        ("C1,2010,A\nC2,2010,B\nC1,2010,C\n", "line 4: repeated key \\('C1', 2010\\)"),
        ("C1,2010,A\nC2,2010,Q\n", "line 3: unknown grade 'Q'"),
    ], ids=["short_row", "non_integer_year", "repeated_key", "unknown_grade"])
    def test_malformed_reference_grades_name_the_line(self, tmp_path, rows, message):
        path = tmp_path / "ref.csv"
        path.write_text("company_id,statement_year,grade\n" + rows)
        with pytest.raises(ValueError, match=f"ref.csv {message}"):
            read_reference_grades(path)

    def test_reference_year_outside_int64_names_the_line(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text("company_id,statement_year,grade\nC1,2010,A\nC2,99999999999999999999,B\n")
        with pytest.raises(ValueError, match="ref.csv line 3: Python int too large"):
            read_reference_grades(path)


def random_join(seed, per_year, n_rows):
    """A random reference stream, as (company, year, grade) rows, and ``n_rows``
    rows to grade. Ids run from 1 to 5 characters; the rows' years reach past
    the stream's, and some rows have no grade or repeat a key."""
    rng = np.random.default_rng(seed)
    pool = np.array(["C", *(f"C{i}" for i in rng.choice(500, 60, replace=False))])
    years = np.arange(2006, 2011)
    keys = {(str(c), int(y) if per_year else 0) for c, y in zip(rng.choice(pool, 120), rng.choice(years, 120))}
    stream = [(c, y, px.GRADES[g]) for (c, y), g in zip(sorted(keys), rng.integers(0, 6, len(keys)))]
    rng.shuffle(stream)
    ids = rng.choice(np.append(pool, ["X", "C9999", "C1000"]), n_rows).tolist()
    rows = px.FeatureMatrix(["f0"], np.zeros((n_rows, 1)), np.zeros(n_rows, dtype=int), ids,
                            rng.integers(2003, 2014, n_rows))
    return stream, rows, rng.random(n_rows)


class TestReferenceJoin:
    """The key-column join keeps the rows, order and grades of the dict-and-loop join."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("per_year", [True, False], ids=["per_year", "company_only"])
    @pytest.mark.parametrize("n_rows", [0, 1, 300])
    def test_matches_the_dict_and_loop_join(self, tmp_path, seed, per_year, n_rows):
        stream, rows, probs = random_join(seed, per_year, n_rows)
        path = tmp_path / "ref.csv"
        path.write_text("\n".join(["company_id,statement_year,grade" if per_year else "company_id,grade"]
                                  + [f"{c},{y},{g}" if per_year else f"{c},{g}" for c, y, g in stream]) + "\n")
        references = [read_reference_grades(path)]
        if per_year:  # generate's .npz holds years
            references[0].save(tmp_path / "ref.npz")
            references.append(ReferenceGrades.load(tmp_path / "ref.npz"))
        try:
            want = paired_grades(rows, probs, stream, per_year)
        except ValueError as exc:  # no row of this draw has a grade
            for reference in references:
                with pytest.raises(ValueError, match=str(exc)):
                    _paired_grades(rows, probs, reference)
            return
        for reference in references:
            grades, kept = _paired_grades(rows, probs, reference)
            assert grades == want[0]
            np.testing.assert_array_equal(kept, want[1])

    def test_rows_without_a_match_raise(self):
        reference = ReferenceGrades(np.array(["C1", "C2"]), np.array([2010, 2010]), np.array([0, 1]))
        rows = px.FeatureMatrix(["f0"], np.zeros((3, 1)), np.zeros(3, dtype=int), ["C1", "C3", "C10"],
                                np.array([2011, 2010, 2010]))
        with pytest.raises(ValueError, match="no rows matched the reference grade stream"):
            _paired_grades(rows, np.zeros(3), reference)

    def test_an_empty_stream_matches_no_row(self):
        empty = ReferenceGrades(np.array([], dtype=str), np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        rows = px.FeatureMatrix(["f0"], np.zeros((1, 1)), np.zeros(1, dtype=int), ["C1"], np.array([2010]))
        with pytest.raises(ValueError, match="no rows matched"):
            _paired_grades(rows, np.zeros(1), empty)
        assert _paired_grades(rows.subset([]), np.zeros(0), empty)[0] == []
