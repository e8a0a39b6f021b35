"""End-to-end orchestration: generate, prepare, resample, train, evaluate,
explain, map grades, align, and emit a plot-ready report bundle.

Each stage is a module-level ``*_stage`` function that takes explicit inputs
and writes explicit artifact paths; the CLI subcommands call the same
functions. ``run_pipeline`` keeps each stage's artifacts under
``<out>/stages/<name>_<key>/`` and reuses a directory whose ``.done`` marker
exists. A stage key is a sha256 over the stage name, the config fields that
stage reads, the keys of its upstream stages, the bytes of any external file
it reads (the survey CSV and the interval table, or the bundled defaults
when their paths are null) and the package version. So a change of model
kind reuses generate, prepare and resample, and editing the survey in place
reruns only align. A stage that runs reads its inputs back from the
artifacts its upstream stages (in this run or an earlier one) wrote, which
keeps cached and fresh runs on the same data path and makes report bundles
byte-identical across reruns. Each artifact is parsed only inside the stages
that consume it, so a cache hit reads nothing; the split matrix and the
models, which several stages use, are parsed at most once per run. The
raw statements pass from the generator through ``data.csv`` into prepare as
numpy columns (``dataprep.Statements``), and prepare labels them once for
both the feature matrix and the sidecar's per-year default rates. The
bundle is built from the stages' JSON files alone.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, is_dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import alignment as alignment_mod
from . import grading as grading_mod
from .dataprep import (
    DEFAULT_COUNTRIES,
    FeatureMatrix,
    SplitSpec,
    prepare,
    read_statements,
    write_statements,
)
from .metrics import evaluate
from .models import fit, load_model, predict_proba, save_model
from .shapley import (
    AttributionConfig,
    AttributionReport,
    global_importance,
    group_countries,
    sample_background,
)
from .smote import SmoteConfig, resample
from .synthgen import GeneratorConfig, generate_statements, oracle_reference_grades

class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _derive_seed(global_seed: int, stage_index: int) -> int:
    return int(np.random.SeedSequence([global_seed, stage_index]).generate_state(1)[0])


def generator_config(section: dict, seed: int) -> GeneratorConfig:
    """Parse a ``generator`` config section; ``seed`` applies unless the
    section sets its own."""
    gen = dict(section)
    gen["year_range"] = tuple(gen["year_range"])
    gen["seed"] = int(gen.get("seed", seed))
    return GeneratorConfig(**gen)


def split_spec(section: dict, seed: int) -> SplitSpec:
    """Parse a ``split`` config section; ``seed`` applies unless the section
    sets its own."""
    return SplitSpec(
        train_years=tuple(section.get("train_years", (2004, 2012))),
        validation_years=tuple(section.get("validation_years", (2013, 2018))),
        test_fraction=float(section.get("test_fraction", 0.3)),
        seed=int(section.get("seed", seed)),
    )


@dataclass
class RunConfig:
    generator: GeneratorConfig
    split: SplitSpec
    smote: SmoteConfig
    model_kind: str = "gbt"
    model_params: Optional[dict] = None
    model_seed: int = 0
    background_size: int = 100
    n_explain: int = 25
    group_countries: bool = True
    attribution_seed: int = 0
    grading_mode: str = "calibrate"  # or "fixed"
    fixed_intervals_path: Optional[str] = None
    survey_path: Optional[str] = None
    countries: tuple = DEFAULT_COUNTRIES
    seed: int = 0

    def __post_init__(self):
        if self.grading_mode not in ("calibrate", "fixed"):
            raise ValueError("grading_mode must be 'calibrate' or 'fixed'")
        if not self.group_countries:
            raise ValueError("attribution.group_countries must be true: align compares the "
                             "attribution with survey features, which have no country_XX columns")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        seed = int(doc.get("seed", 0))

        def stage_seed(section: dict, index: int) -> int:
            return int(section.get("seed", _derive_seed(seed, index)))

        smote_doc = dict(doc.get("smote", {}))
        smote_cfg = SmoteConfig(
            k=int(smote_doc.get("k", 10)),
            target_ratio=float(smote_doc.get("target_ratio", 0.5)),
            seed=stage_seed(smote_doc, 2),
        )
        model_doc = dict(doc.get("model", {}))
        attr_doc = dict(doc.get("attribution", {}))
        grading_doc = dict(doc.get("grading", {}))
        return cls(
            generator=generator_config(doc["generator"], _derive_seed(seed, 0)),
            split=split_spec(doc.get("split", {}), _derive_seed(seed, 1)),
            smote=smote_cfg,
            model_kind=model_doc.get("kind", "gbt"),
            model_params=model_doc.get("params"),
            model_seed=stage_seed(model_doc, 3),
            background_size=int(attr_doc.get("background_size", 100)),
            n_explain=int(attr_doc.get("n_instances", 25)),
            group_countries=bool(attr_doc.get("group_countries", True)),
            attribution_seed=stage_seed(attr_doc, 4),
            grading_mode=grading_doc.get("mode", "calibrate"),
            fixed_intervals_path=grading_doc.get("intervals_path"),
            survey_path=doc.get("survey_path"),
            countries=tuple(doc.get("countries", DEFAULT_COUNTRIES)),
            seed=seed,
        )

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "countries": list(self.countries),
            "generator": asdict(self.generator),
            "split": asdict(self.split),
            "smote": asdict(self.smote),
            "model": {
                "kind": self.model_kind,
                "params": asdict(self.model_params)
                if is_dataclass(self.model_params)
                else self.model_params,
                "seed": self.model_seed,
            },
            "attribution": {
                "background_size": self.background_size,
                "n_instances": self.n_explain,
                "group_countries": self.group_countries,
                "seed": self.attribution_seed,
            },
            "grading": {
                "mode": self.grading_mode,
                "intervals_path": self.fixed_intervals_path,
            },
            "survey_path": self.survey_path,
        }

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


class ReferenceGrades:
    """Reference grade stream keyed by (company_id, statement_year) when the
    CSV carries a year column, or by company_id alone otherwise."""

    def __init__(self, entries: dict, per_year: bool):
        self.entries = entries
        self.per_year = per_year

    def get(self, company_id: str, year: int):
        key = (company_id, int(year)) if self.per_year else company_id
        return self.entries.get(key)


def read_reference_grades(path) -> ReferenceGrades:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = set(reader.fieldnames or [])
        if not {"company_id", "grade"} <= fields:
            raise ValueError("reference grade CSV needs company_id and grade columns")
        per_year = "statement_year" in fields
        entries: dict = {}
        for row in reader:
            key = (
                (row["company_id"], int(row["statement_year"]))
                if per_year
                else row["company_id"]
            )
            entries[key] = row["grade"].strip()
    return ReferenceGrades(entries, per_year)


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=False)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def load_split(features_path, meta_path=None) -> dict:
    """The prepared matrix as ``all``; given the prepare sidecar, also the
    sidecar as ``meta`` and its ``train``/``test``/``validation`` slices."""
    fm = FeatureMatrix.from_csv(features_path)
    out = {"all": fm}
    if meta_path is not None:
        out["meta"] = meta = read_json(meta_path)
        for name in ("train", "test", "validation"):
            out[name] = fm.subset(np.asarray(meta["split"][name], dtype=int))
    return out


def generate_stage(config: GeneratorConfig, data_path, grades_path=None) -> dict:
    """Write a synthetic panel to ``data_path`` and, given ``grades_path``,
    its oracle reference grades; return the generation summary."""
    statements, oracle = generate_statements(config)
    write_statements(data_path, statements)
    if grades_path is not None:
        with open(grades_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["company_id", "statement_year", "grade"])
            writer.writerows(oracle_reference_grades(oracle))
    return {
        "intercept": oracle.intercept,
        "realized_default_rate": oracle.realized_rate,
        "target_default_rate": oracle.target_rate,
        "n_records": statements.n,
    }


def prepare_stage(statements, spec: SplitSpec, countries, features_path, meta_path):
    """Label, derive ratios, split and scale the raw ``statements`` columns;
    write the feature matrix and its sidecar (scaler, split membership,
    rejection counts, per-year default rates of the labels)."""
    prep = prepare(statements, spec, countries)
    prep.features.to_csv(features_path)
    write_json(meta_path, {
        "scaler": prep.scaler.to_dict(),
        "countries": list(prep.countries),
        "split": {
            "train": [int(i) for i in prep.split.train_indices],
            "test": [int(i) for i in prep.split.test_indices],
            "validation": [int(i) for i in prep.split.validation_indices],
        },
        "rejections": prep.rejection_counts(),
        "default_rates": prep.default_rates,
    })
    return prep


def resample_stage(train: FeatureMatrix, config: SmoteConfig, data_path, audit_path):
    """SMOTE-oversample the training rows; write them and the parent audit."""
    result = resample(train, config)
    result.data.to_csv(data_path)
    write_json(audit_path, result.audit())
    return result


def train_stage(kind: str, rows: FeatureMatrix, params, seed: int, model_path) -> None:
    save_model(fit(kind, rows, params, seed), model_path)


def evaluate_stage(kind: str, rows, path) -> None:
    """Write the performance table of ``(label, model, data)`` rows."""
    table = [
        {"row": label, "model": kind, **evaluate(data.y, predict_proba(model, data)).to_dict()}
        for label, model, data in rows
    ]
    write_json(path, {"rows": table})


def select_instances(splits: dict, n: Optional[int], seed: int, split: str = "validation") -> FeatureMatrix:
    """At most ``n`` rows (all when None) of ``splits[split]``, drawn with
    ``seed`` and kept in row order. An empty validation split falls back to
    the test split."""
    pool = splits[split]
    if split == "validation" and not pool.n:
        pool = splits["test"]
    if n is None or n >= pool.n:
        return pool
    rng = np.random.default_rng(seed)
    return pool.subset(np.sort(rng.choice(pool.n, size=n, replace=False)))


def explain_stage(model, instances: FeatureMatrix, background: np.ndarray, group: bool, path) -> AttributionReport:
    """Exact Shapley attributions of ``instances`` against ``background``,
    with the one-hot country columns as one player when ``group``."""
    group_map = group_countries(instances.columns) if group else None
    config = AttributionConfig(background=background, group_map=group_map)
    report = global_importance(model, instances, config)
    report.save(path)
    return report


def _paired_grades(model, data: FeatureMatrix, reference: ReferenceGrades):
    """(reference grades, model probabilities) of the rows that have one."""
    probs = predict_proba(model, data)
    grades, kept = [], []
    for i in range(data.n):
        grade = reference.get(data.company_ids[i], data.years[i])
        if grade is not None:
            grades.append(grade)
            kept.append(i)
    if data.n and not kept:
        raise ValueError("no rows matched the reference grade stream")
    return grades, probs[np.asarray(kept, dtype=int)]


def map_grades_stage(model, reference: ReferenceGrades, splits: dict, score: str,
                     mode: str, intervals_path, path) -> grading_mod.GradeConfusion:
    """Map the probabilities of ``splits[score]`` to grades and compare them
    with the reference grades. ``calibrate`` fits the grade bounds on the
    test split; ``fixed`` reads the interval table at ``intervals_path``
    (the bundled table when None)."""
    if mode == "fixed":
        cal = grading_mod.load_fixed_intervals(intervals_path)
    else:
        cal = grading_mod.calibrate(*_paired_grades(model, splits["test"], reference))
    grades, probs = _paired_grades(model, splits[score], reference)
    confusion = grading_mod.grade_confusion(grades, grading_mod.assign_grades(probs, cal))
    write_json(path, {"mode": mode, "calibration": cal.to_dict(), "confusion": confusion.to_dict()})
    return confusion


def align_stage(survey_path, attribution: AttributionReport, path) -> alignment_mod.AlignmentReport:
    """Score the attribution ranking against the survey at ``survey_path``
    (the bundled four-analyst survey when None)."""
    report = alignment_mod.align(alignment_mod.load_survey(survey_path), attribution)
    report.save(path)
    return report


def run_pipeline(config: RunConfig, out_dir) -> dict:
    """Execute every stage and write the report bundle under ``out_dir``.

    Raises StageError naming the failing stage; artifacts written before the
    failure are left in place for inspection.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = config.to_dict()

    def run_stage(name: str, fields, upstream: list[Path], compute, inputs=()) -> Path:
        """Run ``compute`` into the stage's directory unless a finished one
        exists. ``fields`` are the config fields the stage reads, ``inputs``
        the (path, bundled default) files; both enter its key."""
        try:
            key = hashlib.sha256(json.dumps(
                [name, fields, [u.name for u in upstream], __version__], sort_keys=True
            ).encode())
            for path, bundled in inputs:
                data = resources.files("pdxplain.data").joinpath(bundled) if path is None else Path(path)
                key.update(hashlib.sha256(data.read_bytes()).digest())
            d = out_dir / "stages" / f"{name}_{key.hexdigest()[:12]}"
            if not (d / ".done").exists():
                d.mkdir(parents=True, exist_ok=True)
                compute(d)
                (d / ".done").write_text("ok\n")
            return d
        except Exception as exc:
            raise StageError(name, exc) from exc

    gen_dir = run_stage("generate", doc["generator"], [], lambda d: write_json(
        d / "generation.json",
        generate_stage(config.generator, d / "data.csv", d / "reference_grades.csv"),
    ))

    def _prepare(d: Path):
        prep = prepare_stage(read_statements(gen_dir / "data.csv"), config.split, config.countries,
                             d / "features.csv", d / "features.meta.json")
        if not prep.split.validation.n:  # evaluate and map-grades score it
            low, high = config.split.validation_years
            raise ValueError(f"validation years {low}-{high} hold no rows")
    prep_dir = run_stage("prepare", {"split": doc["split"], "countries": doc["countries"]}, [gen_dir], _prepare)
    splits = functools.cache(lambda: load_split(prep_dir / "features.csv", prep_dir / "features.meta.json"))

    rs_dir = run_stage("resample", doc["smote"], [prep_dir], lambda d: resample_stage(
        splits()["train"], config.smote, d / "train_resampled.csv", d / "smote_audit.json"
    ))

    def _train(d: Path):
        train_rs = FeatureMatrix.from_csv(rs_dir / "train_resampled.csv")
        for rows, name in ((splits()["train"], "model_wrs.json"), (train_rs, "model_rs.json")):
            train_stage(config.model_kind, rows, config.model_params, config.model_seed, d / name)
    train_dir = run_stage("train", doc["model"], [prep_dir, rs_dir], _train)
    model = functools.cache(lambda name: load_model(train_dir / name))

    eval_dir = run_stage("evaluate", config.model_kind, [prep_dir, train_dir], lambda d: evaluate_stage(
        config.model_kind,
        [("WRS", model("model_wrs.json"), splits()["test"]),
         ("RS", model("model_rs.json"), splits()["test"]),
         ("RS+VS", model("model_rs.json"), splits()["validation"])],
        d / "performance.json",
    ))

    explain_dir = run_stage("explain", doc["attribution"], [prep_dir, train_dir], lambda d: explain_stage(
        model("model_rs.json"),
        select_instances(splits(), config.n_explain, config.attribution_seed),
        sample_background(splits()["train"], config.background_size, config.attribution_seed),
        config.group_countries,
        d / "attributions.json",
    ))

    grade_dir = run_stage(
        "map-grades", config.grading_mode, [gen_dir, prep_dir, train_dir],
        lambda d: map_grades_stage(
            model("model_rs.json"), read_reference_grades(gen_dir / "reference_grades.csv"), splits(),
            "validation", config.grading_mode, config.fixed_intervals_path, d / "grading.json"),
        inputs=[(config.fixed_intervals_path, "scorecard_intervals.json")] if config.grading_mode == "fixed" else [],
    )

    align_dir = run_stage(
        "align", None, [explain_dir],
        lambda d: align_stage(config.survey_path, AttributionReport.load(explain_dir / "attributions.json"),
                              d / "alignment.json"),
        inputs=[(config.survey_path, "analyst_survey.csv")],
    )

    try:
        meta = read_json(prep_dir / "features.meta.json")
        bundle = {
            "config": doc,
            "config_digest": config.digest(),
            "generation": read_json(gen_dir / "generation.json"),
            "rejections": meta["rejections"],
            "default_rates": meta["default_rates"],
            "performance": read_json(eval_dir / "performance.json"),
            "attribution": read_json(explain_dir / "attributions.json"),
            "grading": read_json(grade_dir / "grading.json"),
            "alignment": read_json(align_dir / "alignment.json"),
        }
        _write_bundle(out_dir, bundle)
    except Exception as exc:
        raise StageError("report", exc) from exc
    return read_json(out_dir / "report.json")


def _tables(bundle: dict) -> dict:
    """The bundle's five CSV tables: file name -> rows, header row first."""
    perf = [["row", "model", "accuracy", "precision", "recall", "f1", "auc", "tp", "fp", "tn", "fn", "n"]]
    perf += [
        [r["row"], r["model"]]
        + [repr(float(r[k])) for k in ("accuracy", "precision", "recall", "f1")]
        + ["" if r["auc"] is None else repr(float(r["auc"]))]
        + [r[k] for k in ("tp", "fp", "tn", "fn", "n")]
        for r in bundle["performance"]["rows"]
    ]
    rates = [["year", "count", "defaults", "rate"]]
    rates += [[r["year"], r["count"], r["defaults"], repr(float(r["rate"]))] for r in bundle["default_rates"]]
    conf = bundle["grading"]["confusion"]
    confusion = [["reference\\mapped", *conf["grades"]]]
    confusion += [[g, *row] for g, row in zip(conf["grades"], conf["matrix"])]
    att = bundle["attribution"]
    importance = dict(zip(att["players"], att["global_importance"]))
    ranks = [["rank", "player", "mean_abs_shap"]]
    ranks += [[rank, p, repr(float(importance[p]))] for rank, p in enumerate(att["ranking"], start=1)]
    al = bundle["alignment"]
    e_rank = {f: i + 1 for i, f in enumerate(al["expert_ranking"])}
    m_rank = {f: i + 1 for i, f in enumerate(al["model_ranking"])}
    agreement = [["feature", "expert_total", "expert_rank", "model_rank", "delta"]]
    agreement += [
        [f, repr(float(al["expert_totals"][f])), e_rank[f], m_rank[f], repr(float(al["delta"][f]))]
        for f in al["features"]
    ]
    return {
        "performance.csv": perf,
        "default_rates.csv": rates,
        "grade_confusion.csv": confusion,
        "importance.csv": ranks,
        "alignment.csv": agreement,
    }


def _write_bundle(out_dir: Path, bundle: dict) -> None:
    """Write report.json and the five CSV tables. Every file is rendered
    and written to a temp file first, then renamed into place, so a failure
    leaves the previous bundle's files whole."""
    texts = {"report.json": json.dumps(bundle, sort_keys=True, indent=1, allow_nan=False)}
    for name, rows in _tables(bundle).items():
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(rows)
        texts[name] = buf.getvalue()
    temps = {name: out_dir / f".{name}.tmp" for name in texts}
    try:
        for name, text in texts.items():
            temps[name].write_text(text, newline="")
        for name, tmp in temps.items():
            os.replace(tmp, out_dir / name)
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)


def _fmt_pct(v) -> str:
    return f"{100.0 * v:.2f}"


def _fmt_frac(v) -> str:
    return "n/a" if v is None else f"{v:.4f}"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines += [fmt.format(*row) for row in rows]
    return lines


def format_report(bundle: dict) -> str:
    """Human-readable text tables. Accuracy, precision, and recall print as
    percentages; F1 and AUC stay fractions."""
    lines: list[str] = []

    def section(title: str, content_rows):
        lines.append(title)
        lines.append("=" * len(title))
        if not content_rows:
            lines.append(f"[section omitted: {title} has no data]")
        else:
            lines.extend(content_rows)
        lines.append("")

    perf = bundle.get("performance", {}).get("rows", [])
    section(
        "Performance",
        _table(
            ["Setting", "Model", "Accuracy", "Precision", "Recall", "F1", "AUC"],
            [
                [
                    r["row"],
                    r["model"],
                    _fmt_pct(r["accuracy"]),
                    _fmt_pct(r["precision"]),
                    _fmt_pct(r["recall"]),
                    _fmt_frac(r["f1"]),
                    _fmt_frac(r["auc"]),
                ]
                for r in perf
            ],
        )
        if perf
        else [],
    )

    rates = bundle.get("default_rates", [])
    section(
        "Default rate by year",
        _table(
            ["Year", "Rated", "Defaults", "Rate"],
            [[str(r["year"]), str(r["count"]), str(r["defaults"]), _fmt_pct(r["rate"]) + "%"] for r in rates],
        )
        if rates
        else [],
    )

    grading = bundle.get("grading")
    if grading:
        grades = grading["confusion"]["grades"]
        rows = [
            [g, *(str(v) for v in row)]
            for g, row in zip(grades, grading["confusion"]["matrix"])
        ]
        content = _table(["Ref\\Map", *grades], rows)
        conf = grading["confusion"]
        content.append(
            f"mapped riskier: {_fmt_pct(conf['riskier_fraction'])}%  "
            f"safer: {_fmt_pct(conf['safer_fraction'])}%  "
            f"equal: {_fmt_pct(conf['equal_fraction'])}%  "
            f"critical underestimation: {conf['critical_underestimation']}"
        )
        section("Grade confusion (reference rows x mapped columns)", content)
    else:
        section("Grade confusion (reference rows x mapped columns)", [])

    att = bundle.get("attribution")
    if att:
        importance = dict(zip(att["players"], att["global_importance"]))
        rows = [
            [str(i + 1), p, f"{importance[p]:.6f}"] for i, p in enumerate(att["ranking"])
        ]
        section("Global importance (mean |attribution|)", _table(["Rank", "Player", "Mean |phi|"], rows))
    else:
        section("Global importance (mean |attribution|)", [])

    al = bundle.get("alignment")
    if al:
        content = [
            f"Spearman rho: {_fmt_frac(al['spearman'])}   Kendall tau-b: {_fmt_frac(al['kendall'])}   "
            f"top-3 overlap: {al['top3_overlap']:.2f}   top-5 overlap: {al['top5_overlap']:.2f}",
            "",
        ]
        e_rank = {f: i + 1 for i, f in enumerate(al["expert_ranking"])}
        m_rank = {f: i + 1 for i, f in enumerate(al["model_ranking"])}
        content += _table(
            ["Feature", "Expert total", "Expert rank", "Model rank", "Delta"],
            [
                [
                    f,
                    f"{al['expert_totals'][f]:g}",
                    str(e_rank[f]),
                    str(m_rank[f]),
                    f"{al['delta'][f]:+.4f}",
                ]
                for f in al["features"]
            ],
        )
        section("Expert alignment", content)
    else:
        section("Expert alignment", [])

    return "\n".join(lines)
