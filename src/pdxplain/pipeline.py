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
byte-identical across reruns. Each artifact is read only inside the stages
that consume it, so a cache hit reads nothing; the split matrix and the
models, which several stages use, are read at most once per run. The
bundle is built from six stage JSON files alone. Its key hashes the config,
those files' bytes and the package version, and ``stages/bundle.json``
records it with each bundle file's sha256; a run that matches both (a
finished run repeated, say to reprint the report) writes nothing. A change
to how the bundle is rendered must bump ``__version__``, as a change to a
stage's output already must.

Stages hand data to each other as numpy ``.npz`` columns, saved and loaded
without pickles: the raw statements (``data.npz``, ``dataprep.Statements``),
the oracle reference grades (``reference_grades.npz``, ``ReferenceGrades``),
the prepared matrix with its split's row indices (``features.npz``,
``dataprep.SplitResult``, which every later stage reads its rows from) and
the resampled training rows (``train_resampled.npz``,
``dataprep.FeatureMatrix``). Text remains where people and other tools meet
the data: the JSON sidecars, summaries and models, the analysts' reference
grade CSV (``read_reference_grades``) and the report bundle.

Given a second CPU and no other Python thread, a tree ensemble's WRS fit
and half its explained instances run in a forked child (``forks.fork_map``),
the RS fit and the rest here; the run tree is byte-identical to a serial
run's. Only ``run_pipeline`` lets its stages fork: ``global_importance``
called on its own stays serial. Logistic regression stays serial too:
forking its two fits or its explained instances was slower.

A run config (``RunConfig``) is one dataclass per JSON section, whose
fields are the section's keys and hold its defaults. A key that is not a
field raises ValueError before any stage runs.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import alignment as alignment_mod
from . import grading as grading_mod
from .dataprep import (DEFAULT_COUNTRIES, FeatureMatrix, SplitResult, SplitSpec, Statements, _as_int, _load_npz,
                       _save_npz, prepare)
from .forks import fork_map, forking
from .metrics import evaluate
from .models import MODEL_KINDS, PARAM_CLASSES, fit, load_model, predict_proba, save_model
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


@dataclass
class ModelSection:
    """The ``model`` section; ``params`` None takes the kind's defaults."""

    kind: str = "gbt"
    params: Optional[dict] = None
    seed: int = 0

    def __post_init__(self):
        self.seed = _as_int(self.seed, "model.seed")
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"model.kind {self.kind!r} is not one of {', '.join(MODEL_KINDS)}")
        if self.params is not None:  # unknown keys, whole integers, then the kind's own checks
            cls = PARAM_CLASSES[self.kind]
            _check_keys(cls, f"model.params of {self.kind!r}", self.params)
            ints = {f.name for f in fields(cls) if f.type == "int"}
            self.params = {k: _as_int(v, f"model.params.{k}") if k in ints else v for k, v in self.params.items()}
            cls(**self.params)


@dataclass
class AttributionSection:
    """The ``attribution`` section: Shapley background rows drawn from the
    train split, validation rows explained, and the seed that draws both."""

    background_size: int = 100
    n_instances: int = 25
    group_countries: bool = True
    seed: int = 0

    def __post_init__(self):
        self.background_size = _as_int(self.background_size, "attribution.background_size")
        self.n_instances = _as_int(self.n_instances, "attribution.n_instances")
        self.seed = _as_int(self.seed, "attribution.seed")
        for key in ("background_size", "n_instances"):
            if getattr(self, key) < 1:
                raise ValueError(f"attribution.{key} must be >= 1, not {getattr(self, key)}")
        if not isinstance(self.group_countries, bool):
            raise ValueError(f"attribution.group_countries must be true or false, not {self.group_countries!r}")
        if not self.group_countries:
            raise ValueError("attribution.group_countries must be true: align compares the "
                             "attribution with survey features, which have no country_XX columns")


@dataclass
class GradingSection:
    """The ``grading`` section; see ``map_grades_stage`` for the modes."""

    mode: str = "calibrate"
    intervals_path: Optional[str] = None

    def __post_init__(self):
        if self.mode not in ("calibrate", "fixed"):
            raise ValueError("grading.mode must be 'calibrate' or 'fixed'")


# Run config section -> the dataclass it parses into.
SECTIONS = {"generator": GeneratorConfig, "split": SplitSpec, "smote": SmoteConfig,
            "model": ModelSection, "attribution": AttributionSection, "grading": GradingSection}
# Section -> index of its stage seed, derived from the global seed unless the section sets one.
STAGE_SEEDS = {"generator": 0, "split": 1, "smote": 2, "model": 3, "attribution": 4}


def _check_keys(cls, where: str, doc) -> None:
    """Raise ValueError unless ``doc`` is a JSON object of ``cls`` fields."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(doc).__name__}")
    names = sorted(f.name for f in fields(cls))
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ValueError(f"{where} has unknown key {unknown[0]!r} (its keys: {', '.join(names)})")


def parse_section(name: str, doc, run_seed: Optional[int] = None):
    """Config section ``name`` as its ``SECTIONS`` dataclass. Given
    ``run_seed``, a section with a stage seed that ``doc`` leaves out
    derives it from ``run_seed``; otherwise the dataclass default applies."""
    cls = SECTIONS[name]
    _check_keys(cls, f"config section {name!r}", doc)
    if run_seed is not None and name in STAGE_SEEDS and "seed" not in doc:
        doc = {**doc, "seed": int(np.random.SeedSequence([run_seed, STAGE_SEEDS[name]]).generate_state(1)[0])}
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:  # a missing required key, an uncastable or invalid value
        raise ValueError(f"config section {name!r}: {exc}") from exc


@dataclass
class RunConfig:
    """A run config: one dataclass per section, fields named as their keys."""

    generator: GeneratorConfig
    split: SplitSpec
    smote: SmoteConfig
    model: ModelSection
    attribution: AttributionSection
    grading: GradingSection
    survey_path: Optional[str] = None
    countries: tuple = DEFAULT_COUNTRIES
    seed: int = 0

    def __post_init__(self):
        self.countries = tuple(self.countries)
        self.seed = _as_int(self.seed, "seed")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Parse a run config; a key that is not a field raises ValueError."""
        _check_keys(cls, "run config", doc)
        seed = _as_int(doc.get("seed", cls.seed), "seed")
        return cls(**{**doc, **{name: parse_section(name, doc.get(name, {}), seed) for name in SECTIONS}})

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        return _json_sha256(self.to_dict())[:12]


def _json_sha256(doc) -> str:
    """sha256 hex digest of ``doc`` as sorted-key JSON."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class ReferenceGrades:
    """Reference grades as key columns sorted by (company, year); ``grades``
    are codes into ``grading.GRADES``. Built with ``years`` None (a CSV with
    no statement_year column), a company's grade holds in every year. A
    repeated key raises ValueError naming ``where(row)``, row being the
    first input row to repeat one."""

    def __init__(self, company_ids: np.ndarray, years, grades: np.ndarray, where=lambda row: f"row {row}"):
        self.per_year = years is not None
        years = years if self.per_year else np.zeros(company_ids.size, dtype=np.int64)
        order = np.lexsort([years, company_ids])
        self.company_ids, self.years, self.grades = company_ids[order], years[order], grades[order]
        first = np.r_[True, self.company_ids[1:] != self.company_ids[:-1]][: company_ids.size]
        self._companies, self._years = self.company_ids[first], np.unique(years)
        # each key as one integer that sorts as the keys do: company rank, then year rank
        self._keys = (np.cumsum(first) - 1) * self._years.size + np.searchsorted(self._years, self.years)
        repeats = np.flatnonzero(self._keys[1:] == self._keys[:-1]) + 1
        if repeats.size:
            row = order[repeats].min()  # the sort is stable: each key's first input row comes first
            key = (str(company_ids[row]), int(years[row]))
            raise ValueError(f"{where(row)}: repeated key {key if self.per_year else key[0]!r}")

    def codes(self, company_ids: np.ndarray, years: np.ndarray) -> np.ndarray:
        """The grade code of each (``company_ids[i]``, ``years[i]``) key, -1 where the stream has none."""
        if not self.grades.size:
            return np.full(len(company_ids), -1)
        years = years if self.per_year else np.zeros(len(years), dtype=np.int64)
        key = np.searchsorted(self._companies, company_ids) * self._years.size + np.searchsorted(self._years, years)
        at = np.searchsorted(self._keys, key).clip(max=self._keys.size - 1)
        return np.where((self.company_ids[at] == company_ids) & (self.years[at] == years), self.grades[at], -1)

    def save(self, path) -> None:
        """Write the columns to ``path`` as a .npz of ``company_id``, ``statement_year`` and ``grade``."""
        _save_npz(path, {"company_id": self.company_ids, "statement_year": self.years, "grade": self.grades})

    @classmethod
    def load(cls, path) -> "ReferenceGrades":
        """Read grades that ``save`` wrote; see ``_load_npz`` for the checks. A
        code outside ``grading.GRADES`` or a repeated key raises ValueError too."""
        a = _load_npz(path, {"company_id": "U", "statement_year": "i", "grade": "i"},
                      lambda a: dict.fromkeys(a, (a["grade"].size,)))
        if ((a["grade"] < 0) | (a["grade"] >= len(grading_mod.GRADES))).any():
            raise ValueError(f"{path}: array 'grade' holds a code outside 0-{len(grading_mod.GRADES) - 1}")
        return cls(a["company_id"], a["statement_year"], a["grade"], lambda row: str(path))


def read_reference_grades(path) -> ReferenceGrades:
    """Read an analysts' reference grade CSV: company_id, grade and an
    optional statement_year column. A row that is short, carries a
    non-integer year or a grade outside ``grading.GRADES``, or repeats a key
    raises ValueError naming the file line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns = set(reader.fieldnames or [])
        if not {"company_id", "grade"} <= columns:
            raise ValueError("reference grade CSV needs company_id and grade columns")
        per_year = "statement_year" in columns
        rows = []
        for row in reader:
            try:
                if None in row.values():
                    raise ValueError("row has fewer cells than the header")
                year = np.int64(int(row["statement_year"])) if per_year else 0
                grade = row["grade"].strip()
                if grade not in grading_mod.GRADES:
                    raise ValueError(f"unknown grade {grade!r}; expected one of {''.join(grading_mod.GRADES)}")
            except (ValueError, OverflowError) as exc:  # OverflowError: a year outside int64
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
            rows.append((row["company_id"], year, grading_mod.GRADES.index(grade), reader.line_num))
    ids, years, grades, lines = zip(*rows) if rows else ((),) * 4
    return ReferenceGrades(np.array(ids, dtype=str), np.array(years, dtype=np.int64) if per_year else None,
                           np.array(grades, dtype=np.int64), lambda row: f"{path} line {lines[row]}")


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=False)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def generate_stage(config: GeneratorConfig, data_path, grades_path=None) -> dict:
    """Write a synthetic panel to ``data_path`` and, given ``grades_path``,
    its oracle reference grades; return the generation summary."""
    statements, oracle = generate_statements(config)
    statements.save(data_path)
    if grades_path is not None:
        ReferenceGrades(np.array(oracle.company_ids), oracle.years, oracle_reference_grades(oracle)).save(grades_path)
    return {
        "intercept": oracle.intercept,
        "realized_default_rate": oracle.realized_rate,
        "target_default_rate": oracle.target_rate,
        "n_records": statements.n,
    }


def prepare_stage(statements, spec: SplitSpec, countries, features_path, meta_path):
    """Label, derive ratios, split and scale the raw ``statements`` columns;
    write the feature matrix with its split's row indices, and the sidecar
    (scaler, rejection counts, per-year default rates of the labels)."""
    prep = prepare(statements, spec, countries)
    prep.split.save(features_path)
    write_json(meta_path, {
        "scaler": prep.scaler.to_dict(),
        "countries": list(prep.countries),
        "rejections": prep.rejection_counts(),
        "default_rates": prep.default_rates,
    })
    return prep


def resample_stage(train: FeatureMatrix, config: SmoteConfig, data_path, audit_path):
    """SMOTE-oversample the training rows; write them and the parent audit."""
    result = resample(train, config)
    result.data.save(data_path)
    write_json(audit_path, result.audit())
    return result


def train_stage(kind: str, rows: FeatureMatrix, params, seed: int, model_path) -> None:
    save_model(fit(kind, rows, params, seed), model_path)


def evaluate_stage(kind: str, rows, path) -> None:
    """Write the performance table of ``(label, labels, probabilities)`` rows."""
    table = [{"row": label, "model": kind, **evaluate(y, probs).to_dict()} for label, y, probs in rows]
    write_json(path, {"rows": table})


def select_instances(pool: FeatureMatrix, n: Optional[int], seed: int) -> FeatureMatrix:
    """At most ``n`` rows (all when None) of ``pool``, drawn with ``seed``
    and kept in row order."""
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


def _paired_grades(data: FeatureMatrix, probs: np.ndarray, reference: ReferenceGrades):
    """(reference grades, probabilities ``probs``) of the rows of ``data`` that have one."""
    codes = reference.codes(np.array(data.company_ids, dtype=str), data.years)
    kept = codes >= 0
    if data.n and not kept.any():
        raise ValueError("no rows matched the reference grade stream")
    return np.array(grading_mod.GRADES)[codes[kept]].tolist(), probs[kept]


def map_grades_stage(reference: ReferenceGrades, scored, test, intervals_path, path) -> grading_mod.GradeConfusion:
    """Map ``scored``, a (rows, model probabilities) pair, to grades and
    compare them with the rows' reference grades. Mode ``calibrate`` fits
    the grade bounds on ``test``, the test split's pair; mode ``fixed``
    (``test`` None) reads the interval table at ``intervals_path`` (the
    bundled table when None)."""
    if test is None:
        mode, cal = "fixed", grading_mod.load_fixed_intervals(intervals_path)
    else:
        mode, cal = "calibrate", grading_mod.calibrate(*_paired_grades(*test, reference))
    grades, probs = _paired_grades(*scored, reference)
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
    # This process is the pipeline's, so its stages may fork (forks.py): a tree ensemble's train and
    # explain stages do. LR's stay serial; forking its fits or its explained instances was slower.
    may_fork = contextlib.nullcontext if config.model.kind == "lr" else forking

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
                with may_fork():
                    compute(d)
                (d / ".done").write_text("ok\n")
            return d
        except Exception as exc:
            raise StageError(name, exc) from exc

    gen_dir = run_stage("generate", doc["generator"], [], lambda d: write_json(
        d / "generation.json",
        generate_stage(config.generator, d / "data.npz", d / "reference_grades.npz"),
    ))

    def _prepare(d: Path):
        prep = prepare_stage(Statements.load(gen_dir / "data.npz"), config.split, config.countries,
                             d / "features.npz", d / "features.meta.json")
        if not prep.split.validation_indices.size:  # evaluate and map-grades score it
            low, high = config.split.validation_years
            raise ValueError(f"validation years {low}-{high} hold no rows")
    prep_dir = run_stage("prepare", {"split": doc["split"], "countries": doc["countries"]}, [gen_dir], _prepare)
    split = functools.cache(lambda: SplitResult.load(prep_dir / "features.npz"))

    rs_dir = run_stage("resample", doc["smote"], [prep_dir], lambda d: resample_stage(
        split().train, config.smote, d / "train_resampled.npz", d / "smote_audit.json"
    ))

    def _train(d: Path):
        def fit_one(job):
            train_stage(config.model.kind, job[0], config.model.params, config.model.seed, d / job[1])
        # RS, the longer fit, runs in this process and WRS in fork_map's child, when the stage may fork.
        fork_map(fit_one, [(FeatureMatrix.load(rs_dir / "train_resampled.npz"), "model_rs.json"),
                           (split().train, "model_wrs.json")])
    train_dir = run_stage("train", doc["model"], [prep_dir, rs_dir], _train)
    model = functools.cache(lambda name: load_model(train_dir / name))
    # Evaluate and map-grades score the same splits: predict each (model, split) once.
    proba = functools.cache(lambda name, part: predict_proba(model(name), getattr(split(), part)))

    eval_dir = run_stage("evaluate", config.model.kind, [prep_dir, train_dir], lambda d: evaluate_stage(
        config.model.kind,
        [("WRS", split().test.y, proba("model_wrs.json", "test")),
         ("RS", split().test.y, proba("model_rs.json", "test")),
         ("RS+VS", split().validation.y, proba("model_rs.json", "validation"))],
        d / "performance.json",
    ))

    explain_dir = run_stage("explain", doc["attribution"], [prep_dir, train_dir], lambda d: explain_stage(
        model("model_rs.json"),
        select_instances(split().validation, config.attribution.n_instances, config.attribution.seed),
        sample_background(split().train, config.attribution.background_size, config.attribution.seed),
        config.attribution.group_countries,
        d / "attributions.json",
    ))

    grade_dir = run_stage(
        "map-grades", config.grading.mode, [gen_dir, prep_dir, train_dir],
        lambda d: map_grades_stage(
            ReferenceGrades.load(gen_dir / "reference_grades.npz"),
            (split().validation, proba("model_rs.json", "validation")),
            (split().test, proba("model_rs.json", "test")) if config.grading.mode == "calibrate" else None,
            config.grading.intervals_path, d / "grading.json"),
        inputs=[(config.grading.intervals_path, "scorecard_intervals.json")] if config.grading.mode == "fixed" else [],
    )

    align_dir = run_stage(
        "align", None, [explain_dir],
        lambda d: align_stage(config.survey_path, AttributionReport.load(explain_dir / "attributions.json"),
                              d / "alignment.json"),
        inputs=[(config.survey_path, "analyst_survey.csv")],
    )

    sources = {"generation": gen_dir / "generation.json", "meta": prep_dir / "features.meta.json",
               "performance": eval_dir / "performance.json", "attribution": explain_dir / "attributions.json",
               "grading": grade_dir / "grading.json", "alignment": align_dir / "alignment.json"}
    try:  # the config, the version and the bytes of the stage files fix every byte of the bundle
        data = {name: path.read_bytes() for name, path in sources.items()}
        key = _json_sha256([doc, {name: hashlib.sha256(b).hexdigest() for name, b in data.items()}, __version__])
        if not _bundle_is_current(out_dir, key):
            bundle = {name: json.loads(b) for name, b in data.items()}
            meta = bundle.pop("meta")
            bundle.update(config=doc, config_digest=_json_sha256(doc)[:12], rejections=meta["rejections"],
                          default_rates=meta["default_rates"])
            _write_bundle(out_dir, bundle, key)
    except Exception as exc:
        raise StageError("report", exc) from exc
    return read_json(out_dir / "report.json")


# The report bundle's files, and the marker that records its key and their digests.
BUNDLE_FILES = ("report.json", "performance.csv", "default_rates.csv", "grade_confusion.csv", "importance.csv",
                "alignment.csv")
BUNDLE_MARKER = "stages/bundle.json"


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


def _bundle_is_current(out_dir: Path, key: str) -> bool:
    """Whether the bundle marker records ``key`` and each bundle file still
    has the sha256 recorded with it. A missing or broken marker is not."""
    try:
        marker = read_json(out_dir / BUNDLE_MARKER)
        return marker["key"] == key and all(hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                                            == marker["files"][name] for name in BUNDLE_FILES)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def _write_bundle(out_dir: Path, bundle: dict, key: str) -> None:
    """Write report.json, the five CSV tables and, last, the marker that
    records ``key`` and the sha256 of each file's bytes. Every file is
    rendered and written to a temp file first, then renamed into place, so a
    failure leaves the previous bundle's files and marker whole."""
    data = {"report.json": json.dumps(bundle, sort_keys=True, indent=1, allow_nan=False).encode()}
    for name, rows in _tables(bundle).items():
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(rows)
        data[name] = buf.getvalue().encode()
    files = {name: hashlib.sha256(b).hexdigest() for name, b in data.items()}
    data[BUNDLE_MARKER] = json.dumps({"key": key, "files": files}, sort_keys=True).encode()
    temps = {name: out_dir / f".{Path(name).name}.tmp" for name in data}
    try:
        for name, b in data.items():
            temps[name].write_bytes(b)
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
