"""Command-line interface.

Subcommands call the pipeline's stage functions (generate, prepare,
resample, train, explain, map-grades, align; evaluate scores one split) plus
``run`` for the whole pipeline and ``report`` for pretty-printing a bundle.
They pass data through the pipeline's own stage files: statement and
feature ``.npz`` files, JSON sidecars and models, and reference grade CSVs.
Failures exit nonzero with a stage-tagged message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .dataprep import FeatureMatrix, Statements, read_statements
from .metrics import evaluate
from .models import MODEL_KINDS, load_model, predict_proba
from .pipeline import (
    STAGE_SEEDS,
    AttributionSection,
    ModelSection,
    RunConfig,
    StageError,
    _fmt_frac,
    align_stage,
    explain_stage,
    format_report,
    generate_stage,
    load_split,
    map_grades_stage,
    parse_section,
    prepare_stage,
    read_json,
    read_reference_grades,
    resample_stage,
    run_pipeline,
    select_instances,
    train_stage,
)
from .shapley import AttributionReport
from .smote import SmoteConfig


def _splits(args, split) -> dict:
    """``--in`` as ``all``, plus its train/test/validation splits given
    ``--meta``; ``split`` must be among them."""
    splits = load_split(args.inp, args.meta)
    if split is not None and split not in splits:
        raise ValueError(f"--split {split} needs --meta")
    return splits


def _rows(args, split) -> FeatureMatrix:
    return _splits(args, split)[split or "all"]


def _section(path, seed) -> dict:
    """Config JSON at ``path`` (empty when None), ``seed`` overriding its own."""
    doc = {} if path is None else read_json(path)
    if seed is not None:
        doc["seed"] = seed
    return doc


def _cmd_generate(args) -> int:
    config = parse_section("generator", _section(args.config, args.seed))
    summary = generate_stage(config, args.out, args.grades_out)
    print(
        f"wrote {summary['n_records']} statements to {args.out} "
        f"(realized default rate {summary['realized_default_rate']:.4%})"
    )
    return 0


def _cmd_prepare(args) -> int:
    doc = _section(args.config, args.seed)
    countries = doc.pop("countries", RunConfig.countries)
    meta_path = args.meta or str(Path(args.out).with_suffix(".meta.json"))
    # A raw statement CSV is the input edge; the generator writes .npz.
    statements = Statements.load(args.inp) if Path(args.inp).suffix == ".npz" else read_statements(args.inp)
    prep = prepare_stage(statements, parse_section("split", doc), countries, args.out, meta_path)
    print(
        f"wrote {prep.features.n} feature rows to {args.out} "
        f"(train {prep.split.train_indices.size} / test {prep.split.test_indices.size} / "
        f"validation {prep.split.validation_indices.size}; rejections {prep.rejection_counts()})"
    )
    return 0


def _cmd_resample(args) -> int:
    rows = _rows(args, "train" if args.meta else None)
    config = SmoteConfig(k=args.k, target_ratio=args.ratio, seed=args.seed)
    audit_path = args.audit or str(Path(args.out).with_suffix(".audit.json"))
    result = resample_stage(rows, config, args.out, audit_path)
    print(
        f"wrote {result.data.n} rows to {args.out} "
        f"({result.parents.shape[0]} synthetic)"
    )
    return 0


def _cmd_train(args) -> int:
    params = read_json(args.params) if args.params else None
    rows = _rows(args, args.split)
    train_stage(args.model, rows, params, args.seed, args.out)
    print(f"trained {args.model} on {rows.n} rows -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    rows = _rows(args, args.split)
    report = evaluate(rows.y, predict_proba(model, rows), threshold=args.threshold)
    report.save(args.report)
    print(
        f"n={report.n} accuracy={100 * report.accuracy:.2f} "
        f"precision={100 * report.precision:.2f} recall={100 * report.recall:.2f} "
        f"f1={report.f1:.4f} auc={_fmt_frac(report.auc)} -> {args.report}"
    )
    return 0


def _cmd_explain(args) -> int:
    splits = _splits(args, args.split)
    rows = select_instances(splits, args.max_instances, args.seed, args.split or "all")
    background = FeatureMatrix.load(args.background).X
    report = explain_stage(load_model(args.model), rows, background, args.group_countries, args.out)
    top = ", ".join(report.ranking[:3])
    print(f"explained {rows.n} rows -> {args.out} (top players: {top})")
    return 0


def _cmd_map_grades(args) -> int:
    if not (args.fixed_intervals or args.meta):
        raise ValueError("calibration fits on the test split and needs --meta "
                         "(or pass --fixed-intervals)")
    model, splits = load_model(args.model), _splits(args, args.split)
    confusion = map_grades_stage(
        lambda split: predict_proba(model, splits[split]),
        read_reference_grades(args.reference),
        splits,
        args.split or "all",
        "fixed" if args.fixed_intervals else "calibrate",
        args.fixed_intervals,
        args.out,
    )
    print(
        f"graded {int(confusion.matrix.sum())} rows -> {args.out} "
        f"(equal {100 * confusion.equal_fraction:.1f}%, "
        f"riskier {100 * confusion.riskier_fraction:.1f}%)"
    )
    return 0


def _cmd_align(args) -> int:
    report = align_stage(args.survey, AttributionReport.load(args.attribution), args.out)
    print(
        f"alignment -> {args.out} (rho={_fmt_frac(report.spearman)}, "
        f"tau={_fmt_frac(report.kendall)}, top-3 overlap={report.top3_overlap:.2f})"
    )
    return 0


def _cmd_run(args) -> int:
    demo = resources.files("pdxplain.data").joinpath("demo_config.json")
    config = RunConfig.from_json(args.config) if args.config else RunConfig.from_dict(json.loads(demo.read_text()))
    if args.seed is not None:  # every stage seed derives from the new global seed
        doc = {**config.to_dict(), "seed": args.seed}
        for section in STAGE_SEEDS:
            del doc[section]["seed"]
        config = RunConfig.from_dict(doc)
    bundle = run_pipeline(config, args.out)
    print(f"report bundle written to {args.out} (digest {bundle['config_digest']})")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.inp)
    if path.is_dir():
        path = path / "report.json"
    text = format_report(read_json(path))
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def _row_args(p, help_in="feature .npz") -> None:
    p.add_argument("--in", dest="inp", required=True, help=help_in)
    p.add_argument("--meta", help="prepare sidecar for --split")
    p.add_argument("--split", choices=("train", "test", "validation"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdxplain",
        description="Company default prediction with explainable attributions on synthetic panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic statement panel")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output statement .npz")
    p.add_argument("--grades-out", help="optional reference grade CSV")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_generate, stage="generate")

    p = sub.add_parser("prepare", help="label, derive ratios, split, and scale")
    p.add_argument("--in", dest="inp", required=True,
                   help="statement .npz from generate, or a raw statement CSV (any other suffix)")
    p.add_argument("--config", help="JSON object of split section keys, plus an optional countries list")
    p.add_argument("--out", required=True, help="output feature .npz")
    p.add_argument("--meta", help="sidecar JSON path (default: <out>.meta.json)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_prepare, stage="prepare")

    p = sub.add_parser("resample", help="SMOTE-oversample a training matrix")
    p.add_argument("--in", dest="inp", required=True, help="feature .npz (training rows)")
    p.add_argument("--meta", help="prepare sidecar; restricts to the train split")
    p.add_argument("--k", type=int, default=SmoteConfig.k)
    p.add_argument("--ratio", type=float, default=SmoteConfig.target_ratio)
    p.add_argument("--seed", type=int, default=SmoteConfig.seed)
    p.add_argument("--out", required=True, help="output feature .npz")
    p.add_argument("--audit", help="parent-audit JSON path (default: <out>.audit.json)")
    p.set_defaults(func=_cmd_resample, stage="resample")

    p = sub.add_parser("train", help="fit a model")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--params", help="hyperparameter JSON")
    _row_args(p, "training feature .npz")
    p.add_argument("--out", required=True, help="model JSON")
    p.add_argument("--seed", type=int, default=ModelSection.seed)
    p.set_defaults(func=_cmd_train, stage="train")

    p = sub.add_parser("evaluate", help="score a model on labeled rows")
    p.add_argument("--model", required=True)
    _row_args(p)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--report", "--out", dest="report", required=True, help="output report JSON")
    p.set_defaults(func=_cmd_evaluate, stage="evaluate")

    p = sub.add_parser("explain", help="exact Shapley attributions")
    p.add_argument("--model", required=True)
    _row_args(p, "feature .npz of the rows to explain")
    p.add_argument("--background", required=True, help="feature .npz whose rows are the background")
    p.add_argument("--group-countries", action="store_true")
    p.add_argument("--max-instances", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=AttributionSection.seed)
    p.set_defaults(func=_cmd_explain, stage="explain")

    p = sub.add_parser("map-grades", help="map probabilities to rating grades")
    p.add_argument("--model", required=True)
    p.add_argument("--reference", required=True, help="reference grade CSV")
    _row_args(p)
    p.add_argument("--fixed-intervals", help="interval table JSON; else calibrate on the --meta test split")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_map_grades, stage="map-grades")

    p = sub.add_parser("align", help="expert-vs-model agreement score")
    p.add_argument("--survey", help="survey CSV (default: bundled four-analyst table)")
    p.add_argument("--attribution", required=True, help="attributions JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_align, stage="align")

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("--config", help="run config JSON (default: bundled demo config)")
    p.add_argument("--out", required=True, help="report bundle directory")
    p.add_argument("--seed", type=int, help="override the global seed")
    p.set_defaults(func=_cmd_run, stage="run")

    p = sub.add_parser("report", help="pretty-print a report bundle")
    p.add_argument("--in", dest="inp", required=True, help="bundle directory or report.json")
    p.add_argument("--out", help="also write the formatted text to this file")
    p.set_defaults(func=_cmd_report, stage="report")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error [{args.stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
