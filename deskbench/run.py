#!/usr/bin/env python3
"""Desk-run benchmark of pdxplain.

    python3 deskbench/run.py --workload demo_gbt --seed 2024 --seconds 30 --trace 0
    python3 deskbench/run.py --workload all --seed 2024 --seconds 30 --trace 0

Each measured run is a fresh process (``measured.py``) that imports the
checkout's ``src/pdxplain``, parses a generated run config, runs
``pdxplain.pipeline.run_pipeline`` cold into an empty directory and then
reruns it into the same directory. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` makes one untraced and one traced cold run and
reports the per-layer metrics from the traced run's spans. Every run's
outputs are checked (see ``checks.py``); a run that raises or fails a check
counts as failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".deskbench_work"
STATE = ROOT / ".deskbench_state"
REFERENCE = HERE / "reference"

SETUP_SAMPLES = 7  # after one unmeasured warm-up that fills __pycache__
MIN_RERUNS = 4
TIME_LIMIT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {"run_s": "s", "rerun_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# Counts that must repeat exactly between runs of one workload, seed and config.
EXACT_COUNTS = (
    "shapley.model_rows",
    "trees.nodes",
    "trees.routed_row_trees",
    "smote.minority_rows",
    "smote.synthetic_rows",
    "dataprep.feature_rows",
    "pipeline.cache_hits",
)


def unit_of(layer_metric: str) -> str:
    if layer_metric == "smote.neighbor_scratch_mb":
        return "MiB-computed"  # n_min^2 * d * 8 B, not a measurement
    if layer_metric.endswith("_per_s"):
        return "1/s"
    if layer_metric.endswith("_s"):
        return "s"
    if layer_metric.endswith("_mb"):
        return "MiB"
    if layer_metric.endswith("_residual_max"):
        return "probability"
    return "count"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run ``measured.py`` in a fresh interpreter; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "measured.py"), "--src", str(SRC), *args, "--t0", repr(now())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"measured process timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"measured process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_child(result: dict, cold_report: Path, reference) -> tuple[int, int, list[str], dict]:
    """(attempted, failed, problems, cold report) of one measured process."""
    runs = result["runs"]
    report = json.loads(cold_report.read_text())
    cold_problems = checks.efficiency(report)
    if reference is not None:
        cold_problems += checks.matches_reference(report, reference["report"])
    rerun_problems = checks.rerun_identical(runs[0]["bundle_sha256"], [r["bundle_sha256"] for r in runs[1:]])
    failed = int(bool(cold_problems)) + len(rerun_problems)
    return len(runs), failed, cold_problems + rerun_problems, report


def compare_counts(counts: dict, name: str, seed: int, doc: dict, reference) -> list[str]:
    """Exact counts must repeat: against the reference at the default seed,
    and against the first traced run of this workload, seed and config in
    this checkout."""
    problems = []
    if reference is not None:
        problems += [f"{k} = {counts[k]} but the reference has {reference['counts'][k]}"
                     for k in EXACT_COUNTS if counts[k] != reference["counts"][k]]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:12]
    state = STATE / f"{name}-{seed}-{digest}.json"
    if state.exists():
        earlier = json.loads(state.read_text())
        problems += [f"{k} = {counts[k]} but an earlier run counted {earlier[k]}"
                     for k in EXACT_COUNTS if counts[k] != earlier[k]]
    else:
        STATE.mkdir(exist_ok=True)
        state.write_text(json.dumps(counts, sort_keys=True))
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool, doc: dict | None = None,
            reference: dict | None = None) -> dict:
    """One benchmark run of one workload. ``doc`` overrides the generated
    run config; ``reference`` is the captured bundle the output must match."""
    deadline = now() + TIME_LIMIT_S
    doc = workloads.config_doc(name, seed, SRC) if doc is None else doc
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(doc))
    out = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "samples": {},
           "problems": [], "report": None, "counts": None}
    try:
        if trace:
            _measure_traced(out, name, seed, doc, work, config, reference, deadline)
        else:
            _measure_end_to_end(out, work, config, seconds, reference, deadline)
    except ChildFailed as exc:
        out["problems"].append(str(exc))
        out["attempted"] += 1
        out["failed"] += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    out["failed"] = min(out["failed"], out["attempted"])
    out["correct"] = out["failed"] == 0 and not out["problems"]
    return out


def _measure_end_to_end(out, work, config, seconds, reference, deadline):
    setups = []
    for i in range(SETUP_SAMPLES + 1):
        s = spawn(["--config", str(config), "--setup-only"], deadline)["setup_s"]
        if i:
            setups.append(s)
    cold_copy = work / "cold_report.json"
    res = spawn(["--config", str(config), "--out", str(work / "run"), "--cold-copy", str(cold_copy),
                 "--min-reruns", str(MIN_RERUNS), "--window-s", repr(float(seconds))], deadline)
    attempted, failed, problems, out["report"] = check_child(res, cold_copy, reference)
    out["attempted"] += attempted
    out["failed"] += failed
    out["problems"] += problems
    setups.append(res["setup_s"])
    reruns = [r["wall_s"] for r in res["runs"][1:]]
    samples = {"run_s": [res["runs"][0]["wall_s"]], "rerun_s": reruns,
               "peak_rss_mb": [res["peak_rss_mib"]], "setup_s": setups}
    out["samples"] = {k: len(v) for k, v in samples.items()}
    out["metrics"] = {k: statistics.median(v) for k, v in samples.items()}


def _measure_traced(out, name, seed, doc, work, config, reference, deadline):
    plain_copy, traced_copy, spans_path = work / "plain_report.json", work / "traced_report.json", work / "spans.jsonl"
    plain = spawn(["--config", str(config), "--out", str(work / "plain"), "--cold-copy", str(plain_copy)], deadline)
    traced = spawn(["--config", str(config), "--out", str(work / "traced"), "--cold-copy", str(traced_copy),
                    "--min-reruns", "1", "--trace", str(spans_path)], deadline)
    for res, copy in ((plain, plain_copy), (traced, traced_copy)):
        attempted, failed, problems, out["report"] = check_child(res, copy, reference)
        out["attempted"] += attempted
        out["failed"] += failed
        out["problems"] += problems
    if traced["runs"][0]["bundle_sha256"] != plain["runs"][0]["bundle_sha256"]:
        out["failed"] += 1
        out["problems"].append("the traced cold run's bundle differs from the untraced one's")

    spans = tracer.read_spans(spans_path)
    cold, rerun = traced["runs"][0], traced["runs"][1]
    layers = tracer.layer_metrics(spans, "cold")
    layers.update({
        "pipeline.cache_hits": rerun["stages_done_before"],
        "pipeline.cache_misses": cold["stages_done_after"] - cold["stages_done_before"],
        "pipeline.artifact_mb": cold["artifact_bytes"] / tracer.MIB,
        "pipeline.cpu_s": cold["cpu_s"],
        "pipeline.trace_overhead_s": cold["wall_s"] - plain["runs"][0]["wall_s"],
    })
    out["counts"] = {k: layers[k] for k in EXACT_COUNTS}
    mismatches = compare_counts(out["counts"], name, seed, doc, reference)
    for problem in mismatches:
        print(f"COUNT MISMATCH: {problem}", file=sys.stderr)
    out["problems"] += mismatches
    out["failed"] += int(bool(mismatches))
    out["metrics"] = layers
    out["samples"] = {k: 1 for k in layers}


def environment() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}"
                       for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                 "PYTHONDONTWRITEBYTECODE"))
    return (f"env: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas} {threads}")


def load_reference(name: str, seed: int):
    path = REFERENCE / f"{name}.json"
    if seed != workloads.default_seed(SRC) or not path.exists():
        return None
    return json.loads(path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="the measured process keeps rerunning until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pdxplain" / "__init__.py").is_file():
        print(f"no pdxplain source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    print(environment())
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace), reference=load_reference(name, args.seed))
        print(f"workload {name} seed {args.seed} trace {args.trace}: "
              f"failed_runs {res['failed']}/{max(res['attempted'], 1)}")
        for problem in res["problems"]:
            print(f"  FAILED: {problem}")
        for metric, value in res["metrics"].items():
            unit = unit_of(metric) if args.trace else END_TO_END_UNITS[metric]
            print(f"  {metric:32s} {value:14.6g} {unit:13s} (median of {res['samples'][metric]})")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            total["metrics"][key] = {"value": value, "unit": unit}
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += max(res["attempted"], 1)
        total["failed"] += res["failed"]
    print(json.dumps(total))
    return 0 if total["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
