"""One measured process: start the interpreter, import pdxplain, parse the
run config, then run the pipeline cold into an empty directory and rerun it
into the same directory. Prints one JSON line with the timings.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; it refuses to run against a pdxplain imported from anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time is comparable.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def bundle_digest(out: Path) -> str:
    """sha256 over the report bundle: every file directly under ``out``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def stages_done(out: Path) -> int:
    return sum(1 for _ in (out / "stages").glob("*/.done"))


def tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    ap.add_argument("--src", required=True, help="directory pdxplain must be imported from")
    ap.add_argument("--config", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", help="run directory")
    ap.add_argument("--cold-copy", help="where to keep the cold run's report.json")
    ap.add_argument("--min-reruns", type=int, default=0)
    ap.add_argument("--window-s", type=float, default=0.0,
                    help="keep rerunning while the next rerun ends within this many seconds")
    ap.add_argument("--trace", help="write spans here as JSON lines")
    args = ap.parse_args(argv)

    import pdxplain
    from pdxplain.pipeline import RunConfig

    src = Path(args.src).resolve()
    if src not in Path(pdxplain.__file__).resolve().parents:
        print(f"pdxplain was imported from {pdxplain.__file__}, not from {src}", file=sys.stderr)
        return 3
    config = RunConfig.from_json(args.config)
    setup_s = now() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import pdxplain.pipeline as pipeline

    out = Path(args.out)
    runs = []
    start = now()
    while True:
        label = "cold" if not runs else f"rerun{len(runs)}"
        done_before = stages_done(out) if out.exists() else 0
        if tracer:
            tracer.run_id = label
        cpu0, t = cpu_s(), now()
        pipeline.run_pipeline(config, out)
        wall = now() - t
        cpu = cpu_s() - cpu0
        if not runs and args.cold_copy:
            shutil.copyfile(out / "report.json", args.cold_copy)
        runs.append({
            "label": label,
            "wall_s": wall,
            "cpu_s": cpu,
            "stages_done_before": done_before,
            "stages_done_after": stages_done(out),
            "bundle_sha256": bundle_digest(out),
            "artifact_bytes": tree_bytes(out),
        })
        reruns = len(runs) - 1
        if reruns >= args.min_reruns and now() - start + wall > args.window_s:
            break
    if tracer:
        tracer.write(args.trace)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"setup_s": setup_s, "runs": runs, "peak_rss_mib": peak_kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
