#!/usr/bin/env python3
"""Capture the report bundle and exact counts that runs at the default seed
must reproduce (output check 3 in ``checks.py``):

    python3 deskbench/capture_reference.py [workload ...]

Recapture only in a change that means to alter results, and say so there.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    seed = workloads.default_seed(run.SRC)
    for name in argv or workloads.NAMES:
        res = run.measure(name, seed, 0.0, trace=True)
        if not res["correct"]:
            print(f"{name}: run failed, nothing captured: {res['problems']}", file=sys.stderr)
            return 1
        run.REFERENCE.mkdir(exist_ok=True)
        path = run.REFERENCE / f"{name}.json"
        path.write_text(json.dumps({"seed": seed, "counts": res["counts"], "report": res["report"]},
                                   sort_keys=True, indent=1) + "\n")
        print(f"{name}: wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
