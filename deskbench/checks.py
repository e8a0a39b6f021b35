"""Output checks of one measured run. Each returns a list of problems; an
empty list means the run passed.

1. Every rerun's report bundle is byte-identical to the cold run's, so the
   stage cache never serves a stale result.
2. Efficiency holds on every explained instance: |sum(phi) + base - f(x)|
   stays within 1e-9 (acceptance criterion 2's tolerance), read from
   ``report.json``.
3. At the workload's default seed, the bundle matches the reference captured
   with ``capture_reference.py``: strings, booleans and integers exactly
   (so rankings, grades and every count), floats within 1e-12.
"""

from __future__ import annotations

import math

EFFICIENCY_TOL = 1e-9
REFERENCE_FLOAT_TOL = 1e-12


def rerun_identical(cold_sha: str, rerun_shas: list[str]) -> list[str]:
    return [f"rerun {i + 1} bundle differs from the cold run's" for i, sha in enumerate(rerun_shas) if sha != cold_sha]


def efficiency(report: dict) -> list[str]:
    att = report["attribution"]
    if not att["phi"] or len(att["phi"]) != len(att["predictions"]):
        return ["attribution has no explained instances or mismatched predictions"]
    residual = max(abs(math.fsum(phi) + att["base_value"] - f) for phi, f in zip(att["phi"], att["predictions"]))
    if not residual <= EFFICIENCY_TOL:
        return [f"efficiency residual {residual:.3e} exceeds {EFFICIENCY_TOL:g}"]
    return []


def matches_reference(got, want, path: str = "report") -> list[str]:
    """Structural comparison; floats within REFERENCE_FLOAT_TOL absolute."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [p for k in sorted(want) for p in matches_reference(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in matches_reference(g, w, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
              and isinstance(want, (int, float)) and not isinstance(want, bool)
              and abs(got - want) <= REFERENCE_FLOAT_TOL)
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{path}: {got!r} != {want!r}"]
