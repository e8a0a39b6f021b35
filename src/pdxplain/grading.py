"""Map model probabilities to A-F rating grades and compare against a
reference grade stream.

Calibration computes the mean model probability per reference grade; the
decision boundary between neighboring grades is the midpoint of their means.
The published interval table can also be loaded directly, bypassing
calibration. Either way a probability is graded by interval lookup on the
bounds, and a probability exactly on a boundary resolves to the less risky
grade.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

GRADES = ("A", "B", "C", "D", "E", "F")
_GRADE_INDEX = {g: i for i, g in enumerate(GRADES)}


@dataclass
class GradeCalibration:
    """Per-grade mean probabilities and the derived decision intervals.

    ``upper_bounds[i]`` closes grade i's interval (inclusive); the last bound
    is 1. ``mu`` and ``counts`` are None when the calibration was loaded from
    a fixed interval table.
    """

    upper_bounds: np.ndarray
    mu: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None

    def __post_init__(self):
        self.upper_bounds = np.asarray(self.upper_bounds, dtype=float)
        if self.upper_bounds.shape != (len(GRADES),):
            raise ValueError(f"need exactly {len(GRADES)} upper bounds")
        if (np.diff(self.upper_bounds) <= 0).any() or self.upper_bounds[-1] != 1.0:
            raise ValueError("upper bounds must increase strictly and end at 1")
        if self.mu is not None:
            self.mu = np.asarray(self.mu, dtype=float)
        if self.counts is not None:
            self.counts = np.asarray(self.counts, dtype=int)

    def intervals(self) -> list[tuple[str, float, float]]:
        lows = np.concatenate([[0.0], self.upper_bounds[:-1]])
        return [(g, float(lo), float(hi)) for g, lo, hi in zip(GRADES, lows, self.upper_bounds)]

    def to_dict(self) -> dict:
        return {
            "grades": list(GRADES),
            "upper_bounds": [float(v) for v in self.upper_bounds],
            "mu": None if self.mu is None else [float(v) for v in self.mu],
            "counts": None if self.counts is None else [int(v) for v in self.counts],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GradeCalibration":
        return cls(d["upper_bounds"], d.get("mu"), d.get("counts"))


def calibrate(reference_grades: Sequence[str], model_probs) -> GradeCalibration:
    """Fit per-grade mean probabilities from paired (grade, probability)
    streams and derive the midpoint decision bounds.

    Every grade must occur at least once and the means must increase
    strictly from A to F, otherwise the mapping is ill-posed.
    """
    probs = np.asarray(model_probs, dtype=float)
    grades = list(reference_grades)
    if len(grades) != probs.size:
        raise ValueError("reference grades and probabilities differ in length")
    unknown = sorted({g for g in grades if g not in _GRADE_INDEX})
    if unknown:
        raise ValueError(f"unknown reference grades: {unknown}")

    idx = np.array([_GRADE_INDEX[g] for g in grades])
    counts = np.bincount(idx, minlength=len(GRADES))
    absent = [GRADES[i] for i in range(len(GRADES)) if counts[i] == 0]
    if absent:
        raise ValueError(f"reference stream has no examples of grades: {absent}")

    mu = np.array([probs[idx == i].mean() for i in range(len(GRADES))])
    if (np.diff(mu) <= 0).any():
        raise ValueError(
            "per-grade mean probabilities are not strictly increasing from A "
            f"to F (got {np.round(mu, 6).tolist()}); calibration is ill-posed"
        )
    upper = np.concatenate([0.5 * (mu[:-1] + mu[1:]), [1.0]])
    return GradeCalibration(upper_bounds=upper, mu=mu, counts=counts)


def load_fixed_intervals(path=None) -> GradeCalibration:
    """Load interval bounds from JSON; defaults to the bundled scorecard
    interval table."""
    if path is None:
        ref = resources.files("pdxplain.data").joinpath("scorecard_intervals.json")
        doc = json.loads(ref.read_text())
    else:
        with open(path) as fh:
            doc = json.load(fh)
    return GradeCalibration(doc["upper_bounds"])


def assign_grade(prob: float, calibration: GradeCalibration) -> str:
    """Grade whose interval holds ``prob`` (a boundary goes to the less
    risky grade)."""
    return assign_grades([prob], calibration)[0]


def assign_grades(probs, calibration: GradeCalibration) -> list[str]:
    p = np.asarray(probs, dtype=float)
    if (p < 0).any() or (p > 1).any():
        raise ValueError("probabilities must lie in [0, 1]")
    idx = np.minimum(np.searchsorted(calibration.upper_bounds, p, side="left"), len(GRADES) - 1)
    return [GRADES[i] for i in idx]


@dataclass
class GradeConfusion:
    """Reference grades in rows, mapped grades in columns, plus how often the
    mapper lands riskier/safer/equal and the critical-underestimation count
    (reference E or F mapped to A or B)."""

    matrix: np.ndarray
    riskier_fraction: float
    safer_fraction: float
    equal_fraction: float
    critical_underestimation: int

    def to_dict(self) -> dict:
        return {
            "grades": list(GRADES),
            "matrix": [[int(v) for v in row] for row in self.matrix],
            "riskier_fraction": float(self.riskier_fraction),
            "safer_fraction": float(self.safer_fraction),
            "equal_fraction": float(self.equal_fraction),
            "critical_underestimation": int(self.critical_underestimation),
        }


def grade_confusion(reference_grades: Sequence[str], mapped_grades: Sequence[str]) -> GradeConfusion:
    ref = np.array([_GRADE_INDEX[g] for g in reference_grades], dtype=int)
    mapped = np.array([_GRADE_INDEX[g] for g in mapped_grades], dtype=int)
    if len(ref) != len(mapped):
        raise ValueError("reference and mapped grade streams differ in length")
    n = len(ref)
    if n == 0:
        raise ValueError("empty grade streams")
    riskier = int((mapped > ref).sum())
    safer = int((mapped < ref).sum())
    critical = int(((ref >= _GRADE_INDEX["E"]) & (mapped <= _GRADE_INDEX["B"])).sum())
    return GradeConfusion(
        matrix=np.bincount(ref * len(GRADES) + mapped, minlength=len(GRADES) ** 2).reshape(len(GRADES), len(GRADES)),
        riskier_fraction=riskier / n,
        safer_fraction=safer / n,
        equal_fraction=(n - riskier - safer) / n,
        critical_underestimation=critical,
    )
