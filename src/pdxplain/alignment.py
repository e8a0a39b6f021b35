"""Analyst feature-weight surveys and expert-vs-model agreement scoring.

Each analyst distributes 100 points (to within 1e-9) over the model's grouped
features. Aggregation sums the points; the agreement score bundles Spearman
rho, Kendall tau-b, top-k overlap, and a per-feature share disagreement
delta = (expert weight share) - (model |attribution| share). A rank
correlation with a constant side (an analyst who weights every feature
alike, or tied model importances) is undefined and reported as None.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .dataprep import CONTINUOUS_COLUMNS
from .metrics import average_ranks
from .shapley import AttributionReport

# The grouped player names analysts weight (one-hot countries collapsed).
PLAYER_FEATURES = (*CONTINUOUS_COLUMNS, "country_code")

POINTS_PER_ANALYST = 100.0
POINTS_TOLERANCE = 1e-9  # decimal points need not sum to 100 exactly in binary


@dataclass
class ExpertSurvey:
    analysts: list[str]
    features: list[str]  # first-appearance order in the survey file
    points: dict[str, dict[str, float]]  # analyst -> feature -> points

    def totals(self) -> dict[str, float]:
        return {
            f: sum(self.points[a][f] for a in self.analysts) for f in self.features
        }


def load_survey(path=None) -> ExpertSurvey:
    """Load and validate a survey CSV with rows (analyst_id, feature, points).

    Defaults to the bundled four-analyst survey. Every analyst must cover
    the same features, use only known feature names, spend no negative
    points, and sum to exactly 100.
    """
    if path is None:
        ref = resources.files("pdxplain.data").joinpath("analyst_survey.csv")
        with ref.open(newline="") as fh:
            return _parse_survey(csv.DictReader(fh))
    with open(path, newline="") as fh:
        return _parse_survey(csv.DictReader(fh))


def _parse_survey(reader) -> ExpertSurvey:
    required = {"analyst_id", "feature", "points"}
    if not required <= set(reader.fieldnames or []):
        raise ValueError(f"survey CSV must have columns {sorted(required)}")
    analysts: list[str] = []
    features: list[str] = []
    points: dict[str, dict[str, float]] = {}
    for row in reader:
        analyst = row["analyst_id"].strip()
        feature = row["feature"].strip()
        value = float(row["points"])
        if feature not in PLAYER_FEATURES:
            raise ValueError(f"unknown feature name {feature!r} in survey")
        if not math.isfinite(value):
            raise ValueError(f"non-finite points for analyst {analyst!r}, feature {feature!r}")
        if value < 0:
            raise ValueError(f"negative points for analyst {analyst!r}, feature {feature!r}")
        if analyst not in points:
            points[analyst] = {}
            analysts.append(analyst)
        if feature in points[analyst]:
            raise ValueError(f"duplicate entry for analyst {analyst!r}, feature {feature!r}")
        points[analyst][feature] = value
        if feature not in features:
            features.append(feature)

    if not analysts:
        raise ValueError("survey is empty")
    for analyst in analysts:
        missing = [f for f in features if f not in points[analyst]]
        if missing:
            raise ValueError(f"analyst {analyst!r} has no entry for {missing}")
        total = sum(points[analyst].values())
        if abs(total - POINTS_PER_ANALYST) > POINTS_TOLERANCE:
            raise ValueError(
                f"analyst {analyst!r} distributed {total:g} points, expected "
                f"{POINTS_PER_ANALYST:g}"
            )
    return ExpertSurvey(analysts=analysts, features=features, points=points)


def aggregate_and_rank(survey: ExpertSurvey) -> list[str]:
    """Features by descending total points.

    Ties break toward the feature whose support is spread more evenly (the
    smaller single-analyst maximum first), then by survey file order.
    """
    totals = survey.totals()
    max_single = {
        f: max(survey.points[a][f] for a in survey.analysts) for f in survey.features
    }
    file_pos = {f: i for i, f in enumerate(survey.features)}
    return sorted(survey.features, key=lambda f: (-totals[f], max_single[f], file_pos[f]))


def spearman_rho(x, y) -> Optional[float]:
    """Spearman rank correlation with average ranks for ties; None when
    either side is constant."""
    rx = average_ranks(np.asarray(x, dtype=float))
    ry = average_ranks(np.asarray(y, dtype=float))
    sx, sy = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt((sx @ sx) * (sy @ sy))
    if denom == 0:
        return None
    return float((sx @ sy) / denom)


def kendall_tau(x, y) -> Optional[float]:
    """Kendall tau-b (tie-adjusted); None when either side is constant."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i, j = np.triu_indices(x.size, k=1)
    sx, sy = np.sign(x[i] - x[j]), np.sign(y[i] - y[j])
    # pairs untied in x times pairs untied in y, each counted as n0 - ties
    denom = np.sqrt(np.count_nonzero(sx) * np.count_nonzero(sy))
    if denom == 0:
        return None
    return float(int((sx * sy).sum()) / denom)


def top_k_overlap(ranking_a, ranking_b, k: int) -> float:
    return len(set(ranking_a[:k]) & set(ranking_b[:k])) / k


@dataclass
class AlignmentReport:
    features: list[str]
    expert_totals: dict[str, float]
    expert_ranking: list[str]
    model_importance: dict[str, float]
    model_ranking: list[str]
    spearman: Optional[float]  # None when undefined, as for every rank correlation here
    kendall: Optional[float]
    top3_overlap: float
    top5_overlap: float
    delta: dict[str, float]  # expert share minus model share, per feature
    per_analyst_spearman: dict[str, Optional[float]]

    def to_dict(self) -> dict:
        return {
            "features": list(self.features),
            "expert_totals": {k: float(v) for k, v in self.expert_totals.items()},
            "expert_ranking": list(self.expert_ranking),
            "model_importance": {k: float(v) for k, v in self.model_importance.items()},
            "model_ranking": list(self.model_ranking),
            "spearman": self.spearman,
            "kendall": self.kendall,
            "top3_overlap": float(self.top3_overlap),
            "top5_overlap": float(self.top5_overlap),
            "delta": {k: float(v) for k, v in self.delta.items()},
            "per_analyst_spearman": dict(self.per_analyst_spearman),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True, allow_nan=False))


def align(survey: ExpertSurvey, attribution: AttributionReport) -> AlignmentReport:
    """Score agreement between the aggregate expert weighting and the
    model's global attribution importance."""
    expert_set = set(survey.features)
    model_set = set(attribution.players)
    if expert_set != model_set:
        raise ValueError(
            "survey and attribution cover different features; only in survey: "
            f"{sorted(expert_set - model_set)}, only in attribution: "
            f"{sorted(model_set - expert_set)}"
        )

    features = list(survey.features)
    totals = survey.totals()
    importance = attribution.importance_by_player()
    e = np.array([totals[f] for f in features])
    m = np.array([importance[f] for f in features])

    expert_ranking = aggregate_and_rank(survey)
    model_ranking = [p for p in attribution.ranking]

    if not m.sum() > 0:
        raise ValueError("every player has zero mean |attribution|; the model shares are undefined")
    e_share = e / e.sum()
    m_share = m / m.sum()
    delta = {f: float(e_share[i] - m_share[i]) for i, f in enumerate(features)}

    per_analyst = {
        a: spearman_rho([survey.points[a][f] for f in features], m)
        for a in survey.analysts
    }
    return AlignmentReport(
        features=features,
        expert_totals={f: totals[f] for f in features},
        expert_ranking=expert_ranking,
        model_importance={f: float(importance[f]) for f in features},
        model_ranking=model_ranking,
        spearman=spearman_rho(e, m),
        kendall=kendall_tau(e, m),
        top3_overlap=top_k_overlap(expert_ranking, model_ranking, 3),
        top5_overlap=top_k_overlap(expert_ranking, model_ranking, 5),
        delta=delta,
        per_analyst_spearman=per_analyst,
    )
