"""Minority oversampling by segment interpolation (SMOTE).

Synthetic defaulted rows are drawn on the line segments between minority
points and their k nearest minority neighbors, measured by Euclidean
distance over all feature columns (one-hot country indicators included, and
left fractional in the output). Only ever applied to the training split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataprep import FeatureMatrix


@dataclass
class SmoteConfig:
    k: int = 10
    target_ratio: float = 0.5  # minority/majority after resampling
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must lie in (0, 1]")


@dataclass
class SmoteResult:
    data: FeatureMatrix
    # (n_synthetic, 2) row indices into the input matrix: the minority point
    # each synthetic row started from and the neighbor that closed the segment.
    parents: np.ndarray

    def audit(self) -> dict:
        return {
            "n_synthetic": int(self.parents.shape[0]),
            "parents": [[int(a), int(b)] for a, b in self.parents],
        }


# Query rows per distance block: scratch memory is NEIGHBOR_BLOCK * n * d
# float64 instead of n * n * d.
NEIGHBOR_BLOCK = 128


def minority_neighbors(X_min: np.ndarray, k: int) -> np.ndarray:
    """Indices of each minority point's k nearest minority neighbors,
    self excluded. Distance ties break by ascending row index.

    Distances are computed as explicit coordinate differences (not the
    expanded quadratic form) so that genuinely equal distances compare
    exactly equal and the stable sort honors the index tie-break. Query
    rows go in blocks of NEIGHBOR_BLOCK, which changes no distance.
    """
    n = X_min.shape[0]
    out = np.empty((n, min(k, n)), dtype=np.intp)
    for start in range(0, n, NEIGHBOR_BLOCK):
        stop = min(start + NEIGHBOR_BLOCK, n)
        d2 = ((X_min[start:stop, None, :] - X_min[None, :, :]) ** 2).sum(axis=2)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


def resample(train: FeatureMatrix, config: SmoteConfig) -> SmoteResult:
    """Append synthetic minority rows until minority/majority reaches the
    target ratio (count rounded down). Original rows pass through unchanged
    and exactly once; the majority class is never altered."""
    y = train.y
    min_idx = np.flatnonzero(y == 1)
    maj_idx = np.flatnonzero(y == 0)
    n_min, n_maj = min_idx.size, maj_idx.size

    target_min = int(np.floor(config.target_ratio * n_maj))
    n_synth = target_min - n_min
    if n_synth <= 0:
        return SmoteResult(data=train, parents=np.empty((0, 2), dtype=int))
    if n_min <= config.k:
        raise ValueError(
            f"minority class has {n_min} rows but k={config.k} neighbors were "
            f"requested; use a smaller k (at most {max(n_min - 1, 0)})"
        )

    X_min = train.X[min_idx]
    nn = minority_neighbors(X_min, config.k)

    rng = np.random.default_rng(config.seed)
    base = rng.integers(0, n_min, size=n_synth)
    pick = rng.integers(0, config.k, size=n_synth)
    gap = rng.random(n_synth)
    neighbor = nn[base, pick]
    synth = X_min[base] + gap[:, None] * (X_min[neighbor] - X_min[base])

    parents = np.stack([min_idx[base], min_idx[neighbor]], axis=1)
    data = FeatureMatrix(
        columns=list(train.columns),
        X=np.vstack([train.X, synth]),
        y=np.concatenate([train.y, np.ones(n_synth, dtype=int)]),
        company_ids=list(train.company_ids) + [f"smote_{i}" for i in range(n_synth)],
        years=np.concatenate([train.years, train.years[parents[:, 0]]]),
    )
    return SmoteResult(data=data, parents=parents)
