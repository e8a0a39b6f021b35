"""Minority oversampling by segment interpolation (SMOTE).

Synthetic defaulted rows are drawn on the line segments between minority
points and their k nearest minority neighbors, measured by Euclidean
distance over all feature columns (one-hot country indicators included, and
left fractional in the output). Only ever applied to the training split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataprep import FeatureMatrix, _as_int


@dataclass
class SmoteConfig:
    k: int = 10
    target_ratio: float = 0.5  # minority/majority after resampling
    seed: int = 0

    def __post_init__(self):
        self.k = _as_int(self.k, "smote.k")
        self.target_ratio = float(self.target_ratio)
        self.seed = _as_int(self.seed, "smote.seed")
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


# Query rows per distance block: scratch memory is O(NEIGHBOR_BLOCK * n)
# float64 for n minority rows.
NEIGHBOR_BLOCK = 128


def minority_neighbors(X_min: np.ndarray, k: int) -> np.ndarray:
    """Indices of each minority point's k nearest minority neighbors, self
    excluded, by the exact ``e_ij = ((x_i - x_j) ** 2).sum()`` (coordinate
    differences, so equal distances compare equal); ties by row index.

    Per block of NEIGHBOR_BLOCK query rows, one GEMM gives the expanded
    ``a_ij = s_i + s_j - 2 x_i.x_j`` (``s_i = |x_i|^2``). With ``t_i`` the
    k-th smallest ``a_ij`` (j != i) and ``|a_ij - e_ij| <= B_i``, the k-th
    smallest ``e_ij`` is at most ``t_i + B_i``, so the exact top k, ties
    included, all have ``a_ij <= t_i + 2 B_i``; only these candidates get
    ``e_ij`` and are sorted by (distance, index), which gives the array of
    sorting all n. The bound (Higham, Accuracy and Stability, ch. 3, with
    ``g_m = m u / (1 - m u)``, ``u = eps/2``, any summation order, FMA or
    not): ``s_i + s_j`` and ``2 x_i.x_j`` each err by ``g_d (s_i + s_j)``,
    the two additions by ``eps (s_i + s_j)`` each, and ``e_ij`` by
    ``g_{d+3} e_ij <= 2 g_{d+3} (s_i + s_j)``: ``(2d + 5) eps (s_i + s_j)``
    to first order. ``B_i = 4 (d + 4) (eps (s_i + max_j s_j) + tiny)`` is
    over twice that, covering the threshold's own roundings; the smallest
    normal ``tiny`` covers underflow. ValueError when ``4 max_i s_i`` is not
    finite (a non-finite value, or distances that could overflow).
    """
    n, d = X_min.shape
    k = min(k, n)
    sq = np.einsum("ij,ij->i", X_min, X_min)
    top = sq.max(initial=0.0)
    if not top <= np.finfo(float).max / 4:  # also refuses NaN
        raise ValueError("minority rows must be finite with 4 * max squared norm finite")
    slack = 8 * (d + 4) * (np.finfo(float).eps * (sq + top) + np.finfo(float).tiny)  # 2 B_i
    out = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, NEIGHBOR_BLOCK):
        stop = min(start + NEIGHBOR_BLOCK, n)
        approx = sq[start:stop, None] - 2.0 * (X_min[start:stop] @ X_min.T) + sq
        approx[np.arange(stop - start), np.arange(start, stop)] = np.inf
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(approx <= (kth + slack[start:stop])[:, None])
        rows += start
        exact = ((X_min[rows] - X_min[cols]) ** 2).sum(axis=1)
        exact[rows == cols] = np.inf  # self, a candidate only when k == n
        order = np.lexsort((cols, exact, rows))  # rows ascend, so each row's run stays in place
        first = np.searchsorted(rows, np.arange(start, stop))
        out[start:stop] = cols[order[first[:, None] + np.arange(k)]]
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
