"""Binary-classification evaluation: confusion counts, accuracy, precision,
recall, F1, and AUC.

AUC uses the rank (Mann-Whitney) formulation with ties counted one half,
which equals trapezoidal integration of the ROC curve. Precision and F1 are
reported as 0 when their denominator is 0, matching the degenerate regime of
heavily imbalanced data where a model predicts no positives at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class EvalReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: Optional[float]  # None when only one class is present
    n: int
    threshold: float

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in ("tp", "fp", "tn", "fn", "n")}
        d.update({k: float(getattr(self, k)) for k in ("accuracy", "precision", "recall", "f1", "threshold")})
        d["auc"] = None if self.auc is None else float(self.auc)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(**d)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True, allow_nan=False))


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions."""
    values = np.asarray(values)
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    # Tie group g spans sorted positions first[g] through last[g].
    first = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    last = np.append(first[1:], values.size) - 1
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> Optional[float]:
    """Probability a random positive outranks a random negative, ties half.

    Returns None when either class is absent.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = average_ranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(labels, probabilities, threshold: float = 0.5) -> EvalReport:
    """Score hard predictions at the threshold and rank quality via AUC."""
    y = np.asarray(labels)
    p = np.asarray(probabilities, dtype=float)
    if y.shape != p.shape or y.ndim != 1 or y.size < 1:
        raise ValueError("labels and probabilities must be equal-length non-empty vectors")
    if not set(np.unique(y).tolist()) <= {0, 1}:
        raise ValueError("labels must be 0/1")
    if (p < 0).any() or (p > 1).any():
        raise ValueError("probabilities must lie in [0, 1]")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")

    pred = p >= threshold
    tp = int((pred & (y == 1)).sum())
    fp = int((pred & (y == 0)).sum())
    fn = int((~pred & (y == 1)).sum())
    tn = int((~pred & (y == 0)).sum())
    n = y.size
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=(tp + tn) / n,
        precision=precision,
        recall=recall,
        f1=f1,
        auc=roc_auc(y, p),
        n=n,
        threshold=threshold,
    )
