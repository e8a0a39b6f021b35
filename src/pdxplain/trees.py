"""CART-style binary decision trees.

One learner serves every ensemble: gini mode for AdaBoost stumps and random
forests, second-order mode (gradient/hessian with L2 leaf regularization and
a minimum split gain) for boosted trees. Split search is exact: candidate
thresholds are the midpoints between consecutive sorted unique feature
values. Routing is strict-inequality (left iff value < threshold) in both
fitting and prediction.

Each column is sorted once, not once per node: ``sort_columns`` gives the
(d, n) block of row orders (a stable sort, so ties stay in row order), the
"column block" of XGBoost's exact greedy search (Chen & Guestrin, KDD 2016,
section 4.1). A node holds its rows' orders; a split keeps each child's share
with a stable boolean filter, so every child order is still sorted by
(value, row) and the trees equal those of a per-node sort. Ensembles whose
rows do not change between trees (unsampled boosting, AdaBoost) build the
block once per fit and pass it to every tree; ensembles that fit each tree on
ascending distinct rows (a random forest's bootstrap, subsampled boosting)
filter that one block with ``restrict_order``.

A random forest tree is fit on its distinct bootstrap rows with their
bootstrap counts (``fit_tree(..., counts=...)``), the sample-count bootstrap of
scikit-learn's forests. Node sizes count copies, and every count sum is an
integer below 2**53, so each prefix sum, gain, threshold and leaf value is
exactly the one the repeated rows give and the tree is the same.

A gini node whose labels are all equal has zero gain on every split; with
integer weights (ones or counts) that test is exact, and such a node becomes
a leaf right after its feature draw, with no split search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

GINI = "gini"
SECOND_ORDER = "second_order"


@dataclass
class TreeNode:
    """Either an internal split or a leaf. Leaves have feature == -1."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: float = 0.0

    @classmethod
    def leaf(cls, value: float) -> "TreeNode":
        return cls(value=float(value))

    @classmethod
    def split(cls, feature: int, threshold: float, left: "TreeNode", right: "TreeNode") -> "TreeNode":
        return cls(feature=int(feature), threshold=float(threshold), left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class TreeConfig:
    max_depth: int = 6
    min_samples_leaf: int = 1
    feature_subsample_fraction: float = 1.0
    criterion: str = GINI
    lam: float = 1.0  # L2 leaf regularization (second_order only)
    gamma: float = 0.0  # minimum gain to split (second_order only)
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not 0.0 < self.feature_subsample_fraction <= 1.0:
            raise ValueError("feature_subsample_fraction must be in (0, 1]")
        if self.criterion not in (GINI, SECOND_ORDER):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.lam < 0 or self.gamma < 0:
            raise ValueError("lam and gamma must be non-negative")


def sort_columns(X: np.ndarray) -> np.ndarray:
    """The (d, n) block of row orders: row j lists the rows of X sorted by
    column j, ties in row order."""
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    return np.argsort(XT, axis=1, kind="stable")


def restrict_order(order: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sort_columns(X[rows])`` from ``order = sort_columns(X)``, for
    ascending distinct ``rows``: a stable filter keeps each column's (value,
    row) order, and the kept rows are renumbered by their position in rows."""
    position = np.full(order.shape[1], -1)
    position[rows] = np.arange(rows.size)
    kept = position.take(order)
    return kept[kept >= 0].reshape(order.shape[0], rows.size)


def fit_tree(
    X: np.ndarray,
    targets,
    config: TreeConfig,
    sample_weight: Optional[np.ndarray] = None,
    allowed_features: Optional[Sequence[int]] = None,
    order: Optional[np.ndarray] = None,
    counts: Optional[np.ndarray] = None,
) -> TreeNode:
    """Fit one tree by greedy exact best-split recursion.

    ``targets`` is a 0/1 label vector in gini mode, or a (gradient, hessian)
    pair in second_order mode. ``allowed_features`` restricts the columns the
    tree may split on (global indices); per-split feature subsampling then
    samples within that set. ``order`` is ``sort_columns(X)``, for callers
    that fit several trees on the same X; without it the tree sorts X itself.

    ``counts`` fits the tree of the sample holding row i ``counts[i]`` times:
    rows weigh their counts and node sizes count copies. Counts must be
    positive integers summing below 2**53, in gini mode with no
    ``sample_weight`` and ``min_samples_leaf`` 1 (split positions count
    distinct rows); anything else raises ValueError rather than fit a tree
    that the repeated rows would not give.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty 2-d array")
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature value")

    counted = config.criterion == GINI and sample_weight is None  # weights are ones or counts
    if config.criterion == GINI:
        y = np.asarray(targets, dtype=float)
        if not np.isfinite(y).all():
            raise ValueError("non-finite target value")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("gini targets must be 0/1 labels")
        if counts is not None:
            if sample_weight is not None or config.min_samples_leaf > 1:
                raise ValueError("counts take no sample_weight and need min_samples_leaf 1")
            counts = np.asarray(counts, dtype=float)
            if (counts.shape != y.shape or not (counts >= 1).all()
                    or (counts != np.trunc(counts)).any() or not counts.sum() < 2.0**53):
                raise ValueError("counts must be positive integers, one per row, summing below 2**53")
            sample_weight = counts
        w = np.ones(X.shape[0]) if sample_weight is None else np.asarray(sample_weight, dtype=float)
        if w.shape != y.shape or (w <= 0).any():
            raise ValueError("sample_weight must be positive and match the targets")
        # s1 = weighted positive mass, s2 = total weight.
        s1, s2 = w * y, w
    else:
        if counts is not None:
            raise ValueError("counts need gini mode")
        g, h = targets
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            raise ValueError("non-finite gradient or hessian")
        if (h < 0).any():
            raise ValueError("hessians must be non-negative")
        s1, s2 = g, h

    allowed = np.arange(X.shape[1]) if allowed_features is None else np.asarray(sorted(allowed_features), dtype=int)
    if order is None:
        order = sort_columns(X)
    elif order.shape != X.shape[::-1]:
        raise ValueError("order must be the (d, n) block of sort_columns(X)")
    if allowed_features is not None:
        order = order[allowed]
    XT = np.ascontiguousarray(X.T)
    rng = np.random.default_rng(config.seed)
    builder = _Builder(XT, s1, s2, config, allowed, rng, counted)
    return builder.build(np.arange(X.shape[0]), order, depth=0)


class _Builder:
    def __init__(self, XT, s1, s2, config: TreeConfig, allowed, rng, counted):
        self.XT = XT  # (d, n): one contiguous row per feature
        self.s1 = s1
        self.s2 = s2
        self.cfg = config
        self.allowed = allowed
        self.rng = rng
        # Gini weights of ones or counts: t2 is exactly the node's number of
        # rows (copies), and t1 == 0 or t1 == t2 says exactly that its labels
        # are all equal.
        self.counted = counted
        self.side = np.empty(XT.shape[1], dtype=bool)  # scratch: row goes left
        self.flat_x, self.n = XT.ravel(), XT.shape[1]
        self.run = np.empty(allowed.size * self.n)  # scratch: a node's sorted values, then prefix sums
        self.n_draw = 0  # features drawn per split; 0 searches every allowed one
        if config.feature_subsample_fraction < 1.0:
            self.n_draw = max(1, int(np.ceil(config.feature_subsample_fraction * allowed.size)))

    def leaf_value(self, t1: float, t2: float) -> float:
        if self.cfg.criterion == GINI:
            return t1 / t2
        return -t1 / (t2 + self.cfg.lam)

    def build(self, idx: np.ndarray, order: np.ndarray, depth: int) -> TreeNode:
        """``idx`` holds the node's rows ascending; row j of ``order`` holds
        them sorted by allowed feature j."""
        t1 = float(self.s1[idx].sum())
        t2 = float(self.s2[idx].sum())
        leaf = TreeNode.leaf(self.leaf_value(t1, t2))
        msl = self.cfg.min_samples_leaf
        size = t2 if self.counted else idx.size
        if depth >= self.cfg.max_depth or size < 2 * msl or size < 2:
            return leaf

        searched, feats = order, self.allowed
        if self.n_draw:  # positions in allowed: the stream of drawing from allowed itself
            pick = self.rng.choice(self.allowed.size, size=self.n_draw, replace=False)
            pick.sort()
            searched, feats = order[pick], self.allowed[pick]
        if self.counted and (t1 == 0.0 or t1 == t2):
            return leaf  # every gain is 0; the draw above keeps the rng stream

        best = self._best_split(searched, feats, t1, t2)
        if best is None:
            return leaf
        feature, threshold = best
        mask = self.XT[feature, idx] < threshold
        n_left = int(mask.sum())
        if n_left < msl or idx.size - n_left < msl:  # degenerate float midpoint
            return leaf
        # Stable filter: each child keeps its rows in the parent's order.
        self.side[idx] = mask
        flat = order.ravel()
        goes_left = self.side.take(flat)
        left_order = flat.compress(goes_left).reshape(-1, n_left)
        right_order = flat.compress(~goes_left).reshape(-1, idx.size - n_left)
        left = self.build(idx[mask], left_order, depth + 1)
        right = self.build(idx[~mask], right_order, depth + 1)
        return TreeNode.split(feature, threshold, left, right)

    def _best_split(self, order, feats, t1, t2):
        """Scan all candidate thresholds of all features at once.

        Returns (feature, threshold) of the maximal-gain split, or None when
        no split has positive gain. Ties resolve to the lowest feature index,
        then the lowest threshold.
        """
        cfg = self.cfg
        f, m = order.shape
        run = self.run[: f * m].reshape(f, m)
        # mode="clip" lets take write into out unbuffered; every index is in range.
        xs = self.flat_x.take(order + self.n * feats[:, None], out=run, mode="clip")  # sorted values
        # Candidate i puts sorted positions 0..i left. Gains are scored only
        # where the sorted value changes; the flat order stays feature-major.
        valid = np.zeros(order.shape, dtype=bool)
        np.greater(xs[:, 1:], xs[:, :-1], out=valid[:, :-1])
        msl = cfg.min_samples_leaf
        if msl > 1:  # with 1 nothing goes: the last position is never a candidate
            valid[:, : msl - 1] = False
            valid[:, m - msl :] = False
        cand = np.flatnonzero(valid)
        if not cand.size:
            return None
        # Each mass in sorted order, summed in place over xs. The gains are then
        # computed in place over the candidates' sums, with the same operations:
        # freed row-sized temporaries went back to the OS and were faulted in
        # again at the next node.
        al = self.s1.take(order, out=run, mode="clip").cumsum(axis=1, out=run).take(cand)
        bl = self.s2.take(order, out=run, mode="clip").cumsum(axis=1, out=run).take(cand)
        ar = t1 - al
        br = t2 - bl

        with np.errstate(divide="ignore", invalid="ignore"):
            if cfg.criterion == GINI:
                # Weighted gini impurity decrease; parent term is constant so
                # maximizing -(children impurity) is equivalent, but keep the
                # full gain for the positive-gain stopping rule.
                parent = _gini_term(t1, t2)
                tmp = np.empty_like(al)
                gain = np.subtract(parent, _gini_term(al, bl, tmp), out=al)
                gain -= _gini_term(ar, br, tmp)
                floor = 1e-12  # guard float noise on pure nodes
            else:
                # 0.5 * (al * al / (bl + lam) + ar * ar / (br + lam) - parent) - gamma
                parent = t1 * t1 / (t2 + cfg.lam)
                gain = np.multiply(al, al, out=al)
                gain /= np.add(bl, cfg.lam, out=bl)
                np.multiply(ar, ar, out=ar)
                gain += np.divide(ar, np.add(br, cfg.lam, out=br), out=ar)
                gain -= parent
                gain *= 0.5
                gain -= cfg.gamma
                floor = 0.0
        gain[~np.isfinite(gain)] = -np.inf

        k = gain.argmax()  # first maximum: lowest feature, then lowest threshold
        if not np.isfinite(gain[k]) or gain[k] <= floor:
            return None
        f, i = divmod(int(cand[k]), m)
        x = self.XT[feats[f]]  # xs[f] was overwritten
        threshold = 0.5 * (x[order[f, i]] + x[order[f, i + 1]])
        return int(feats[f]), float(threshold)


def _gini_term(s1, s2, tmp=None):
    # Weighted impurity mass: s2 * 2p(1-p) with p = s1/s2; given tmp, written over the array s1.
    if tmp is None:
        return 2.0 * s1 * (s2 - s1) / s2
    np.subtract(s2, s1, out=tmp)
    s1 *= 2.0
    s1 *= tmp
    s1 /= s2
    return s1


def predict_many(node: TreeNode, X: np.ndarray) -> np.ndarray:
    """Vectorized prediction for a matrix of rows."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    _route(node, X, np.arange(X.shape[0]), out)
    return out


def _route(node, X, idx, out):
    if not idx.size:  # no row reaches this subtree
        return
    if node.is_leaf:
        out[idx] = node.value
        return
    mask = X[idx, node.feature] < node.threshold
    _route(node.left, X, idx[mask], out)
    _route(node.right, X, idx[~mask], out)


def tree_to_dict(node: TreeNode) -> dict:
    """Serialize to a flat node list (preorder, root at index 0)."""
    nodes: list[dict] = []

    def visit(n: TreeNode) -> int:
        pos = len(nodes)
        if n.is_leaf:
            nodes.append({"value": float(n.value)})
            return pos
        entry = {"feature": int(n.feature), "threshold": float(n.threshold)}
        nodes.append(entry)
        entry["left"] = visit(n.left)
        entry["right"] = visit(n.right)
        return pos

    visit(node)
    return {"nodes": nodes}


def tree_from_dict(d: dict) -> TreeNode:
    nodes = d["nodes"]

    def build(i: int) -> TreeNode:
        nd = nodes[i]
        if "value" in nd:
            return TreeNode.leaf(nd["value"])
        return TreeNode.split(nd["feature"], nd["threshold"], build(nd["left"]), build(nd["right"]))

    return build(0)
