import numpy as np
import pytest

import pdxplain as px
from pdxplain import models, trees
from pdxplain.trees import (
    GINI,
    SECOND_ORDER,
    TreeConfig,
    TreeNode,
    fit_tree,
    predict_many,
    restrict_order,
    sort_columns,
    tree_from_dict,
    tree_to_dict,
)


def walk_serialized(doc, row):
    """Independent prediction oracle: trace the path through the serialized
    node list rather than the live tree objects."""
    nodes = doc["nodes"]
    i = 0
    while "value" not in nodes[i]:
        nd = nodes[i]
        i = nd["left"] if row[nd["feature"]] < nd["threshold"] else nd["right"]
    return nodes[i]["value"]


def leaves(node, depth=0):
    if node.is_leaf:
        yield node, depth
    else:
        yield from leaves(node.left, depth + 1)
        yield from leaves(node.right, depth + 1)


class TestGiniFit:
    def test_perfectly_separable_single_split(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(X, y, TreeConfig(max_depth=2, criterion=GINI))
        assert not tree.is_leaf
        assert tree.feature == 0
        assert tree.threshold == 0.0  # midpoint of -1 and 1
        assert tree.left.is_leaf and tree.left.value == 0.0
        assert tree.right.is_leaf and tree.right.value == 1.0

    def test_identical_targets_single_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        tree = fit_tree(X, np.ones(8), TreeConfig(max_depth=4, criterion=GINI))
        assert tree.is_leaf and tree.value == 1.0

    def test_pure_node_never_splits(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        tree = fit_tree(X, np.zeros(30), TreeConfig(max_depth=5, criterion=GINI))
        assert tree.is_leaf and tree.value == 0.0

    def test_sample_weights_shift_the_leaf(self):
        X = np.zeros((4, 1))  # no split possible
        y = np.array([1.0, 1.0, 0.0, 0.0])
        w = np.array([3.0, 1.0, 1.0, 1.0])
        tree = fit_tree(X, y, TreeConfig(criterion=GINI), sample_weight=w)
        assert tree.is_leaf
        assert tree.value == pytest.approx(4.0 / 6.0)

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(float)
        tree = fit_tree(X, y, TreeConfig(max_depth=6, min_samples_leaf=5, criterion=GINI))
        counts = []

        def count(node, idx):
            if node.is_leaf:
                counts.append(idx.size)
                return
            mask = X[idx, node.feature] < node.threshold
            count(node.left, idx[mask])
            count(node.right, idx[~mask])

        count(tree, np.arange(40))
        assert min(counts) >= 5

    def test_equal_gain_ties_break_to_lowest_feature_index(self):
        col = np.array([-2.0, -1.0, 1.0, 2.0])
        X = np.column_stack([col, col])  # identical columns, identical gains
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(X, y, TreeConfig(max_depth=1, criterion=GINI))
        assert tree.feature == 0

    def test_max_depth_respected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < 0.5).astype(float)
        tree = fit_tree(X, y, TreeConfig(max_depth=3, criterion=GINI))
        assert max(d for _, d in leaves(tree)) <= 3

    def test_every_row_contributes_to_its_leaf(self):
        """Route each training row with the fitted tree; the leaf value must
        equal the class rate of exactly the rows routed there."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(float)
        tree = fit_tree(X, y, TreeConfig(max_depth=3, criterion=GINI))
        routed: dict[int, list[int]] = {}
        for i in range(60):
            node = tree
            while not node.is_leaf:
                node = node.left if X[i, node.feature] < node.threshold else node.right
            routed.setdefault(id(node), []).append(i)
        for node, _ in leaves(tree):
            rows = routed[id(node)]
            assert node.value == pytest.approx(y[rows].mean())


class TestSecondOrderFit:
    def test_leaf_value_formula(self):
        # one unavoidable leaf: G=3, H=9, lam=1 -> -G/(H+lam) = -0.3
        X = np.zeros((3, 1))
        g = np.array([1.0, 1.0, 1.0])
        h = np.array([3.0, 3.0, 3.0])
        tree = fit_tree(X, (g, h), TreeConfig(criterion=SECOND_ORDER, lam=1.0))
        assert tree.is_leaf
        assert tree.value == pytest.approx(-0.3)

    def test_gamma_blocks_weak_splits(self):
        X = np.array([[0.0], [1.0]])
        g = np.array([0.6, -0.4])
        h = np.array([1.0, 1.0])
        free = fit_tree(X, (g, h), TreeConfig(criterion=SECOND_ORDER, lam=1.0, gamma=0.0))
        blocked = fit_tree(X, (g, h), TreeConfig(criterion=SECOND_ORDER, lam=1.0, gamma=10.0))
        assert not free.is_leaf
        assert blocked.is_leaf

    def test_split_gain_picks_the_informative_feature(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.normal(size=50), np.linspace(-1, 1, 50)])
        g = np.where(X[:, 1] > 0, 1.0, -1.0)
        h = np.ones(50)
        tree = fit_tree(X, (g, h), TreeConfig(max_depth=1, criterion=SECOND_ORDER, lam=1.0))
        assert tree.feature == 1

    def test_negative_hessian_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fit_tree(np.zeros((2, 1)), (np.ones(2), np.array([1.0, -1.0])),
                     TreeConfig(criterion=SECOND_ORDER))


class TestPredict:
    def test_leaf_constant(self):
        assert predict_many(TreeNode.leaf(0.7), np.array([[123.0]])).tolist() == [0.7]

    def test_strict_inequality_routing(self):
        tree = TreeNode.split(0, 0.0, TreeNode.leaf(-1.0), TreeNode.leaf(1.0))
        assert predict_many(tree, np.array([[-0.5]])).tolist() == [-1.0]
        assert predict_many(tree, np.array([[0.0]])).tolist() == [1.0]  # boundary goes right

    def test_matches_serialized_path_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 4))
        y = (X @ np.array([1.0, -2.0, 0.5, 0.0]) > 0).astype(float)
        tree = fit_tree(X, y, TreeConfig(max_depth=3, criterion=GINI))
        doc = tree_to_dict(tree)
        probe = rng.normal(size=(100, 4))
        got = predict_many(tree, probe)
        want = np.array([walk_serialized(doc, row) for row in probe])
        np.testing.assert_array_equal(got, want)

    def test_predict_many_equals_one_row_matrices(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(float)
        tree = fit_tree(X, y, TreeConfig(max_depth=4, criterion=GINI))
        probe = rng.normal(size=(40, 3))
        np.testing.assert_array_equal(
            predict_many(tree, probe), [predict_many(tree, r[None, :])[0] for r in probe]
        )


class TestConfigAndErrors:
    def test_nonfinite_feature_rejected(self):
        X = np.array([[np.nan], [1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            fit_tree(X, np.array([0.0, 1.0]), TreeConfig(criterion=GINI))

    def test_nonfinite_target_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit_tree(np.zeros((2, 1)), np.array([0.0, np.inf]), TreeConfig(criterion=GINI))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TreeConfig(max_depth=0)
        with pytest.raises(ValueError):
            TreeConfig(feature_subsample_fraction=0.0)
        with pytest.raises(ValueError):
            TreeConfig(criterion="entropy")

    def test_feature_subsampling_deterministic(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 6))
        y = (X[:, 2] > 0).astype(float)
        cfg = TreeConfig(max_depth=3, criterion=GINI, feature_subsample_fraction=0.5, seed=11)
        a = tree_to_dict(fit_tree(X, y, cfg))
        b = tree_to_dict(fit_tree(X, y, cfg))
        assert a == b

    def test_allowed_features_respected(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] > 0).astype(float)  # feature 0 is the informative one
        tree = fit_tree(X, y, TreeConfig(max_depth=3, criterion=GINI), allowed_features=[1, 2])

        def features_used(node):
            if node.is_leaf:
                return set()
            return {node.feature} | features_used(node.left) | features_used(node.right)

        assert features_used(tree) <= {1, 2}


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 3))
        y = (X[:, 1] > 0.2).astype(float)
        tree = fit_tree(X, y, TreeConfig(max_depth=4, criterion=GINI))
        back = tree_from_dict(tree_to_dict(tree))
        probe = rng.normal(size=(60, 3))
        np.testing.assert_array_equal(predict_many(tree, probe), predict_many(back, probe))


class PerNodeSortBuilder:
    """Split-search oracle: every node argsorts its own rows again, with no
    order shared between nodes or trees. Trees grown from the column block
    must equal its trees exactly."""

    def __init__(self, X, s1, s2, config, allowed):
        self.X, self.s1, self.s2, self.cfg, self.allowed = X, s1, s2, config, allowed
        self.rng = np.random.default_rng(config.seed)

    def build(self, idx, depth):
        cfg = self.cfg
        t1 = float(self.s1[idx].sum())
        t2 = float(self.s2[idx].sum())
        leaf = TreeNode.leaf(t1 / t2 if cfg.criterion == GINI else -t1 / (t2 + cfg.lam))
        msl = cfg.min_samples_leaf
        if depth >= cfg.max_depth or idx.size < 2 * msl or idx.size < 2:
            return leaf
        feats = self.allowed
        if cfg.feature_subsample_fraction < 1.0:
            count = max(1, int(np.ceil(cfg.feature_subsample_fraction * feats.size)))
            feats = np.sort(self.rng.choice(feats, size=count, replace=False))
        best = self.best_split(idx, feats, t1, t2)
        if best is None:
            return leaf
        feature, threshold = best
        mask = self.X[idx, feature] < threshold
        n_left = int(mask.sum())
        if n_left < msl or idx.size - n_left < msl:
            return leaf
        return TreeNode.split(feature, threshold, self.build(idx[mask], depth + 1),
                              self.build(idx[~mask], depth + 1))

    def best_split(self, idx, feats, t1, t2):
        cfg = self.cfg
        Xs = self.X[np.ix_(idx, feats)]
        m = idx.size
        order = np.argsort(Xs, axis=0, kind="stable")
        xs = np.take_along_axis(Xs, order, axis=0)
        al = np.cumsum(self.s1[idx][order], axis=0)[:-1]
        bl = np.cumsum(self.s2[idx][order], axis=0)[:-1]
        ar, br = t1 - al, t2 - bl
        valid = xs[1:] > xs[:-1]
        if cfg.min_samples_leaf > 1:
            pos = np.arange(1, m)[:, None]
            valid = valid & (pos >= cfg.min_samples_leaf) & (m - pos >= cfg.min_samples_leaf)
        with np.errstate(divide="ignore", invalid="ignore"):
            if cfg.criterion == GINI:
                gain = trees._gini_term(t1, t2) - trees._gini_term(al, bl) - trees._gini_term(ar, br)
                floor = 1e-12
            else:
                parent = t1 * t1 / (t2 + cfg.lam)
                gain = 0.5 * (al * al / (bl + cfg.lam) + ar * ar / (br + cfg.lam) - parent) - cfg.gamma
                floor = 0.0
        gain = np.where(valid & np.isfinite(gain), gain, -np.inf)
        flat = np.argmax(gain.T)
        if not np.isfinite(gain.T.flat[flat]) or gain.T.flat[flat] <= floor:
            return None
        j, i = divmod(flat, gain.shape[0])
        return int(feats[j]), float(0.5 * (xs[i, j] + xs[i + 1, j]))


def per_node_sort_fit(X, targets, config, sample_weight=None, allowed_features=None, order=None):
    """``fit_tree`` through the oracle builder; ``order`` is ignored."""
    X = np.asarray(X, dtype=float)
    if config.criterion == GINI:
        w = np.ones(X.shape[0]) if sample_weight is None else np.asarray(sample_weight, dtype=float)
        s1, s2 = w * np.asarray(targets, dtype=float), w
    else:
        s1, s2 = (np.asarray(t, dtype=float) for t in targets)
    allowed = np.arange(X.shape[1]) if allowed_features is None else np.asarray(sorted(allowed_features))
    return PerNodeSortBuilder(X, s1, s2, config, allowed).build(np.arange(X.shape[0]), 0)


def per_tree_sort_fit(X, targets, config, sample_weight=None, allowed_features=None, order=None):
    """``fit_tree`` with the shared order dropped, so each tree sorts for itself."""
    return fit_tree(X, targets, config, sample_weight=sample_weight, allowed_features=allowed_features)


def tie_heavy_data(n=400, seed=0):
    """Continuous, coarsely rounded, binary and constant columns, with a
    block of duplicated rows, so most split candidates sit inside tie groups.
    The last column mirrors the rounded one: the same splits, gains equal up
    to rounding, so a sum over a tie group in another row order can change
    which of the two wins. Gradients span sixteen decades."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.normal(size=n),
        np.round(rng.normal(size=n), 1),
        rng.integers(0, 2, size=n).astype(float),
        rng.integers(0, 4, size=n) / 3.0,
        np.zeros(n),
        rng.integers(0, 2, size=n).astype(float),
    ])
    X = np.column_stack([X, -X[:, 1]])
    X[n - 60:] = X[:60]
    y = ((X[:, 0] + X[:, 1] + X[:, 2] + rng.normal(size=n)) > 0.8).astype(float)
    g = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    h = rng.random(n) + 0.05
    return X, y, g, h


ORACLE_CASES = {
    "gini_sample_weights": (dict(max_depth=7, criterion=GINI), "y", "weights", None),
    "second_order_gamma_lam": (dict(max_depth=8, criterion=SECOND_ORDER, gamma=0.3, lam=2.5), "gh", None, None),
    "duplicates_and_binary_columns": (dict(max_depth=9, criterion=GINI), "y", None, None),
    "min_samples_leaf": (dict(max_depth=8, criterion=SECOND_ORDER, min_samples_leaf=6), "gh", None, None),
    "feature_subsample": (dict(max_depth=8, criterion=GINI, feature_subsample_fraction=0.5, seed=4), "y", None, None),
    "allowed_features": (dict(max_depth=8, criterion=SECOND_ORDER, lam=0.5), "gh", None, [6, 5, 1, 2, 4]),
}


class TestColumnBlock:
    def test_sort_columns_orders_by_value_then_row(self):
        X = tie_heavy_data()[0]
        rows = np.arange(X.shape[0])
        order = sort_columns(X)
        assert order.shape == (X.shape[1], X.shape[0])
        for j in range(X.shape[1]):
            np.testing.assert_array_equal(order[j], np.lexsort((rows, X[:, j])))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.8, 1.0])
    def test_restricted_order_is_the_order_of_the_rows(self, seed, fraction):
        """A subsampled boosting round filters the fit's one sort instead of
        sorting X[rows]: the same array for ascending distinct rows."""
        X = tie_heavy_data(seed=seed)[0]
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(X.shape[0], size=max(1, int(fraction * X.shape[0])), replace=False))
        got = restrict_order(sort_columns(X), rows)
        want = sort_columns(X[rows])
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("shared", [False, True], ids=["own_sort", "shared_block"])
    def test_equals_per_node_sort(self, case, shared):
        X, y, g, h = tie_heavy_data(seed=len(case))
        kw, targets, weights, allowed = ORACLE_CASES[case]
        targets = y if targets == "y" else (g, h)
        sample_weight = None if weights is None else np.random.default_rng(9).random(y.size) + 0.1
        cfg = TreeConfig(**kw)
        got = fit_tree(X, targets, cfg, sample_weight=sample_weight, allowed_features=allowed,
                       order=sort_columns(X) if shared else None)
        want = per_node_sort_fit(X, targets, cfg, sample_weight=sample_weight, allowed_features=allowed)
        assert tree_to_dict(got) == tree_to_dict(want)
        assert len(tree_to_dict(got)["nodes"]) > 15

    def test_order_of_another_shape_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="sort_columns"):
            fit_tree(X, np.array([0.0, 1.0, 0.0, 1.0]), TreeConfig(), order=np.zeros((4, 2), dtype=int))

    @pytest.mark.parametrize("kind, params", [
        ("gbt", {"n_estimators": 8, "max_depth": 6}),
        ("gbt", {"n_estimators": 8, "max_depth": 6, "subsample": 0.8}),
        ("gbt", {"n_estimators": 8, "max_depth": 6, "colsample_bytree": 0.6}),
        ("gbt", {"n_estimators": 8, "max_depth": 6, "subsample": 0.3, "colsample_bytree": 0.6}),
        ("adaboost", {"n_estimators": 25, "max_depth": 2}),
    ])
    @pytest.mark.parametrize("reference", [per_tree_sort_fit, per_node_sort_fit], ids=["per_tree", "per_node"])
    def test_ensemble_fits_equal_fits_that_sort_per_tree(self, kind, params, reference, monkeypatch):
        X, y, _, _ = tie_heavy_data(seed=5)
        fm = px.FeatureMatrix([f"f{j}" for j in range(X.shape[1])], X, y.astype(int),
                              [f"R{i}" for i in range(y.size)], np.full(y.size, 2010))
        got = px.fit(kind, fm, params, seed=3).parameters()
        monkeypatch.setattr(models, "fit_tree", reference)
        assert got == px.fit(kind, fm, params, seed=3).parameters()
