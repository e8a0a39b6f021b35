"""The random forest fits each tree on its distinct bootstrap rows weighted by
their counts. Its trees must equal, byte for byte, those of the loop it
replaced (``record_loops.fit_rf_repeated_rows``), which fits every tree on
the bootstrap rows repeated: with ``fit_tree`` as that loop had it, and with
the per-node sort oracle of ``test_trees``, which has no pure-node stop and
no node-size-by-count rule of its own to share a fault with."""

import json

import numpy as np
import pytest

import pdxplain as px
from pdxplain import trees
from pdxplain.trees import GINI, SECOND_ORDER, TreeConfig, fit_tree, sort_columns, tree_to_dict

import record_loops as ref
from conftest import random_matrix
from test_trees import per_node_sort_fit

REFERENCES = pytest.mark.parametrize("oracle", [False, True], ids=["fit_tree", "per_node_sort"])


def tie_heavy_panel(n=500, seed=0):
    """Rounded ratios, a binary flag and one-hot countries, with a block of
    exact duplicate X rows whose labels need not agree."""
    rng = np.random.default_rng(seed)
    countries = rng.integers(0, 4, size=n)
    X = np.column_stack([
        np.round(rng.normal(size=n), 1),
        np.round(rng.normal(size=n), 2),
        rng.integers(0, 2, size=n).astype(float),
        rng.integers(0, 5, size=n) / 4.0,
        np.eye(4)[countries],
    ])
    X[n - 80:] = X[:80]
    y = ((X[:, 0] + X[:, 2] - X[:, 4] + rng.normal(size=n)) > 0.5).astype(int)
    columns = ["r0", "r1", "flag", "r3"] + [f"country_{c}" for c in ("DE", "ES", "FR", "IT")]
    return px.FeatureMatrix(columns, X, y, [f"R{i}" for i in range(n)], np.full(n, 2010))


def reference_fit(fm, params, seed, oracle, monkeypatch):
    """The repeated-row loop's forest; ``oracle`` swaps its tree builder
    for the per-node sort oracle."""
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(ref, "fit_tree", per_node_sort_fit)
        return ref.fit_rf_repeated_rows(fm.X, fm.y, px.RFParams(**params), fm.columns, seed)


def both_fits(fm, params, seed, oracle, monkeypatch):
    """JSON of the package's forest and of the reference forest."""
    got = px.fit("rf", fm, params, seed=seed)
    want = reference_fit(fm, params, seed, oracle, monkeypatch)
    return json.dumps(got.parameters()), json.dumps(want.parameters())


@REFERENCES
@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("bootstrap_fraction", [0.3, 1.0])
@pytest.mark.parametrize("max_depth", [3, 8, 16])
def test_equals_the_repeated_row_loop(seed, bootstrap_fraction, max_depth, oracle, monkeypatch):
    fm = random_matrix(400, seed=seed, countries=2)
    params = {"n_estimators": 5, "max_depth": max_depth, "bootstrap_fraction": bootstrap_fraction}
    got, want = both_fits(fm, params, seed, oracle, monkeypatch)
    assert got == want


@REFERENCES
@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("bootstrap_fraction", [0.3, 1.0])
def test_equals_the_repeated_row_loop_on_ties(seed, bootstrap_fraction, oracle, monkeypatch):
    fm = tie_heavy_panel(seed=seed)
    params = {"n_estimators": 6, "max_depth": 16, "bootstrap_fraction": bootstrap_fraction}
    got, want = both_fits(fm, params, seed, oracle, monkeypatch)
    assert got == want
    assert len(json.loads(got)["trees"][0]["nodes"]) > 40


@REFERENCES
def test_one_row_nodes_and_pure_nodes_keep_the_feature_draws(oracle, monkeypatch):
    """The forest reaches nodes holding one distinct row with two or more
    copies, and pure nodes before an impure sibling. Both still draw their
    features, so the trees after them keep the rng stream."""
    seen = []  # (depth, distinct rows, copies, pure) of each node in preorder
    build = trees._Builder.build

    def spy(self, idx, order, depth):
        t1, t2 = self.s1[idx].sum(), self.s2[idx].sum()
        seen.append((depth, idx.size, t2, t1 == 0 or t1 == t2))
        return build(self, idx, order, depth)

    monkeypatch.setattr(trees._Builder, "build", spy)
    fm = random_matrix(60, seed=3, positive_fraction=0.4)
    params = {"n_estimators": 1, "max_depth": 16}
    model = px.fit("rf", fm, params, seed=11)
    monkeypatch.undo()
    want = reference_fit(fm, params, 11, oracle, monkeypatch)
    assert json.dumps(model.parameters()) == json.dumps(want.parameters())

    nodes = tree_to_dict(model.trees[0])["nodes"]
    assert len(seen) == len(nodes)
    assert any(size == 1 and copies >= 2 and depth < 16 for depth, size, copies, _ in seen)
    pure_then_impure = [
        nd for nd in nodes if "left" in nd
        and seen[nd["left"]][3] and seen[nd["left"]][2] >= 2 and "left" in nodes[nd["right"]]
    ]
    assert pure_then_impure


def test_counts_equal_repeated_rows():
    fm = tie_heavy_panel(seed=2)
    counts = np.random.default_rng(4).integers(1, 4, size=fm.n)
    cfg = TreeConfig(max_depth=12, criterion=GINI, feature_subsample_fraction=0.5, seed=9)
    got = fit_tree(fm.X, fm.y, cfg, order=sort_columns(fm.X), counts=counts)
    rows = np.repeat(np.arange(fm.n), counts)
    assert tree_to_dict(got) == tree_to_dict(fit_tree(fm.X[rows], fm.y[rows], cfg))


class TestCountsRefused:
    X = np.arange(8.0).reshape(4, 2)
    y = np.array([0.0, 1.0, 0.0, 1.0])

    @pytest.mark.parametrize("counts", [[1, 2.5, 1, 1], [1, 0, 1, 1], [1, np.nan, 1, 1],
                                        [1, np.inf, 1, 1], [1, 2, 1], [2.0**53, 1, 1, 1]])
    def test_counts_that_are_not_positive_integers(self, counts):
        with pytest.raises(ValueError, match="positive integers"):
            fit_tree(self.X, self.y, TreeConfig(), counts=np.array(counts))

    def test_min_samples_leaf_above_one(self):
        with pytest.raises(ValueError, match="min_samples_leaf 1"):
            fit_tree(self.X, self.y, TreeConfig(min_samples_leaf=2), counts=np.ones(4))

    def test_with_sample_weight(self):
        with pytest.raises(ValueError, match="sample_weight"):
            fit_tree(self.X, self.y, TreeConfig(), sample_weight=np.ones(4), counts=np.ones(4))

    def test_in_second_order_mode(self):
        with pytest.raises(ValueError, match="gini"):
            fit_tree(self.X, (self.y, np.ones(4)), TreeConfig(criterion=SECOND_ORDER), counts=np.ones(4))


def test_gini_targets_must_be_labels():
    with pytest.raises(ValueError, match="0/1 labels"):
        fit_tree(np.zeros((2, 1)), np.array([0.0, 0.5]), TreeConfig(criterion=GINI))
