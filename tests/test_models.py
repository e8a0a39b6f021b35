import json
import re
from pathlib import Path

import numpy as np
import pytest

import pdxplain as px
from pdxplain.models import (
    LINKS,
    MODEL_KINDS,
    LogisticRegressionModel,
    TreeEnsembleModel,
    logistic_loss,
    lr_gradient,
    sigmoid,
)
from pdxplain.trees import TreeNode, predict_many

from conftest import random_matrix


def finite_difference_gradient(w, b, X, y, l2, eps=1e-6):
    """Central finite differences of the regularized logistic loss."""

    def loss(wv, bv):
        return logistic_loss(X @ wv + bv, y, weights=wv, l2=l2)

    gw = np.zeros_like(w)
    for j in range(w.size):
        up, down = w.copy(), w.copy()
        up[j] += eps
        down[j] -= eps
        gw[j] = (loss(up, b) - loss(down, b)) / (2 * eps)
    gb = (loss(w, b + eps) - loss(w, b - eps)) / (2 * eps)
    return gw, gb


class TestLogisticRegression:
    def test_separable_data_fits_perfectly(self):
        rng = np.random.default_rng(0)
        fm = random_matrix(80, seed=0, countries=0)
        fm.X[:, 0] = np.where(fm.y == 1, 1.0, -1.0) + 0.1 * rng.normal(size=80)
        model = px.fit("lr", fm, {"epochs": 800, "learning_rate": 1.0, "l2": 0.0})
        assert (px.classify(model, fm) == fm.y).mean() == 1.0

    def test_zero_weights_give_half(self):
        model = LogisticRegressionModel(np.zeros(3), 0.0, px.LRParams(), ["a", "b", "c"])
        np.testing.assert_array_equal(model.predict_proba_array(np.ones((4, 3))), 0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            n, d = 12, 4
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = 0.1
            gw, gb = lr_gradient(w, b, X, y, l2)
            fw, fb = finite_difference_gradient(w, b, X, y, l2)
            assert np.abs(gw - fw).max() / max(np.abs(fw).max(), 1e-12) < 1e-5
            assert abs(gb - fb) / max(abs(fb), 1e-12) < 1e-5

    def test_probabilities_do_not_depend_on_memory_layout(self):
        fm = random_matrix(2000, seed=3)
        model = px.fit("lr", fm, {"epochs": 50})
        np.testing.assert_array_equal(
            model.predict_proba_array(np.asfortranarray(fm.X)), model.predict_proba_array(fm.X)
        )

    def test_divergence_raises_with_epoch(self):
        fm = random_matrix(30, seed=2, countries=0)
        with pytest.raises(ValueError, match="epoch"):
            px.fit("lr", fm, {"learning_rate": 1e6, "l2": 1.0, "epochs": 400})


class TestAdaBoost:
    def test_reduces_training_error(self):
        fm = random_matrix(150, seed=3, countries=0)
        fm.X[:, 0] += 2.5 * (2 * fm.y - 1)
        fm.X[:, 1] -= 1.5 * (2 * fm.y - 1)
        boosted = px.fit("adaboost", fm, {"n_estimators": 25})
        single = px.fit("adaboost", fm, {"n_estimators": 1})
        err_boosted = (px.classify(boosted, fm) != fm.y).mean()
        err_single = (px.classify(single, fm) != fm.y).mean()
        assert err_boosted <= err_single

    def test_probabilities_bounded(self):
        fm = random_matrix(100, seed=4)
        model = px.fit("adaboost", fm, {"n_estimators": 15})
        p = px.predict_proba(model, fm)
        assert (p >= 0).all() and (p <= 1).all()


class TestRandomForest:
    def test_average_of_tree_outputs(self):
        trees = [TreeNode.leaf(0.2), TreeNode.leaf(0.4), TreeNode.leaf(0.6)]
        model = TreeEnsembleModel("rf", trees, np.ones(3), 0.0, px.RFParams(n_estimators=3), ["a"])
        np.testing.assert_allclose(model.predict_proba_array(np.zeros((2, 1))), 0.4)

    def test_invariant_to_tree_order(self):
        fm = random_matrix(120, seed=5)
        model = px.fit("rf", fm, {"n_estimators": 12, "max_depth": 4}, seed=1)
        shuffled = TreeEnsembleModel(
            "rf", model.trees[::-1], model.weights, 0.0, model.params, model.feature_names
        )
        np.testing.assert_allclose(
            model.predict_proba_array(fm.X), shuffled.predict_proba_array(fm.X)
        )

    def test_seed_reproducibility(self):
        fm = random_matrix(100, seed=6)
        a = px.fit("rf", fm, {"n_estimators": 8, "max_depth": 4}, seed=3)
        b = px.fit("rf", fm, {"n_estimators": 8, "max_depth": 4}, seed=3)
        np.testing.assert_array_equal(a.predict_proba_array(fm.X), b.predict_proba_array(fm.X))


class TestGradientBoosting:
    def test_zero_trees_predict_the_prior(self):
        fm = random_matrix(60, seed=7, positive_fraction=0.25)
        model = px.fit("gbt", fm, {"n_estimators": 0})
        p_bar = fm.y.mean()
        expect = 1.0 / (1.0 + np.exp(-np.log(p_bar / (1 - p_bar))))
        np.testing.assert_allclose(px.predict_proba(model, fm), expect)

    def test_balanced_labels_one_leaf_round_keeps_half(self):
        # identical features force a single leaf; at p=0.5 the gradients
        # cancel (G=0), so the leaf is 0 and probabilities stay 0.5
        fm = px.FeatureMatrix(
            columns=["f0"],
            X=np.zeros((4, 1)),
            y=np.array([1, 1, 0, 0]),
            company_ids=list("abcd"),
            years=np.full(4, 2010),
        )
        model = px.fit("gbt", fm, {"n_estimators": 1, "lam": 1.0})
        assert model.trees[0].is_leaf and model.trees[0].value == 0.0
        np.testing.assert_array_equal(px.predict_proba(model, fm), 0.5)

    def test_sigmoid_value(self):
        model = TreeEnsembleModel("gbt", [], [], -1.0986, px.GBTParams(n_estimators=0), ["a"])
        p = model.predict_proba_array(np.zeros((1, 1)))[0]
        assert abs(p - 0.25) < 1e-4

    def test_training_loss_non_increasing(self):
        for seed in (0, 1):
            fm = random_matrix(150, seed=10 + seed)
            fm.X[:, 0] += 1.5 * (2 * fm.y - 1)
            model = px.fit(
                "gbt", fm, {"n_estimators": 30, "max_depth": 3, "subsample": 1.0, "colsample_bytree": 1.0}
            )
            losses = np.array(model.training_loss)
            assert (np.diff(losses) <= 0).all()

    def test_seed_reproducibility_with_subsampling(self):
        fm = random_matrix(150, seed=12)
        spec = {"n_estimators": 10, "max_depth": 3, "subsample": 0.7, "colsample_bytree": 0.8}
        a = px.fit("gbt", fm, spec, seed=5)
        b = px.fit("gbt", fm, spec, seed=5)
        np.testing.assert_array_equal(a.predict_proba_array(fm.X), b.predict_proba_array(fm.X))


class TestCommonInterface:
    def test_single_class_labels_rejected(self):
        fm = random_matrix(30, seed=13, positive_fraction=0.0)
        for kind in MODEL_KINDS:
            with pytest.raises(ValueError, match="single class"):
                px.fit(kind, fm)

    def test_classify_boundary_inclusive(self):
        model = LogisticRegressionModel(np.zeros(2), 0.0, px.LRParams(), ["a", "b"])
        fm = random_matrix(5, seed=14, columns=["a", "b"], countries=0)
        assert (px.classify(model, fm, threshold=0.5) == 1).all()  # p = 0.5 exactly

    def test_classify_below_boundary(self):
        model = LogisticRegressionModel(np.zeros(2), -0.05, px.LRParams(), ["a", "b"])
        fm = random_matrix(5, seed=15, columns=["a", "b"], countries=0)
        fm.X[:] = 0.0
        assert (px.classify(model, fm, threshold=0.5) == 0).all()  # p ~ 0.4875

    def test_threshold_monotonicity(self):
        fm = random_matrix(60, seed=16)
        model = px.fit("gbt", fm, {"n_estimators": 10, "max_depth": 3})
        low = px.classify(model, fm, threshold=0.3)
        high = px.classify(model, fm, threshold=0.7)
        assert (high <= low).all()  # raising the threshold never flips 0 -> 1

    def test_threshold_out_of_range(self):
        model = LogisticRegressionModel(np.zeros(1), 0.0, px.LRParams(), ["a"])
        with pytest.raises(ValueError, match="threshold"):
            px.classify(model, np.zeros((1, 1)), threshold=1.2)

    def test_column_mismatch_rejected(self):
        fm = random_matrix(20, seed=17)
        model = px.fit("gbt", fm, {"n_estimators": 3, "max_depth": 2})
        other = random_matrix(20, seed=17)
        other.columns = ["x" + c for c in other.columns]
        with pytest.raises(ValueError, match="do not match"):
            px.predict_proba(model, other)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            px.fit("svm", random_matrix(10, seed=18))


class TestPersistence:
    @pytest.mark.parametrize("kind,params", [
        ("lr", {"epochs": 50}),
        ("adaboost", {"n_estimators": 5}),
        ("rf", {"n_estimators": 5, "max_depth": 3}),
        ("gbt", {"n_estimators": 5, "max_depth": 3}),
    ])
    def test_save_load_round_trip(self, tmp_path, kind, params):
        fm = random_matrix(80, seed=19)
        model = px.fit(kind, fm, params, seed=2)
        path = tmp_path / f"{kind}.json"
        px.save_model(model, path)
        back = px.load_model(path)
        np.testing.assert_array_equal(
            model.predict_proba_array(fm.X), back.predict_proba_array(fm.X)
        )
        assert back.feature_names == model.feature_names

    def test_same_seed_identical_artifacts(self, tmp_path):
        fm = random_matrix(80, seed=20)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        px.save_model(px.fit("gbt", fm, {"n_estimators": 6, "subsample": 0.8}, seed=9), p1)
        px.save_model(px.fit("gbt", fm, {"n_estimators": 6, "subsample": 0.8}, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()


def leaf_values(node: TreeNode) -> list[float]:
    return [node.value] if node.is_leaf else leaf_values(node.left) + leaf_values(node.right)


class TestTreeEnsembleForm:
    """Every ensemble predicts link(base + sum_t w_t * tree_t(x))."""

    def test_forest_is_the_mean_of_its_trees(self):
        fm = random_matrix(120, seed=30)
        model = px.fit("rf", fm, {"n_estimators": 6, "max_depth": 4}, seed=2)
        acc = np.zeros(fm.n)
        for tree in model.trees:
            acc += predict_many(tree, fm.X)
        np.testing.assert_array_equal(model.predict_proba_array(fm.X), acc / len(model.trees))

    def test_boosting_is_the_sigmoid_of_the_shrunk_sum(self):
        fm = random_matrix(120, seed=31)
        model = px.fit("gbt", fm, {"n_estimators": 8, "max_depth": 3})
        F = np.full(fm.n, model.base)
        for tree in model.trees:
            F += model.params.learning_rate * predict_many(tree, fm.X)
        np.testing.assert_array_equal(model.predict_proba_array(fm.X), sigmoid(F))

    def test_adaboost_is_the_alpha_weighted_vote_share(self):
        fm = random_matrix(150, seed=32, countries=0)
        fm.X[:, 0] += 1.5 * (2 * fm.y - 1)
        model = px.fit("adaboost", fm, {"n_estimators": 10})
        assert model.trees
        for stump in model.trees:
            assert set(leaf_values(stump)) <= {-1.0, 1.0}
        F = np.zeros(fm.n)
        for stump, alpha in zip(model.trees, model.weights):
            F += alpha * predict_many(stump, fm.X)
        expect = 0.5 * (1.0 + F / model.weights.sum())
        np.testing.assert_array_equal(model.predict_proba_array(fm.X), expect)

    def test_adaboost_without_stumps_predicts_half(self):
        model = TreeEnsembleModel("adaboost", [], [], 0.0, px.AdaBoostParams(), ["a"])
        np.testing.assert_array_equal(model.predict_proba_array(np.zeros((3, 1))), 0.5)

    @pytest.mark.parametrize("kind,weights", [
        ("adaboost", [0.7, 1.3, 0.4]),
        ("adaboost", []),
        ("rf", [1.0, 1.0, 1.0]),
        ("gbt", [0.1, 0.1, 0.1]),
    ])
    def test_links_keep_the_shape_of_the_score(self, kind, weights):
        """A table of scores, one row per background row, maps row by row to
        the probabilities of the 1-d link."""
        weights = np.asarray(weights, dtype=float)
        F = np.random.default_rng(34).normal(size=(3, 8))
        P = LINKS[kind](F, weights)
        assert P.shape == F.shape
        for row, probs in zip(F, P):
            np.testing.assert_array_equal(probs, LINKS[kind](row, weights))
        if not weights.size:
            np.testing.assert_array_equal(P, 0.5)

    @pytest.mark.parametrize("kind,old", [
        ("adaboost", lambda p: {"alphas": p["weights"], "trees": p["trees"]}),
        ("rf", lambda p: {"trees": p["trees"]}),
        ("gbt", lambda p: {"base_score": p["base"], "trees": p["trees"], "training_loss": p["training_loss"]}),
    ])
    def test_old_model_file_rejected(self, tmp_path, kind, old):
        path = tmp_path / "model.json"
        px.save_model(px.fit(kind, random_matrix(60, seed=33), {"n_estimators": 3}), path)
        doc = json.loads(path.read_text())
        doc["parameters"] = old(doc["parameters"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="older"):
            px.load_model(path)

    def test_pyproject_version_is_the_package_version(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "([^"]+)"', text, re.M).group(1) == px.__version__


def test_sigmoid_extremes_are_finite():
    z = np.array([-1e9, -50.0, 0.0, 50.0, 1e9])
    p = sigmoid(z)
    assert np.isfinite(p).all()
    assert p[0] < 1e-200 and p[-1] == 1.0 and p[2] == 0.5
