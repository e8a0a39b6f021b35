import itertools
import math

import numpy as np
import pytest

import pdxplain as px
from pdxplain.shapley import _coalition_values, build_players

from conftest import random_matrix


class LinearStub:
    """A model whose output is literally w.x + b, so the attribution game is
    additive and has a closed-form solution."""

    def __init__(self, weights, bias, feature_names):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = bias
        self.feature_names = list(feature_names)

    def predict_proba_array(self, X):
        return X @ self.weights + self.bias


class ConstantStub:
    def __init__(self, value, feature_names):
        self.value = value
        self.feature_names = list(feature_names)

    def predict_proba_array(self, X):
        return np.full(X.shape[0], self.value)


def permutation_shapley(model, instance, config):
    """Independent oracle: average marginal contribution over every player
    ordering, using the public value function."""
    names, _ = build_players(model.feature_names, config.group_map)
    M = len(names)
    phi = np.zeros(M)
    for order in itertools.permutations(range(M)):
        coalition = []
        prev = px.value_function(model, instance, coalition, config)
        for player in order:
            coalition.append(player)
            now = px.value_function(model, instance, coalition, config)
            phi[player] += now - prev
            prev = now
    return phi / math.factorial(M)


def subset_shapley_from_values(v, M):
    """Second oracle: classic subset-weighted sum over a dict of coalition
    values keyed by frozenset."""
    fact = math.factorial
    phi = np.zeros(M)
    players = range(M)
    for i in players:
        for r in range(M):
            for S in itertools.combinations([p for p in players if p != i], r):
                w = fact(len(S)) * fact(M - len(S) - 1) / fact(M)
                phi[i] += w * (v[frozenset(S) | {i}] - v[frozenset(S)])
    return phi


def small_tree_model(seed, n_features=3):
    fm = random_matrix(90, seed=seed, columns=[f"f{i}" for i in range(n_features)], countries=0)
    fm.X[:, 0] += 1.5 * (2 * fm.y - 1)
    return px.fit("gbt", fm, {"n_estimators": 8, "max_depth": 3}, seed=seed), fm


class TestValueFunction:
    def test_empty_coalition_is_base_value(self):
        model, fm = small_tree_model(0)
        cfg = px.AttributionConfig(background=fm.X[:20])
        v0 = px.value_function(model, fm.X[30], [], cfg)
        base = px.predict_proba(model, fm.X[:20]).mean()
        assert v0 == pytest.approx(base, abs=1e-12)

    def test_full_coalition_is_model_output(self):
        model, fm = small_tree_model(1)
        cfg = px.AttributionConfig(background=fm.X[:20])
        v_full = px.value_function(model, fm.X[30], list(range(3)), cfg)
        fx = px.predict_proba(model, fm.X[30:31])[0]
        assert v_full == pytest.approx(fx, abs=1e-12)

    def test_constant_model(self):
        model = ConstantStub(0.37, ["a", "b"])
        cfg = px.AttributionConfig(background=np.zeros((5, 2)))
        for S in ([], [0], [1], [0, 1]):
            assert px.value_function(model, np.ones(2), S, cfg) == pytest.approx(0.37)
        phi = px.shapley_values(model, np.ones(2), cfg)
        np.testing.assert_allclose(phi, 0.0, atol=1e-15)


class TestAxioms:
    def test_linear_closed_form_single_background_row(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            d = 6
            w = rng.normal(scale=0.05, size=d)
            model = LinearStub(w, 0.4, [f"f{i}" for i in range(d)])
            x = rng.normal(size=d)
            r = rng.normal(size=d)
            cfg = px.AttributionConfig(background=r.reshape(1, -1))
            phi = px.shapley_values(model, x, cfg)
            np.testing.assert_allclose(phi, w * (x - r), atol=1e-9)

    def test_dummy_player_is_zero(self):
        model, fm = small_tree_model(3)
        X = np.column_stack([fm.X, np.zeros(fm.n)])  # constant -> never split
        fm2 = px.FeatureMatrix(fm.columns + ["noise"], X, fm.y, fm.company_ids, fm.years)
        model2 = px.fit("gbt", fm2, {"n_estimators": 8, "max_depth": 3}, seed=3)
        cfg = px.AttributionConfig(background=fm2.X[:15])
        phi = px.shapley_values(model2, fm2.X[40], cfg)
        assert abs(phi[-1]) < 1e-12

    def test_symmetry_of_duplicated_columns(self):
        rng = np.random.default_rng(4)

        class SumStub:
            feature_names = ["a", "b", "c"]

            def predict_proba_array(self, X):
                return 0.1 * (X[:, 0] + X[:, 1]) + 0.03 * X[:, 2] ** 2

        bg = rng.normal(size=(8, 3))
        bg[:, 1] = bg[:, 0]  # background treats a and b identically
        x = rng.normal(size=3)
        x[1] = x[0]
        phi = px.shapley_values(SumStub(), x, px.AttributionConfig(background=bg))
        assert abs(phi[0] - phi[1]) < 1e-9

    def test_three_player_permutation_oracle(self):
        for seed in range(4):
            model, fm = small_tree_model(seed + 10)
            cfg = px.AttributionConfig(background=fm.X[:12])
            x = fm.X[50]
            phi = px.shapley_values(model, x, cfg)
            oracle = permutation_shapley(model, x, cfg)
            np.testing.assert_allclose(phi, oracle, atol=1e-10)

    def test_efficiency(self):
        model, fm = small_tree_model(20, n_features=4)
        cfg = px.AttributionConfig(background=fm.X[:25])
        base = px.predict_proba(model, fm.X[:25]).mean()
        for i in (40, 41, 42):
            phi = px.shapley_values(model, fm.X[i], cfg)
            fx = px.predict_proba(model, fm.X[i : i + 1])[0]
            assert abs(phi.sum() - (fx - base)) < 1e-9


class TestCoalitionValues:
    @pytest.mark.parametrize("kind, params", [
        ("gbt", {"n_estimators": 12, "max_depth": 4}),
        ("rf", {"n_estimators": 6, "max_depth": 5}),
        ("lr", None),
    ])
    def test_column_major_rows_equal_value_function(self, kind, params):
        """The batched hybrid rows give every coalition the value of the
        row-by-row value function."""
        fm = random_matrix(150, seed=11, columns=["f0", "f1", "f2", "country_FR", "country_GB", "country_BE"])
        fm.X[:, 1] += 1.5 * (2 * fm.y - 1)
        model = px.fit(kind, fm, params, seed=2)
        cfg = px.AttributionConfig(background=fm.X[:30], group_map=px.group_countries(fm.columns))
        names, members = build_players(fm.columns, cfg.group_map)
        x = fm.X[77]
        v = _coalition_values(model, x, members, cfg.background)
        want = [
            px.value_function(model, x, [i for i in range(len(names)) if code >> i & 1], cfg)
            for code in range(2 ** len(names))
        ]
        assert np.max(np.abs(v - want)) <= 1e-15


class TestGrouping:
    def test_group_countries_builds_one_player(self):
        cols = ["r1", "r2", "country_FR", "country_GB", "country_BE"]
        names, members = build_players(cols, px.group_countries(cols))
        assert names == ["r1", "r2", "country_code"]
        np.testing.assert_array_equal(members[2], [2, 3, 4])

    def test_grouped_game_matches_subset_oracle(self):
        fm = random_matrix(80, seed=6, columns=["f0", "f1", "country_FR", "country_GB"])
        fm.X[:, 0] += 1.2 * (2 * fm.y - 1)
        model = px.fit("gbt", fm, {"n_estimators": 6, "max_depth": 3}, seed=6)
        group_map = {"country_code": ["country_FR", "country_GB"]}
        cfg = px.AttributionConfig(background=fm.X[:10], group_map=group_map)
        x = fm.X[30]
        phi = px.shapley_values(model, x, cfg)

        M = 3  # f0, f1, country_code
        v = {}
        for r in range(M + 1):
            for S in itertools.combinations(range(M), r):
                v[frozenset(S)] = px.value_function(model, x, list(S), cfg)
        np.testing.assert_allclose(phi, subset_shapley_from_values(v, M), atol=1e-10)

    def test_max_features_guard(self):
        model = LinearStub(np.zeros(5), 0.5, [f"f{i}" for i in range(5)])
        cfg = px.AttributionConfig(background=np.zeros((3, 5)), max_features=3)
        with pytest.raises(ValueError, match="group"):
            px.shapley_values(model, np.zeros(5), cfg)


class TestReport:
    def test_single_instance_importance_is_abs_phi(self):
        model, fm = small_tree_model(7)
        cfg = px.AttributionConfig(background=fm.X[:15])
        report = px.global_importance(model, fm.X[40:41], cfg)
        phi = px.shapley_values(model, fm.X[40], cfg)
        np.testing.assert_allclose(report.global_importance, np.abs(phi))

    def test_opposite_attributions_average_by_magnitude(self):
        report = px.AttributionReport(
            players=["a", "b"],
            base_value=0.5,
            phi=np.array([[0.3, 0.1], [-0.3, 0.1]]),
            predictions=np.array([0.8, 0.2]),
        )
        np.testing.assert_allclose(report.global_importance, [0.3, 0.1])

    def test_dominant_feature_ranks_first(self):
        d = 4
        model = LinearStub([0.0, 0.0, 0.08, 0.0], 0.3, [f"f{i}" for i in range(d)])
        rng = np.random.default_rng(8)
        bg = rng.normal(size=(20, d))
        inst = rng.normal(size=(6, d))
        cfg = px.AttributionConfig(background=bg)
        report = px.global_importance(model, inst, cfg)
        assert report.ranking[0] == "f2"
        for p in ("f0", "f1", "f3"):
            assert report.importance_by_player()[p] < 1e-12

    def test_ranking_tie_breaks_by_name(self):
        report = px.AttributionReport(
            players=["zeta", "alpha"],
            base_value=0.0,
            phi=np.array([[0.2, 0.2]]),
            predictions=np.array([0.4]),
        )
        assert report.ranking == ["alpha", "zeta"]

    def test_save_load_round_trip(self, tmp_path):
        model, fm = small_tree_model(9)
        cfg = px.AttributionConfig(background=fm.X[:10])
        report = px.global_importance(model, fm.X[40:43], cfg)
        path = tmp_path / "attr.json"
        report.save(path)
        back = px.AttributionReport.load(path)
        assert back.players == report.players
        np.testing.assert_allclose(back.phi, report.phi)
        assert back.ranking == report.ranking

    def test_background_mismatch_rejected(self):
        model = LinearStub(np.zeros(3), 0.5, ["a", "b", "c"])
        cfg = px.AttributionConfig(background=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="background"):
            px.shapley_values(model, np.zeros(3), cfg)
