import itertools
import math

import numpy as np
import pytest

import pdxplain as px
from pdxplain import shapley
from pdxplain.models import TreeEnsembleModel
from pdxplain.shapley import _coalition_values, _shapley_from_values, _TreeGame, build_players
from pdxplain.trees import TreeNode

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


split, leaf = TreeNode.split, TreeNode.leaf


def assert_structure_matches_enumerator(model, cfg, instances, tol=1e-13):
    """Coalition values read from the trees equal the enumerator's and the
    value function's on every coalition, and the Shapley vector equals the
    enumerator's values put through the Shapley formula."""
    names, members = build_players(model.feature_names, cfg.group_map)
    M = len(names)
    game = _TreeGame(model, members, cfg.background)
    for x in instances:
        v = game(x)
        enumerated = _coalition_values(model, x, members, cfg.background)
        assert np.max(np.abs(v - enumerated)) <= tol
        direct = [px.value_function(model, x, [i for i in range(M) if code >> i & 1], cfg) for code in range(2**M)]
        assert np.max(np.abs(v - direct)) <= tol
        phi = px.shapley_values(model, x, cfg)
        assert np.max(np.abs(phi - _shapley_from_values(enumerated, M))) <= tol


def country_matrix(seed):
    fm = random_matrix(150, seed=seed, columns=["f0", "f1", "f2", "country_FR", "country_GB", "country_BE"])
    fm.X[:, 1] += 1.5 * (2 * fm.y - 1)
    return fm


class TestTreeStructure:
    """Tree ensembles are explained from their trees; the enumerator of
    hybrid rows is the oracle."""

    @pytest.mark.parametrize("kind, params", [
        ("gbt", {"n_estimators": 12, "max_depth": 4}),
        ("gbt", {"n_estimators": 12, "max_depth": 4, "subsample": 0.8, "colsample_bytree": 0.6}),
        ("rf", {"n_estimators": 6, "max_depth": 5}),
        ("adaboost", {"n_estimators": 15}),
    ])
    def test_fitted_ensembles_match_the_enumerator(self, kind, params):
        fm = country_matrix(11)
        model = px.fit(kind, fm, params, seed=2)
        cfg = px.AttributionConfig(background=fm.X[:30], group_map=px.group_countries(fm.columns))
        assert_structure_matches_enumerator(model, cfg, fm.X[[77, 100, 149]])

    def test_country_player_split_on_two_columns_along_one_path(self):
        names = ["f0", "country_FR", "country_GB", "country_BE"]
        tree = split(1, 0.5,
                     split(2, 0.5, leaf(0.3), leaf(-0.7)),
                     split(0, 0.0, leaf(1.1), split(3, 0.5, leaf(-0.2), leaf(0.6))))
        model = TreeEnsembleModel("gbt", [tree, split(0, 0.5, leaf(0.4), leaf(-0.1))], [0.5, 1.0], 0.1,
                                  px.GBTParams(), names)
        onehot = np.eye(3)[[0, 1, 2, 0, 1, 2]]
        rows = np.column_stack([[-1.0, -1.0, 0.2, 0.7, 1.0, -0.3], onehot])
        cfg = px.AttributionConfig(background=rows, group_map={"country_code": names[1:]})
        assert_structure_matches_enumerator(model, cfg, rows)

    def test_feature_split_twice_on_one_path(self):
        """f0 is split at 0, and again at -0.5 on the left and at 1 on the
        right; the grid puts x and z on either side of each split, in both
        directions."""
        tree = split(0, 0.0,
                     split(0, -0.5, leaf(0.9), split(1, 0.0, leaf(-0.3), leaf(0.2))),
                     split(0, 1.0, split(1, 0.5, leaf(0.5), leaf(-0.8)), leaf(1.3)))
        model = TreeEnsembleModel("rf", [tree, split(1, 0.0, leaf(0.25), leaf(0.75))], [1.0, 1.0], 0.0,
                                  px.RFParams(), ["f0", "f1", "f2"])
        grid = np.array([[a, b, 0.0] for a in (-1.0, -0.25, 0.5, 2.0) for b in (-1.0, 1.0)])
        cfg = px.AttributionConfig(background=grid)
        assert_structure_matches_enumerator(model, cfg, grid)

    def test_adaboost_without_stumps_has_zero_attributions(self):
        model = TreeEnsembleModel("adaboost", [], [], 0.0, px.AdaBoostParams(), ["a", "b", "c"])
        bg = np.random.default_rng(40).normal(size=(5, 3))
        cfg = px.AttributionConfig(background=bg)
        assert_structure_matches_enumerator(model, cfg, bg[:2] + 1.0)
        np.testing.assert_array_equal(px.shapley_values(model, np.ones(3), cfg), 0.0)

    def test_single_background_row(self):
        fm = country_matrix(12)
        model = px.fit("gbt", fm, {"n_estimators": 10, "max_depth": 4}, seed=3)
        cfg = px.AttributionConfig(background=fm.X[5:6], group_map=px.group_countries(fm.columns))
        assert_structure_matches_enumerator(model, cfg, fm.X[[5, 60, 61]])

    def test_instance_equal_to_a_background_row(self):
        fm = country_matrix(13)
        model = px.fit("rf", fm, {"n_estimators": 5, "max_depth": 5}, seed=4)
        cfg = px.AttributionConfig(background=fm.X[:12], group_map=px.group_countries(fm.columns))
        assert_structure_matches_enumerator(model, cfg, fm.X[[3, 11]])

    def test_global_importance_stacks_shapley_values(self):
        fm = country_matrix(14)
        model = px.fit("adaboost", fm, {"n_estimators": 12}, seed=5)
        cfg = px.AttributionConfig(background=fm.X[:20], group_map=px.group_countries(fm.columns))
        report = px.global_importance(model, fm.X[40:44], cfg)
        np.testing.assert_array_equal(report.phi, np.stack([px.shapley_values(model, x, cfg) for x in fm.X[40:44]]))


def wide_model(n_players, seed):
    fm = random_matrix(200, seed=seed, columns=[f"f{i}" for i in range(n_players)], countries=0)
    fm.X[:, :4] += 0.8 * (2 * fm.y[:, None] - 1)
    return px.fit("gbt", fm, {"n_estimators": 8, "max_depth": 3}, seed=seed), fm


def sampled_coalitions_match(model, cfg, x, count, seed):
    M = len(model.feature_names)
    v = _TreeGame(model, build_players(model.feature_names)[1], cfg.background)(x)
    rng = np.random.default_rng(seed)
    codes = [0, 2**M - 1] + list(rng.integers(0, 2**M, size=count))
    for code in codes:
        want = px.value_function(model, x, [i for i in range(M) if code >> i & 1], cfg)
        assert abs(v[code] - want) <= 1e-13


class TestScratchBound:
    def test_sixteen_players_three_background_rows(self):
        model, fm = wide_model(16, seed=41)
        cfg = px.AttributionConfig(background=fm.X[:3])
        sampled_coalitions_match(model, cfg, fm.X[50], 60, seed=1)

    def test_twenty_players_chunk_the_background(self):
        """At max_features 20 a background row's table has 2^20 entries, so
        three rows make a chunk."""
        model, fm = wide_model(20, seed=42)
        cfg = px.AttributionConfig(background=fm.X[:4])
        game = _TreeGame(model, build_players(model.feature_names)[1], cfg.background)
        assert [z.shape[0] for z in game.z_left] == [3, 1]
        sampled_coalitions_match(model, cfg, fm.X[60], 20, seed=2)

    def test_chunks_stay_within_the_cap(self, monkeypatch):
        """With the cap lowered to one background row's table, every row is
        its own chunk, no chunk of expanded cells exceeds the cap, and the
        values are unchanged."""
        model, fm = wide_model(16, seed=43)
        cfg = px.AttributionConfig(background=fm.X[:5])
        members = build_players(model.feature_names)[1]
        x = fm.X[70]
        want = _TreeGame(model, members, cfg.background)(x)

        cap = 2**16
        monkeypatch.setattr(shapley, "SCRATCH_ELEMENTS", cap)
        sizes = []
        expand = shapley._expand

        def recorded(key, B, val, M):
            terms = 0
            for k, v in expand(key, B, val, M):
                sizes.append(k.size)
                terms += k.size
                yield k, v
            assert terms == int(np.sum(2 ** sum((B >> i) & 1 for i in range(M))))

        monkeypatch.setattr(shapley, "_expand", recorded)
        game = _TreeGame(model, members, cfg.background)
        assert len(game.z_left) == 5
        got = game(x)
        assert max(sizes) <= cap
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_expansion_splits_between_whole_cells(self, monkeypatch):
        monkeypatch.setattr(shapley, "SCRATCH_ELEMENTS", 8_192)
        rng = np.random.default_rng(44)
        B = rng.integers(0, 2**12, size=300)
        key = rng.integers(0, 2**12, size=300) & ~B
        val = rng.normal(size=300)
        chunks = list(shapley._expand(key, B, val, 12))
        assert len(chunks) > 1
        assert max(k.size for k, _ in chunks) <= 8_192
        got = sum(np.bincount(k, weights=v, minlength=2**12) for k, v in chunks)
        want = np.zeros(2**12)
        for k0, b0, v0 in zip(key, B, val):
            on = [i for i in range(12) if b0 >> i & 1]
            for r in range(len(on) + 1):
                for C in itertools.combinations(on, r):
                    want[k0 | sum(1 << i for i in C)] += (-1) ** r * v0
        np.testing.assert_allclose(got, want, atol=1e-12)


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
