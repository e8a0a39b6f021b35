import numpy as np
import pytest

import pdxplain as px

from conftest import random_matrix


def brute_force_knn(X, i, k):
    """Independent neighbor oracle: plain double-loop distances, ties by
    ascending row index."""
    d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
    order = sorted(range(len(X)), key=lambda j: (d[j], j))
    return [j for j in order if j != i][:k]


class TestCounts:
    def test_count_arithmetic(self):
        # 10 minority / 1000 majority at ratio 0.5 -> floor(500) - 10 = 490
        fm = random_matrix(1010, seed=0, positive_fraction=0.0)
        fm.y[:10] = 1
        result = px.resample(fm, px.SmoteConfig(k=3, target_ratio=0.5, seed=1))
        assert result.parents.shape[0] == 490
        assert int(result.data.y.sum()) == 500
        assert int((result.data.y == 0).sum()) == 1000

    def test_target_already_met_returns_input(self):
        fm = random_matrix(100, seed=1, positive_fraction=0.6)
        result = px.resample(fm, px.SmoteConfig(k=3, target_ratio=0.5, seed=1))
        assert result.parents.shape == (0, 2)
        np.testing.assert_array_equal(result.data.X, fm.X)

    def test_minority_not_larger_than_k_rejected(self):
        fm = random_matrix(200, seed=2, positive_fraction=0.0)
        fm.y[:4] = 1
        with pytest.raises(ValueError, match="smaller"):
            px.resample(fm, px.SmoteConfig(k=10, target_ratio=0.5, seed=0))


class TestGeometry:
    def test_duplicated_minority_point_reproduces_itself(self):
        fm = random_matrix(60, seed=3, positive_fraction=0.0)
        fm.y[:8] = 1
        fm.X[:8] = 1.25  # eight coincident minority points
        result = px.resample(fm, px.SmoteConfig(k=3, target_ratio=0.5, seed=4))
        synth = result.data.X[fm.n :]
        np.testing.assert_allclose(synth, 1.25)

    def test_synthetic_points_on_parent_segments(self):
        for seed in range(10):
            fm = random_matrix(150, seed=seed, positive_fraction=0.0)
            n_min = 12
            fm.y[:n_min] = 1
            result = px.resample(fm, px.SmoteConfig(k=4, target_ratio=0.4, seed=seed))
            synth = result.data.X[fm.n :]
            for s, (a, b) in zip(synth, result.parents):
                lo = np.minimum(fm.X[a], fm.X[b]) - 1e-12
                hi = np.maximum(fm.X[a], fm.X[b]) + 1e-12
                assert ((s >= lo) & (s <= hi)).all()

    def test_recorded_neighbors_are_true_neighbors(self):
        fm = random_matrix(80, seed=5, positive_fraction=0.0)
        fm.y[:15] = 1
        k = 4
        result = px.resample(fm, px.SmoteConfig(k=k, target_ratio=0.5, seed=6))
        min_rows = np.flatnonzero(fm.y == 1)
        local = {g: i for i, g in enumerate(min_rows)}
        X_min = fm.X[min_rows]
        for a, b in result.parents:
            assert local[b] in brute_force_knn(X_min, local[a], k)

    def test_blocked_neighbors_match_one_shot_form(self):
        # More rows than one block, with exact duplicates so that tied
        # distances must fall back to the row-index order in every block.
        from pdxplain.smote import NEIGHBOR_BLOCK, minority_neighbors

        rng = np.random.default_rng(11)
        X = rng.integers(0, 3, size=(2 * NEIGHBOR_BLOCK + 37, 4)).astype(float)
        X[NEIGHBOR_BLOCK - 2 : NEIGHBOR_BLOCK + 3] = X[5]
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        one_shot = np.argsort(d2, axis=1, kind="stable")[:, :7]
        np.testing.assert_array_equal(minority_neighbors(X, 7), one_shot)


class TestPreservation:
    def test_originals_unchanged_and_first(self):
        fm = random_matrix(120, seed=7, positive_fraction=0.0)
        fm.y[:14] = 1
        result = px.resample(fm, px.SmoteConfig(k=5, target_ratio=0.5, seed=8))
        np.testing.assert_array_equal(result.data.X[: fm.n], fm.X)
        np.testing.assert_array_equal(result.data.y[: fm.n], fm.y)
        assert result.data.company_ids[: fm.n] == fm.company_ids

    def test_synthetic_rows_carry_label_one(self):
        fm = random_matrix(120, seed=9, positive_fraction=0.0)
        fm.y[:14] = 1
        result = px.resample(fm, px.SmoteConfig(k=5, target_ratio=0.5, seed=10))
        assert (result.data.y[fm.n :] == 1).all()

    def test_determinism(self):
        fm = random_matrix(120, seed=11, positive_fraction=0.0)
        fm.y[:14] = 1
        cfg = px.SmoteConfig(k=5, target_ratio=0.5, seed=12)
        a = px.resample(fm, cfg)
        b = px.resample(fm, cfg)
        np.testing.assert_array_equal(a.data.X, b.data.X)
        np.testing.assert_array_equal(a.parents, b.parents)

    def test_audit_lists_every_synthetic_row(self):
        fm = random_matrix(90, seed=13, positive_fraction=0.0)
        fm.y[:12] = 1
        result = px.resample(fm, px.SmoteConfig(k=4, target_ratio=0.5, seed=14))
        audit = result.audit()
        assert audit["n_synthetic"] == result.data.n - fm.n
        assert len(audit["parents"]) == audit["n_synthetic"]


def test_config_validation():
    with pytest.raises(ValueError):
        px.SmoteConfig(k=0)
    with pytest.raises(ValueError):
        px.SmoteConfig(target_ratio=0.0)
    with pytest.raises(ValueError):
        px.SmoteConfig(target_ratio=1.5)
