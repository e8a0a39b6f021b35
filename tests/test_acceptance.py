"""Acceptance suite: the binding end-to-end checks.

Each test enforces one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or on failure). Several
criteria carry wall-clock budgets, asserted here as well.
"""

import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import pdxplain as px
from pdxplain.grading import GradeCalibration
from pdxplain.models import logistic_loss, lr_gradient
from pdxplain.pipeline import RunConfig, run_pipeline
from pdxplain.shapley import build_players


@contextmanager
def criterion(num: int, title: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL ({time.perf_counter() - t0:.1f}s): {title}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num} PASS ({elapsed:.1f}s): {title}")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def demo_config_doc() -> dict:
    from importlib import resources

    return json.loads(
        resources.files("pdxplain.data").joinpath("demo_config.json").read_text()
    )


def panel_splits(n_companies, imbalance, signal, seed):
    cfg = px.GeneratorConfig(
        n_companies=n_companies,
        year_range=(2004, 2018),
        imbalance_ratio=imbalance,
        signal_strength=signal,
        seed=seed,
    )
    statements, _ = px.generate_statements(cfg)
    return px.prepare(statements, px.SplitSpec(test_fraction=0.3, seed=seed)).split


def test_criterion_1_grade_interval_fidelity():
    with criterion(1, "grade-interval fidelity and argmin/interval equivalence", budget_s=1.0):
        cal = px.load_fixed_intervals()
        probes = {0.05: "A", 0.10: "B", 0.15: "C", 0.22: "D", 0.26: "E", 0.30: "F"}
        for prob, expect in probes.items():
            assert px.assign_grade(prob, cal) == expect

        grid = np.arange(0, 10001) * 1e-4
        rng = np.random.default_rng(1)
        for _ in range(20):
            gaps = rng.uniform(0.01, 0.15, size=6)
            mu = np.cumsum(gaps) / (np.sum(gaps) + rng.uniform(0.05, 0.6))
            bounds = np.concatenate([0.5 * (mu[:-1] + mu[1:]), [1.0]])
            by_argmin = px.assign_grades(grid, GradeCalibration(upper_bounds=bounds, mu=mu))
            by_interval = px.assign_grades(grid, GradeCalibration(upper_bounds=bounds))
            assert by_argmin == by_interval


class LinearStub:
    def __init__(self, weights, bias, feature_names):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = bias
        self.feature_names = list(feature_names)

    def predict_proba_array(self, X):
        return X @ self.weights + self.bias


def _permutation_oracle(model, instance, config):
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


def test_criterion_2_shapley_axioms():
    with criterion(2, "Shapley axioms on a trained boosted-tree model", budget_s=120.0):
        splits = panel_splits(n_companies=2000, imbalance=12.0, signal=1.2, seed=202)
        train, val = splits.train, splits.validation
        model = px.fit("gbt", train, {"n_estimators": 30, "max_depth": 4}, seed=0)

        group_map = px.group_countries(train.columns)
        background = px.sample_background(train, 100, seed=5)
        config = px.AttributionConfig(background=background, group_map=group_map)
        base = px.predict_proba(model, background).mean()

        rng = np.random.default_rng(42)
        pick = rng.choice(val.n, size=50, replace=False)
        fx = px.predict_proba(model, val.X[pick])
        for row, f in zip(val.X[pick], fx):
            phi = px.shapley_values(model, row, config)
            assert abs(phi.sum() - (f - base)) < 1e-9  # efficiency

        # dummy player: a constant column can never be split on
        Xd = np.column_stack([train.X, np.zeros(train.n)])
        dummy_fm = px.FeatureMatrix(
            train.columns + ["dummy"], Xd, train.y, train.company_ids, train.years
        )
        dummy_model = px.fit("gbt", dummy_fm, {"n_estimators": 20, "max_depth": 3}, seed=1)
        dummy_bg = np.column_stack([background, np.zeros(background.shape[0])])
        dummy_cfg = px.AttributionConfig(
            background=dummy_bg, group_map=px.group_countries(dummy_fm.columns)
        )
        for i in rng.choice(val.n, size=50, replace=False):
            row = np.append(val.X[i], 0.0)
            phi = px.shapley_values(dummy_model, row, dummy_cfg)
            assert abs(phi[-1]) < 1e-12

        # three-player permutation oracle
        for seed in range(10):
            r2 = np.random.default_rng(seed)
            fm = px.FeatureMatrix(
                columns=["f0", "f1", "f2"],
                X=r2.normal(size=(80, 3)),
                y=(r2.random(80) < 0.4).astype(int),
                company_ids=[f"P{j}" for j in range(80)],
                years=np.full(80, 2010),
            )
            fm.X[:, 0] += 1.4 * (2 * fm.y - 1)
            m3 = px.fit("gbt", fm, {"n_estimators": 6, "max_depth": 3}, seed=seed)
            cfg3 = px.AttributionConfig(background=fm.X[:12])
            x = fm.X[int(r2.integers(20, 80))]
            np.testing.assert_allclose(
                px.shapley_values(m3, x, cfg3), _permutation_oracle(m3, x, cfg3), atol=1e-10
            )

        # linear closed form against a single background row
        for seed in range(10):
            r3 = np.random.default_rng(100 + seed)
            d = 8
            w = r3.normal(scale=0.04, size=d)
            lin = LinearStub(w, 0.4, [f"f{j}" for j in range(d)])
            x, r = r3.normal(size=d), r3.normal(size=d)
            phi = px.shapley_values(
                lin, x, px.AttributionConfig(background=r.reshape(1, -1))
            )
            np.testing.assert_allclose(phi, w * (x - r), atol=1e-9)


def test_criterion_3_auc_oracle_equivalence():
    with criterion(3, "rank AUC equals brute-force concordance on 200 instances"):
        rng = np.random.default_rng(3)
        done = 0
        while done < 200:
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            scores = rng.integers(0, 8, size=n) / 7.0  # heavy ties
            pos = scores[labels == 1][:, None]
            neg = scores[labels == 0][None, :]
            oracle = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size)
            assert abs(px.roc_auc(labels, scores) - oracle) <= 1e-12
            done += 1


def test_criterion_4_smote_geometry():
    with criterion(4, "SMOTE segment geometry, counts, and preservation on 100 runs"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n_min = int(rng.integers(12, 40))
            n_maj = int(rng.integers(100, 400))
            d = int(rng.integers(3, 12))
            X = rng.normal(size=(n_min + n_maj, d))
            y = np.array([1] * n_min + [0] * n_maj)
            fm = px.FeatureMatrix(
                columns=[f"f{j}" for j in range(d)],
                X=X,
                y=y,
                company_ids=[f"R{j}" for j in range(n_min + n_maj)],
                years=np.full(n_min + n_maj, 2010),
            )
            result = px.resample(fm, px.SmoteConfig(k=10, target_ratio=0.5, seed=seed))

            expected = max(int(np.floor(0.5 * n_maj)) - n_min, 0)
            assert result.parents.shape[0] == expected
            assert int((result.data.y == 0).sum()) == n_maj
            assert int(result.data.y.sum()) == n_min + expected

            np.testing.assert_array_equal(result.data.X[: fm.n], X)  # verbatim
            synth = result.data.X[fm.n :]
            for s, (a, b) in zip(synth, result.parents):
                lo = np.minimum(X[a], X[b]) - 1e-12
                hi = np.maximum(X[a], X[b]) + 1e-12
                assert ((s >= lo) & (s <= hi)).all()


def test_criterion_5_imbalance_behavior():
    with criterion(
        5,
        "resampling lifts defaulted-class recall at the reference imbalance (>=4 of 5 seeds)",
        budget_s=600.0,
    ):
        signal = demo_config_doc()["generator"]["signal_strength"]
        passes = []
        for seed in (11, 22, 33, 44, 55):
            cfg = px.GeneratorConfig(
                n_companies=20000,
                year_range=(2004, 2018),
                imbalance_ratio=114.75,
                signal_strength=signal,
                seed=seed,
            )
            statements, _ = px.generate_statements(cfg)
            prep = px.prepare(statements, px.SplitSpec(test_fraction=0.3, seed=seed))
            train, val = prep.split.train, prep.split.validation
            rs = px.resample(train, px.SmoteConfig(k=10, target_ratio=0.5, seed=seed))

            wrs = px.fit("gbt", train, seed=seed)
            rsm = px.fit("gbt", rs.data, seed=seed)
            rep_wrs = px.evaluate(val.y, px.predict_proba(wrs, val))
            rep_rs = px.evaluate(val.y, px.predict_proba(rsm, val))
            ok = rep_wrs.recall <= 0.02 and rep_rs.recall >= 0.10 and rep_rs.auc >= 0.70
            print(
                f"  seed {seed}: WRS recall={rep_wrs.recall:.4f} "
                f"RS recall={rep_rs.recall:.4f} RS auc={rep_rs.auc:.4f} -> "
                f"{'ok' if ok else 'MISS'}"
            )
            passes.append(ok)
        assert sum(passes) >= 4


def test_criterion_6_lr_gradient_check():
    with criterion(6, "logistic-loss gradient matches central finite differences"):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(8, 40))
            d = int(rng.integers(2, 8))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = float(rng.uniform(0, 0.5))
            gw, gb = lr_gradient(w, b, X, y, l2)

            eps = 1e-6
            fd = np.zeros(d + 1)
            for j in range(d):
                up, dn = w.copy(), w.copy()
                up[j] += eps
                dn[j] -= eps
                fd[j] = (
                    logistic_loss(X @ up + b, y, up, l2)
                    - logistic_loss(X @ dn + b, y, dn, l2)
                ) / (2 * eps)
            fd[d] = (
                logistic_loss(X @ w + (b + eps), y, w, l2)
                - logistic_loss(X @ w + (b - eps), y, w, l2)
            ) / (2 * eps)
            analytic = np.append(gw, gb)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-5


def test_criterion_7_gbt_loss_monotonicity():
    # A noisy problem large enough that 100 rounds cannot fully converge, so
    # each round's true loss decrease stays far above float resolution.
    with criterion(7, "boosted-tree training loss non-increasing over 100 rounds"):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 2000
            X = rng.normal(size=(n, 6))
            logits = X[:, 0] - 0.5 * X[:, 1] + 0.3 * X[:, 2]
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
            fm = px.FeatureMatrix(
                columns=[f"f{j}" for j in range(6)],
                X=X,
                y=y,
                company_ids=[f"R{j}" for j in range(n)],
                years=np.full(n, 2010),
            )
            model = px.fit(
                "gbt",
                fm,
                {
                    "n_estimators": 100,
                    "max_depth": 3,
                    "gamma": 0.0,
                    "subsample": 1.0,
                    "colsample_bytree": 1.0,
                },
                seed=seed,
            )
            losses = np.asarray(model.training_loss)
            assert losses.size == 100
            assert (np.diff(losses) <= 0.0).all()  # strict: no tolerance


def test_criterion_8_expert_table_fixture():
    with criterion(8, "bundled analyst survey reproduces the published totals and ranking"):
        survey = px.load_survey()
        totals = survey.totals()
        expect = {
            "r2_liquidity": 90.0,
            "r1_solvency": 80.0,
            "r2_solvency": 55.0,
            "r2_profitability": 55.0,
            "r1_liquidity": 45.0,
            "sales_evolution": 19.0,
            "country_code": 19.0,
            "time_in_business": 17.0,
            "r1_profitability": 15.0,
            "r3_profitability": 5.0,
        }
        assert totals == expect
        assert px.aggregate_and_rank(survey) == list(expect)

        # identical rankings (same tie structure) -> rho = tau = 1
        identical = px.AttributionReport(
            players=list(expect),
            base_value=0.0,
            phi=np.array([[expect[f] / 400.0 for f in expect]]),
            predictions=np.array([0.5]),
        )
        report = px.align(survey, identical)
        assert report.spearman == pytest.approx(1.0, abs=1e-12)
        assert report.kendall == pytest.approx(1.0, abs=1e-12)

        # exactly reversed strict 10-feature ranking -> rho = -1
        from pdxplain.alignment import spearman_rho

        strict = np.arange(10, dtype=float)
        assert spearman_rho(strict, strict[::-1]) == -1.0


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "two demo-config runs produce byte-identical bundles", budget_s=600.0):
        config = RunConfig.from_dict(demo_config_doc())
        run_pipeline(config, tmp_path / "first")
        run_pipeline(config, tmp_path / "second")
        assert _tree_digest(tmp_path / "first") == _tree_digest(tmp_path / "second")
