import json

import numpy as np
import pytest
import scipy.stats

import pdxplain as px
from pdxplain.alignment import (
    PLAYER_FEATURES,
    kendall_tau,
    spearman_rho,
    top_k_overlap,
)


PUBLISHED_TOTALS = {
    "r2_liquidity": 90,
    "r1_solvency": 80,
    "r2_solvency": 55,
    "r2_profitability": 55,
    "r1_liquidity": 45,
    "sales_evolution": 19,
    "country_code": 19,
    "time_in_business": 17,
    "r1_profitability": 15,
    "r3_profitability": 5,
}

PUBLISHED_RANKING = [
    "r2_liquidity",
    "r1_solvency",
    "r2_solvency",
    "r2_profitability",
    "r1_liquidity",
    "sales_evolution",
    "country_code",
    "time_in_business",
    "r1_profitability",
    "r3_profitability",
]


def write_survey(path, rows):
    lines = ["analyst_id,feature,points"]
    lines += [f"{a},{f},{p}" for a, f, p in rows]
    path.write_text("\n".join(lines) + "\n")


def uniform_survey_rows(features, analysts=("a1",), value=10):
    return [(a, f, value) for a in analysts for f in features]


def make_attribution(importances: dict) -> px.AttributionReport:
    players = list(importances)
    return px.AttributionReport(
        players=players,
        base_value=0.1,
        phi=np.array([[importances[p] for p in players]]),
        predictions=np.array([0.5]),
    )


class TestBundledSurvey:
    def test_totals_match_published_table(self):
        survey = px.load_survey()
        assert survey.totals() == {k: float(v) for k, v in PUBLISHED_TOTALS.items()}

    def test_ranking_matches_published_order(self):
        assert px.aggregate_and_rank(px.load_survey()) == PUBLISHED_RANKING

    def test_four_analysts_sum_to_100(self):
        survey = px.load_survey()
        assert len(survey.analysts) == 4
        for a in survey.analysts:
            assert sum(survey.points[a].values()) == 100


class TestSurveyValidation:
    def test_sum_99_rejected_naming_analyst(self, tmp_path):
        rows = uniform_survey_rows(PLAYER_FEATURES[:9], value=11)  # 99 points
        rows.append(("a1", PLAYER_FEATURES[9], 0))
        path = tmp_path / "s.csv"
        write_survey(path, rows)
        with pytest.raises(ValueError, match="'a1'.*99"):
            px.load_survey(path)

    def test_decimal_points_summing_to_100_accepted(self, tmp_path):
        rows = uniform_survey_rows(PLAYER_FEATURES[:9], value=10.1)
        rows.append(("a1", PLAYER_FEATURES[9], 9.1))  # sums to 99.99999999999999 in binary
        path = tmp_path / "s.csv"
        write_survey(path, rows)
        assert px.load_survey(path).totals()[PLAYER_FEATURES[9]] == 9.1

    def test_unknown_feature_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        write_survey(path, [("a1", "ebitda_margin", 100)])
        with pytest.raises(ValueError, match="ebitda_margin"):
            px.load_survey(path)

    def test_negative_points_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        rows = [("a1", "r1_solvency", 110), ("a1", "r2_solvency", -10)]
        write_survey(path, rows)
        with pytest.raises(ValueError, match="negative"):
            px.load_survey(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_points_rejected_naming_analyst_and_feature(self, tmp_path, cell):
        rows = uniform_survey_rows(PLAYER_FEATURES, analysts=("a1", "a2"))
        rows[13] = ("a2", PLAYER_FEATURES[3], cell)
        path = tmp_path / "s.csv"
        write_survey(path, rows)
        with pytest.raises(ValueError, match=f"non-finite points for analyst 'a2', feature '{PLAYER_FEATURES[3]}'"):
            px.load_survey(path)

    def test_single_analyst_all_on_one_feature(self, tmp_path):
        path = tmp_path / "s.csv"
        rows = [("solo", f, 0) for f in PLAYER_FEATURES if f != "r2_liquidity"]
        rows.insert(0, ("solo", "r2_liquidity", 100))
        write_survey(path, rows)
        survey = px.load_survey(path)
        assert px.aggregate_and_rank(survey)[0] == "r2_liquidity"

    def test_uneven_coverage_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        rows = [("a1", "r1_solvency", 100), ("a2", "r1_solvency", 50), ("a2", "r2_solvency", 50)]
        write_survey(path, rows)
        with pytest.raises(ValueError, match="no entry"):
            px.load_survey(path)


class TestTieBreaks:
    def test_equal_totals_fall_back_to_file_order(self, tmp_path):
        path = tmp_path / "s.csv"
        write_survey(path, uniform_survey_rows(PLAYER_FEATURES, value=10))
        survey = px.load_survey(path)
        assert px.aggregate_and_rank(survey) == list(PLAYER_FEATURES)

    def test_even_support_beats_single_enthusiast(self, tmp_path):
        # both features total 40; 'spread' never exceeds 20 per analyst while
        # 'spiky' leans on one analyst's 30
        path = tmp_path / "s.csv"
        rest = [f for f in PLAYER_FEATURES if f not in ("r1_solvency", "r2_solvency")]
        rows = [
            ("a1", "r2_solvency", 20), ("a2", "r2_solvency", 20),
            ("a1", "r1_solvency", 30), ("a2", "r1_solvency", 10),
        ]
        rows += [("a1", rest[0], 50), ("a2", rest[0], 70)]
        rows += [(a, f, 0) for a in ("a1", "a2") for f in rest[1:]]
        write_survey(path, rows)
        ranking = px.aggregate_and_rank(px.load_survey(path))
        assert ranking.index("r2_solvency") < ranking.index("r1_solvency")


class TestRankStatistics:
    def test_identical_rankings(self):
        x = np.arange(10, dtype=float)
        assert spearman_rho(x, x) == 1.0
        assert kendall_tau(x, x) == 1.0

    def test_reversed_ten_features(self):
        x = np.arange(10, dtype=float)
        assert spearman_rho(x, x[::-1]) == -1.0
        assert kendall_tau(x, x[::-1]) == -1.0

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(4, 15))
            # coarse values force ties
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if np.unique(x).size < 2 or np.unique(y).size < 2:
                continue
            rho = spearman_rho(x, y)
            tau = kendall_tau(x, y)
            assert rho == pytest.approx(scipy.stats.spearmanr(x, y).statistic, abs=1e-12)
            assert tau == pytest.approx(
                scipy.stats.kendalltau(x, y, variant="b").statistic, abs=1e-12
            )

    def test_top_k_overlap_symmetric(self):
        a = ["x", "y", "z", "w"]
        b = ["z", "q", "x", "y"]
        assert top_k_overlap(a, b, 3) == top_k_overlap(b, a, 3) == 2 / 3


class TestAlign:
    def _model_importances(self, order, top=0.5):
        weights = np.linspace(top, 0.01, len(order))
        return {f: float(w) for f, w in zip(order, weights)}

    def test_identical_rankings_score_one(self):
        # model importances proportional to the expert totals: identical
        # ranking including the tie structure
        survey = px.load_survey()
        imp = {f: v / 400.0 for f, v in survey.totals().items()}
        report = px.align(survey, make_attribution(imp))
        assert report.spearman == pytest.approx(1.0, abs=1e-12)
        assert report.kendall == pytest.approx(1.0, abs=1e-12)
        # the 55/55 tie at ranks 3-4 may order differently per side, but the
        # top-5 sets coincide
        assert report.top5_overlap == 1.0

    def test_delta_sums_to_zero(self):
        survey = px.load_survey()
        report = px.align(survey, make_attribution(self._model_importances(list(PLAYER_FEATURES))))
        assert abs(sum(report.delta.values())) < 1e-12

    def test_model_favoring_long_horizon_feature_disagrees(self):
        """Putting the experts' least-valued ratio first makes its share
        disagreement the most negative entry."""
        survey = px.load_survey()
        order = ["r3_profitability"] + [f for f in PLAYER_FEATURES if f != "r3_profitability"]
        report = px.align(survey, make_attribution(self._model_importances(order)))
        assert report.delta["r3_profitability"] == min(report.delta.values())
        assert report.model_ranking[0] == "r3_profitability"
        assert report.spearman < 0.5

    def test_rescaling_model_importance_changes_nothing(self):
        survey = px.load_survey()
        imp = self._model_importances(list(PLAYER_FEATURES))
        a = px.align(survey, make_attribution(imp))
        b = px.align(survey, make_attribution({k: 7.3 * v for k, v in imp.items()}))
        assert a.spearman == b.spearman
        assert a.kendall == b.kendall
        assert a.delta == pytest.approx(b.delta)

    def test_feature_mismatch_lists_difference(self):
        survey = px.load_survey()
        bad = make_attribution({"r1_solvency": 1.0, "mystery": 0.5})
        with pytest.raises(ValueError, match="mystery"):
            px.align(survey, bad)

    def test_per_analyst_scores_emitted(self):
        survey = px.load_survey()
        report = px.align(survey, make_attribution(self._model_importances(list(PLAYER_FEATURES))))
        assert set(report.per_analyst_spearman) == set(survey.analysts)

    def test_report_round_trip(self, tmp_path):
        survey = px.load_survey()
        report = px.align(survey, make_attribution(self._model_importances(list(PLAYER_FEATURES))))
        path = tmp_path / "alignment.json"
        report.save(path)
        import json

        doc = json.loads(path.read_text())
        assert doc["expert_ranking"] == report.expert_ranking
        assert doc["top5_overlap"] == report.top5_overlap


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestUndefinedCorrelations:
    """A constant side leaves a rank correlation undefined: it is None in
    memory, null in JSON and n/a in the text report, never NaN."""

    def _imp(self):
        return {f: float(w) for f, w in zip(PLAYER_FEATURES, np.linspace(0.5, 0.01, len(PLAYER_FEATURES)))}

    def test_constant_side_gives_none(self):
        x = np.arange(5.0)
        assert spearman_rho(x, np.ones(5)) is None and spearman_rho(np.ones(5), x) is None
        assert kendall_tau(x, np.ones(5)) is None and kendall_tau(np.ones(5), x) is None

    def test_uniform_analyst(self, tmp_path):
        keen = zip(PLAYER_FEATURES, (30, 20, 15, 10, 8, 6, 5, 3, 2, 1))
        path = tmp_path / "survey.csv"
        write_survey(path, uniform_survey_rows(PLAYER_FEATURES, analysts=("even",))
                     + [("keen", f, p) for f, p in keen])
        report = px.align(px.load_survey(path), make_attribution(self._imp()))
        assert report.per_analyst_spearman["even"] is None
        assert report.per_analyst_spearman["keen"] == pytest.approx(1.0)
        assert report.spearman is not None
        report.save(tmp_path / "alignment.json")
        doc = strict_json((tmp_path / "alignment.json").read_text())
        assert doc["per_analyst_spearman"] == {"even": None, "keen": report.per_analyst_spearman["keen"]}

    def test_only_uniform_analysts(self, tmp_path):
        path = tmp_path / "survey.csv"
        write_survey(path, uniform_survey_rows(PLAYER_FEATURES, analysts=("a1", "a2")))
        report = px.align(px.load_survey(path), make_attribution(self._imp()))
        assert report.spearman is None and report.kendall is None
        assert set(report.per_analyst_spearman.values()) == {None}

    def test_tied_importances(self, tmp_path):
        report = px.align(px.load_survey(), make_attribution({f: 0.01 for f in PLAYER_FEATURES}))
        assert report.spearman is None and report.kendall is None
        assert set(report.per_analyst_spearman.values()) == {None}
        report.save(tmp_path / "alignment.json")
        doc = strict_json((tmp_path / "alignment.json").read_text())
        assert doc["spearman"] is None and doc["kendall"] is None
        text = px.format_report({"alignment": doc})
        assert "Spearman rho: n/a   Kendall tau-b: n/a" in text

    def test_nan_never_reaches_a_json_artifact(self, tmp_path):
        from pdxplain.pipeline import write_json

        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(tmp_path / "x.json", {"spearman": float("nan")})
        report = px.align(px.load_survey(), make_attribution(self._imp()))
        report.spearman = float("nan")
        with pytest.raises(ValueError, match="JSON compliant"):
            report.save(tmp_path / "alignment.json")
