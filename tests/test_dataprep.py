import re

import numpy as np
import pytest

import pdxplain as px
from pdxplain.dataprep import (
    CONTINUOUS_COLUMNS,
    Rejection,
    build_feature_matrix,
    read_records,
    write_records,
)

from conftest import make_record


class TestLabeling:
    def test_default_next_year_gets_label_one(self):
        recs = [
            make_record("A", 2010, out_of_business=False),
            make_record("A", 2011, out_of_business=True),
        ]
        labeled = px.label_records(recs)
        assert len(labeled) == 1
        rec, label = labeled[0]
        assert (rec.statement_year, label) == (2010, 1)

    def test_alive_next_year_gets_label_zero(self):
        recs = [
            make_record("A", 2010, out_of_business=False),
            make_record("A", 2011, out_of_business=False),
        ]
        labeled = px.label_records(recs)
        assert [(r.statement_year, l) for r, l in labeled] == [(2010, 0)]

    def test_single_year_yields_nothing(self):
        assert px.label_records([make_record("A", 2010)]) == []

    def test_year_gap_yields_nothing(self):
        recs = [make_record("A", 2010), make_record("A", 2012)]
        assert px.label_records(recs) == []

    def test_already_defaulted_rows_never_emitted(self):
        recs = [
            make_record("A", 2010, out_of_business=True),
            make_record("A", 2011, out_of_business=True),
        ]
        assert px.label_records(recs) == []

    def test_missing_flag_drops_pair(self):
        recs = [
            make_record("A", 2010, out_of_business=None),
            make_record("A", 2011, out_of_business=False),
        ]
        assert px.label_records(recs) == []

    def test_duplicate_statement_rejected_with_identifier(self):
        recs = [make_record("A", 2010), make_record("A", 2010)]
        with pytest.raises(ValueError, match="'A'.*2010"):
            px.label_records(recs)


class TestRatios:
    def test_solvency_ratio(self):
        fv = px.compute_ratios(make_record(net_worth=50.0, total_assets=100.0), label=0)
        assert fv.r1_solvency == 0.5

    def test_zero_denominator_rejected(self):
        out = px.compute_ratios(make_record(gross_income=0.0, financial_debt=10.0), label=0)
        assert isinstance(out, Rejection)
        assert out.reason == "zero_denominator:gross_income"

    def test_time_in_business(self):
        fv = px.compute_ratios(
            make_record(statement_year=2012, incorporation_year=2000), label=0
        )
        assert fv.time_in_business == 12

    def test_missing_field_rejected(self):
        out = px.compute_ratios(make_record(sales=None), label=0)
        assert isinstance(out, Rejection) and out.reason == "missing:sales"

    def test_unknown_country_rejected(self):
        out = px.compute_ratios(make_record(country_code="US"), label=0)
        assert isinstance(out, Rejection) and out.reason == "unknown_country:US"

    def test_nonfinite_result_rejected(self):
        out = px.compute_ratios(
            make_record(sales=1e308, previous_sales=-1e308), label=0
        )
        assert isinstance(out, Rejection) and out.reason.startswith("nonfinite:")

    def test_statement_before_incorporation_rejected(self):
        out = px.compute_ratios(
            make_record(statement_year=1995, incorporation_year=2000), label=0
        )
        assert isinstance(out, Rejection) and out.reason == "invalid:time_in_business"

    def test_country_onehot_sums_to_one(self):
        fv = px.compute_ratios(make_record(country_code="NL"), label=1)
        assert fv.country_onehot.sum() == 1.0
        assert fv.label == 1

    def test_all_ratio_values(self):
        fv = px.compute_ratios(make_record(), label=0)
        assert fv.r2_solvency == 30.0 / 20.0
        assert fv.r1_liquidity == 45.0 / 30.0
        assert fv.r2_liquidity == 15.0 / 120.0
        assert fv.r1_profitability == 10.0 / 120.0
        assert fv.r2_profitability == 6.0
        assert fv.r3_profitability == 20.0 / 100.0
        assert fv.sales_evolution == 10.0


def _year_matrix(years, seed=0):
    rng = np.random.default_rng(seed)
    labeled = []
    for i, year in enumerate(years):
        labeled.append((make_record(f"C{i}", year, net_worth=float(rng.uniform(10, 90))), 0))
    fm, rejections = build_feature_matrix(labeled)
    assert not rejections
    return fm


class TestSplit:
    def test_seventy_thirty(self):
        years = [2004 + (i % 9) for i in range(100)]
        sp = px.split(_year_matrix(years), px.SplitSpec(test_fraction=0.3, seed=1))
        assert (sp.train.n, sp.test.n, sp.validation.n) == (70, 30, 0)

    def test_all_validation_is_an_error(self):
        years = [2013 + (i % 6) for i in range(50)]
        with pytest.raises(ValueError, match="empty training"):
            px.split(_year_matrix(years), px.SplitSpec(seed=1))

    def test_same_seed_same_partition(self):
        years = [2004 + (i % 12) for i in range(80)]
        fm = _year_matrix(years)
        a = px.split(fm, px.SplitSpec(seed=9))
        b = px.split(fm, px.SplitSpec(seed=9))
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.test_indices, b.test_indices)
        assert np.array_equal(a.validation_indices, b.validation_indices)

    def test_partition_is_exact(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            years = rng.integers(2004, 2019, size=60).tolist()
            fm = _year_matrix(years, seed=seed)
            sp = px.split(fm, px.SplitSpec(seed=seed))
            together = np.concatenate([sp.train_indices, sp.test_indices, sp.validation_indices])
            assert len(set(together.tolist())) == together.size
            assert together.size + sp.out_of_range == fm.n

    def test_out_of_range_rows_counted(self):
        years = [2001, 2002] + [2005] * 10
        sp = px.split(_year_matrix(years), px.SplitSpec(seed=0))
        assert sp.out_of_range == 2

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            px.SplitSpec(train_years=(2004, 2013), validation_years=(2013, 2018))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            px.SplitSpec(test_fraction=1.0)


class TestScaler:
    def _matrix(self, column_values):
        n = len(next(iter(column_values.values())))
        labeled = []
        for i in range(n):
            over = {}
            if "r1_solvency" in column_values:
                over["net_worth"] = column_values["r1_solvency"][i] * 100.0
            labeled.append((make_record(f"C{i}", 2010, **over), 0))
        fm, _ = build_feature_matrix(labeled)
        return fm

    def test_population_std_two_points(self):
        fm = self._matrix({"r1_solvency": [1.0, 3.0]})
        params = px.fit_scaler(fm)
        j = params.columns.index("r1_solvency")
        assert params.mean[j] == 2.0
        assert params.std[j] == 1.0  # population std of {1, 3}
        scaled = px.apply_scaler(params, fm)
        col = scaled.X[:, scaled.columns.index("r1_solvency")]
        np.testing.assert_allclose(col, [-1.0, 1.0])

    def test_constant_column_sentinel(self):
        fm = self._matrix({"r1_solvency": [5.0, 5.0, 5.0]})
        params = px.fit_scaler(fm)
        j = params.columns.index("r1_solvency")
        assert params.constant[j]
        assert params.std[j] == 1.0
        scaled = px.apply_scaler(params, fm)
        np.testing.assert_array_equal(scaled.X[:, j], [0.0, 0.0, 0.0])

    def test_round_trip_standardization(self):
        rng = np.random.default_rng(5)
        labeled = [
            (
                make_record(
                    f"C{i}",
                    2010,
                    net_worth=float(rng.uniform(5, 95)),
                    sales=float(rng.uniform(50, 500)),
                    net_income=float(rng.normal(10, 5)),
                ),
                0,
            )
            for i in range(40)
        ]
        fm, _ = build_feature_matrix(labeled)
        params = px.fit_scaler(fm)
        scaled = px.apply_scaler(params, fm)
        idx = [scaled.columns.index(c) for c in params.columns]
        sub = scaled.X[:, idx]
        assert np.abs(sub.mean(axis=0)).max() < 1e-9
        stds = sub.std(axis=0)
        for j, col in enumerate(params.columns):
            if not params.constant[j]:
                assert abs(stds[j] - 1.0) < 1e-9

    def test_onehot_and_label_pass_through(self):
        fm = self._matrix({"r1_solvency": [1.0, 3.0]})
        scaled = px.apply_scaler(px.fit_scaler(fm), fm)
        onehot_cols = [i for i, c in enumerate(fm.columns) if c.startswith("country_")]
        np.testing.assert_array_equal(scaled.X[:, onehot_cols], fm.X[:, onehot_cols])
        np.testing.assert_array_equal(scaled.y, fm.y)

    def test_column_mismatch_rejected(self):
        fm = self._matrix({"r1_solvency": [1.0, 3.0]})
        params = px.fit_scaler(fm)
        params.columns = params.columns[:-1]
        params.mean = params.mean[:-1]
        params.std = params.std[:-1]
        with pytest.raises(ValueError, match="do not match"):
            px.apply_scaler(params, fm)


class TestCsvRoundTrip:
    def test_records_round_trip(self, tmp_path):
        recs = [
            make_record("A", 2010),
            make_record("B", 2011, out_of_business=True, sales=None, country_code=None),
        ]
        path = tmp_path / "raw.csv"
        write_records(path, recs)
        back = read_records(path)
        assert back == recs

    def test_feature_matrix_round_trip(self, tmp_path):
        labeled = [(make_record(f"C{i}", 2010 + i % 3), i % 2) for i in range(7)]
        fm, _ = build_feature_matrix(labeled)
        path = tmp_path / "features.csv"
        fm.to_csv(path)
        back = px.FeatureMatrix.from_csv(path)
        assert back.columns == fm.columns
        np.testing.assert_array_equal(back.X, fm.X)
        np.testing.assert_array_equal(back.y, fm.y)
        assert back.company_ids == fm.company_ids

    def test_empty_feature_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path} is empty")):
            px.FeatureMatrix.from_csv(path)

    def test_short_feature_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("company_id,statement_year,f0,f1,label\nA,2010,0.1,0.2,1\nB,2011,0.5,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3: 4 cells, header has 5")):
            px.FeatureMatrix.from_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("company_id,statement_year\nA,2010\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_records(path)


class TestPrepare:
    def test_prepare_scales_on_train_only(self, small_panel):
        prep = small_panel["prep"]
        cols = [prep.features.columns.index(c) for c in prep.scaler.columns]
        train_sub = prep.split.train.X[:, cols]
        assert np.abs(train_sub.mean(axis=0)).max() < 1e-9
        # validation is scaled with train statistics, so its mean is offset
        val_sub = prep.split.validation.X[:, cols]
        assert np.isfinite(val_sub).all()

    def test_feature_columns_layout(self, small_panel):
        cols = small_panel["prep"].features.columns
        assert tuple(cols[: len(CONTINUOUS_COLUMNS)]) == CONTINUOUS_COLUMNS
        assert all(c.startswith("country_") for c in cols[len(CONTINUOUS_COLUMNS) :])

    def test_onehot_rows_sum_to_one(self, small_panel):
        fm = small_panel["prep"].features
        onehot = fm.X[:, [i for i, c in enumerate(fm.columns) if c.startswith("country_")]]
        np.testing.assert_array_equal(onehot.sum(axis=1), np.ones(fm.n))
