import re
import tracemalloc

import numpy as np
import pytest

import pdxplain as px
from pdxplain.dataprep import CONTINUOUS_COLUMNS, Rejection, read_statements

from conftest import SPOILERS, features_of, make_record, npz_arrays
from record_loops import RECORD_FIELDS, to_records, to_statements, write_records


def labels_of(records):
    """(row, label) of every labeled row of ``records``."""
    rows, labels = px.label_statements(to_statements(records))
    return list(zip(rows.tolist(), labels.tolist()))


def ratios(record, label=0):
    """The feature row of one labeled record as {column: value, "label":
    label}, or its Rejection."""
    fm, rejections = features_of([(record, label)])
    if rejections:
        return rejections[0]
    return {**dict(zip(fm.columns, fm.X[0].tolist())), "label": int(fm.y[0])}


def read_rows(path):
    return to_records(read_statements(path))


class TestLabeling:
    def test_default_next_year_gets_label_one(self):
        recs = [
            make_record("A", 2010, out_of_business=False),
            make_record("A", 2011, out_of_business=True),
        ]
        assert labels_of(recs) == [(0, 1)]

    def test_alive_next_year_gets_label_zero(self):
        recs = [
            make_record("A", 2010, out_of_business=False),
            make_record("A", 2011, out_of_business=False),
        ]
        assert labels_of(recs) == [(0, 0)]

    def test_single_year_yields_nothing(self):
        assert labels_of([make_record("A", 2010)]) == []

    def test_year_gap_yields_nothing(self):
        recs = [make_record("A", 2010), make_record("A", 2012)]
        assert labels_of(recs) == []

    def test_already_defaulted_rows_never_emitted(self):
        recs = [
            make_record("A", 2010, out_of_business=True),
            make_record("A", 2011, out_of_business=True),
        ]
        assert labels_of(recs) == []

    def test_missing_flag_drops_pair(self):
        recs = [
            make_record("A", 2010, out_of_business=None),
            make_record("A", 2011, out_of_business=False),
        ]
        assert labels_of(recs) == []

    def test_duplicate_statement_rejected_with_identifier(self):
        recs = [make_record("A", 2010), make_record("A", 2010)]
        with pytest.raises(ValueError, match="'A'.*2010"):
            labels_of(recs)


class TestRatios:
    def test_solvency_ratio(self):
        assert ratios(make_record(net_worth=50.0, total_assets=100.0))["r1_solvency"] == 0.5

    def test_zero_denominator_rejected(self):
        out = ratios(make_record(gross_income=0.0, financial_debt=10.0))
        assert isinstance(out, Rejection)
        assert out.reason == "zero_denominator:gross_income"

    def test_time_in_business(self):
        fv = ratios(make_record(statement_year=2012, incorporation_year=2000))
        assert fv["time_in_business"] == 12

    def test_missing_field_rejected(self):
        out = ratios(make_record(sales=None))
        assert isinstance(out, Rejection) and out.reason == "missing:sales"

    def test_unknown_country_rejected(self):
        out = ratios(make_record(country_code="US"))
        assert isinstance(out, Rejection) and out.reason == "unknown_country:US"

    def test_nonfinite_result_rejected(self):
        out = ratios(make_record(sales=1e308, previous_sales=-1e308))
        assert isinstance(out, Rejection) and out.reason.startswith("nonfinite:")

    def test_statement_before_incorporation_rejected(self):
        out = ratios(make_record(statement_year=1995, incorporation_year=2000))
        assert isinstance(out, Rejection) and out.reason == "invalid:time_in_business"

    def test_country_onehot_sums_to_one(self):
        fv = ratios(make_record(country_code="NL"), label=1)
        assert sum(v for c, v in fv.items() if c.startswith("country_")) == 1.0
        assert fv["country_NL"] == 1.0
        assert fv["label"] == 1

    def test_all_ratio_values(self):
        fv = ratios(make_record())
        assert fv["r2_solvency"] == 30.0 / 20.0
        assert fv["r1_liquidity"] == 45.0 / 30.0
        assert fv["r2_liquidity"] == 15.0 / 120.0
        assert fv["r1_profitability"] == 10.0 / 120.0
        assert fv["r2_profitability"] == 6.0
        assert fv["r3_profitability"] == 20.0 / 100.0
        assert fv["sales_evolution"] == 10.0


def _year_matrix(years, seed=0):
    rng = np.random.default_rng(seed)
    labeled = []
    for i, year in enumerate(years):
        labeled.append((make_record(f"C{i}", year, net_worth=float(rng.uniform(10, 90))), 0))
    fm, rejections = features_of(labeled)
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
        fm, _ = features_of(labeled)
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
        fm, _ = features_of(labeled)
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
        assert read_rows(path) == recs

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("company_id,statement_year\nA,2010\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_statements(path)


def small_matrix(n=7):
    fm, _ = features_of([(make_record(f"C{i}", 2010 + i % 3), i % 2) for i in range(n)])
    return fm


# Each stage file type: (its class, a small instance of it).
STAGE_FILES = {
    "statements": (px.Statements, lambda: to_statements([make_record("A", 2010), make_record("B", 2011, sales=None)])),
    "features": (px.FeatureMatrix, small_matrix),
}


class TestStageFiles:
    def test_feature_matrix_round_trip(self, tmp_path):
        fm = small_matrix()
        path = tmp_path / "features.npz"
        fm.save(path)
        back = px.FeatureMatrix.load(path)
        assert back.columns == fm.columns
        np.testing.assert_array_equal(back.X, fm.X)
        np.testing.assert_array_equal(back.y, fm.y)
        np.testing.assert_array_equal(back.years, fm.years)
        assert back.company_ids == fm.company_ids

    @pytest.mark.parametrize("rows", [0, 1, 1500])
    def test_sizes_round_trip(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        fm = px.FeatureMatrix(["f0", "f1"], rng.normal(size=(rows, 2)), rng.integers(0, 2, rows),
                              [f"C{i}" for i in range(rows)], rng.integers(2004, 2019, rows))
        fm.save(tmp_path / "f.npz")
        back = px.FeatureMatrix.load(tmp_path / "f.npz")
        assert back.X.shape == (rows, 2) and back.company_ids == fm.company_ids
        np.testing.assert_array_equal(back.X, fm.X)

    def test_fortran_ordered_matrix_loads_c_ordered(self, tmp_path):
        fm = small_matrix()
        fm.X = np.asfortranarray(fm.X)
        fm.save(tmp_path / "f.npz")
        back = px.FeatureMatrix.load(tmp_path / "f.npz")
        assert back.X.flags.c_contiguous
        np.testing.assert_array_equal(back.X, fm.X)

    def test_header_only_statements_round_trip(self, tmp_path):
        empty = read_statements(raw_csv(tmp_path))
        empty.save(tmp_path / "data.npz")
        back = px.Statements.load(tmp_path / "data.npz")
        assert back.n == 0
        assert {k: v.dtype for k, v in back.values.items()} == {k: v.dtype for k, v in empty.values.items()}

    @pytest.mark.parametrize("kind", STAGE_FILES)
    def test_the_given_path_is_the_path_written(self, tmp_path, kind):
        cls, make = STAGE_FILES[kind]
        path = tmp_path / "stage.bin"
        make().save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["stage.bin"]
        cls.load(path).save(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kind", STAGE_FILES)
    @pytest.mark.parametrize("spoil", SPOILERS)
    def test_spoiled_file_raises_naming_it(self, tmp_path, kind, spoil):
        cls, make = STAGE_FILES[kind]
        spoiler, message = SPOILERS[spoil]
        path = tmp_path / "stage.npz"
        make().save(path)
        spoiler(path)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + message):
            cls.load(path)

    @pytest.mark.parametrize("kind", STAGE_FILES)
    def test_empty_or_text_file_raises_naming_it(self, tmp_path, kind):
        cls, _ = STAGE_FILES[kind]
        empty, text = tmp_path / "empty.npz", tmp_path / "features.csv"
        empty.write_bytes(b"")
        text.write_text("company_id,statement_year,f0,label\nA,2010,0.5,1\n")
        for path in (empty, text):
            with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
                cls.load(path)

    def test_array_of_the_wrong_kind_raises(self, tmp_path):
        path = tmp_path / "f.npz"
        small_matrix().save(path)
        arrays = npz_arrays(path)
        arrays["years"] = arrays["years"].astype(float)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=re.escape(f"{path}: array 'years' has dtype float64")):
            px.FeatureMatrix.load(path)

    def test_matrix_width_must_match_the_columns(self, tmp_path):
        path = tmp_path / "f.npz"
        small_matrix().save(path)
        arrays = npz_arrays(path)
        arrays["columns"] = arrays["columns"][1:]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="do not agree"):
            px.FeatureMatrix.load(path)

    def test_single_npy_array_is_not_an_npz(self, tmp_path):
        path = tmp_path / "x.npy"
        np.save(path, np.arange(3))
        with pytest.raises(ValueError, match=re.escape(f"{path}: not an .npz archive")):
            px.FeatureMatrix.load(path)


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

    def test_split_indexes_the_scaled_matrix(self, small_panel):
        prep = small_panel["prep"]
        assert prep.split.features is prep.features
        np.testing.assert_array_equal(prep.split.test.X, prep.features.X[prep.split.test_indices])

    def test_peak_is_at_most_five_times_the_matrix(self):
        """The split holds indices, not rows, so prepare keeps no unscaled or
        scaled copy of the split's rows (5.6 times the matrix with copies)."""
        config = px.GeneratorConfig(n_companies=4000, year_range=(2004, 2018), imbalance_ratio=12.0, seed=3)
        statements, _ = px.generate_statements(config)
        tracemalloc.start()
        try:
            prep = px.prepare(statements, px.SplitSpec(seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * prep.features.X.nbytes


def raw_csv(tmp_path, *rows, header=",".join(RECORD_FIELDS)):
    path = tmp_path / "raw.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def full_row(**cells):
    """A data.csv row of make_record's values, with ``cells`` replaced."""
    values = {name: "" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
              for name, v in vars(make_record()).items()}
    values.update(cells)
    return ",".join(values[name] for name in RECORD_FIELDS)


class TestReaderEdgeCases:
    def test_short_row_reads_as_missing_cells(self, tmp_path):
        (rec,) = read_rows(raw_csv(tmp_path, "A,2010,false"))
        assert (rec.company_id, rec.statement_year, rec.out_of_business) == ("A", 2010, False)
        assert all(getattr(rec, name) is None for name in RECORD_FIELDS[3:])

    def test_extra_cells_are_ignored(self, tmp_path):
        (rec,) = read_rows(raw_csv(tmp_path, full_row() + ",surplus,9.5"))
        assert rec == make_record()

    def test_extra_columns_are_ignored(self, tmp_path):
        header = "note," + ",".join(RECORD_FIELDS)
        (rec,) = read_rows(raw_csv(tmp_path, "hello," + full_row(), header=header))
        assert rec == make_record()

    def test_whitespace_is_stripped(self, tmp_path):
        row = full_row(company_id="  A ", statement_year=" 2011 ", out_of_business=" TRUE ",
                       country_code=" NL ", sales=" 12.5 ", incorporation_year=" 1999")
        (rec,) = read_rows(raw_csv(tmp_path, row))
        assert (rec.company_id, rec.statement_year, rec.out_of_business) == ("A", 2011, True)
        assert (rec.country_code, rec.sales, rec.incorporation_year) == ("NL", 12.5, 1999)

    @pytest.mark.parametrize("token,value", [
        ("1", True), ("true", True), ("TRUE", True), ("yes", True), ("Yes", True), ("y", True), ("Y", True),
        ("0", False), ("false", False), ("False", False), ("no", False), ("NO", False), ("n", False),
        ("N", False), ("", None), ("  ", None),
    ])
    def test_boolean_tokens(self, tmp_path, token, value):
        (rec,) = read_rows(raw_csv(tmp_path, full_row(out_of_business=token)))
        assert rec.out_of_business is value

    @pytest.mark.parametrize("token", ["maybe", "2", "t", "1.0", "nan"])
    def test_unknown_boolean_token_rejected(self, tmp_path, token):
        with pytest.raises(ValueError, match=f"cannot parse boolean cell '{token}' for out_of_business"):
            read_statements(raw_csv(tmp_path, full_row(out_of_business=token)))

    @pytest.mark.parametrize("field,reason", [
        ("sales", "r2_liquidity"),
        ("net_income", "r2_profitability"),
        ("previous_sales", "sales_evolution"),
    ])
    def test_empty_cell_is_missing_but_nan_is_nonfinite(self, tmp_path, field, reason):
        (empty,) = read_rows(raw_csv(tmp_path, full_row(**{field: ""})))
        (nan,) = read_rows(raw_csv(tmp_path, full_row(**{field: "nan"})))
        assert getattr(empty, field) is None and np.isnan(getattr(nan, field))
        assert ratios(empty).reason == f"missing:{field}"
        assert ratios(nan).reason == f"nonfinite:{reason}"

    def test_quoted_company_id_with_comma_round_trips(self, tmp_path):
        recs = [make_record('ACME, "Holdings" Ltd', 2010), make_record("Plain", 2011)]
        path = tmp_path / "raw.csv"
        write_records(path, recs)
        assert '"ACME, ""Holdings"" Ltd"' in path.read_text()
        assert read_rows(path) == recs

    def test_blank_lines_are_skipped(self, tmp_path):
        path = raw_csv(tmp_path, "", full_row(), "", full_row(company_id="B"))
        assert [r.company_id for r in read_rows(path)] == ["C1", "B"]

    def test_empty_company_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="company_id must be non-empty"):
            read_statements(raw_csv(tmp_path, full_row(), full_row(company_id=" ")))

    def test_missing_statement_year_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="statement_year missing for company 'B'"):
            read_statements(raw_csv(tmp_path, full_row(), full_row(company_id="B", statement_year="")))

    def test_header_only_reads_no_statements(self, tmp_path):
        empty = read_statements(raw_csv(tmp_path))
        one = read_statements(raw_csv(tmp_path, full_row()))
        assert (empty.n, one.n) == (0, 1)
        assert list(empty.values) == list(empty.missing) == list(one.values) == list(RECORD_FIELDS)
        for name in RECORD_FIELDS:
            assert empty.values[name].dtype.kind == one.values[name].dtype.kind, name
            assert empty.missing[name].dtype == one.missing[name].dtype == bool
        assert empty.values["statement_year"].dtype == empty.values["incorporation_year"].dtype == np.int64
        assert empty.values["company_id"].dtype.kind == empty.values["country_code"].dtype.kind == "U"
        assert empty.values["out_of_business"].dtype == bool
        assert empty.values["sales"].dtype == np.float64
        rows, labels = px.label_statements(empty)
        assert rows.size == labels.size == 0


class TestIntegerCells:
    def test_integral_float_text_accepted(self, tmp_path):
        (rec,) = read_rows(raw_csv(tmp_path, full_row(statement_year="2010.0", incorporation_year="1.999e3")))
        assert (rec.statement_year, rec.incorporation_year) == (2010, 1999)
        assert type(rec.statement_year) is int and type(rec.incorporation_year) is int

    @pytest.mark.parametrize("field,cell", [
        ("statement_year", "2010.7"),
        ("incorporation_year", "1999.5"),
        ("incorporation_year", "inf"),
        ("statement_year", "-inf"),
        ("incorporation_year", "nan"),
        ("incorporation_year", "1e19"),
        ("statement_year", "-9.3e18"),
    ])
    def test_bad_integer_cell_names_column_and_line(self, tmp_path, field, cell):
        path = raw_csv(tmp_path, full_row(), full_row(company_id="B"), full_row(company_id="C", **{field: cell}))
        with pytest.raises(ValueError, match=re.escape(f"{path} line 4: {field} cell '{cell}'")):
            read_statements(path)

    def test_line_counts_quoted_newlines_and_blank_lines(self, tmp_path):
        path = raw_csv(tmp_path, "", full_row(company_id='"two\nlines"'), "",
                       full_row(company_id="B", incorporation_year="12.5"))
        with pytest.raises(ValueError, match=re.escape(f"{path} line 6: incorporation_year cell '12.5'")):
            read_statements(path)

    def test_int64_bounds(self, tmp_path):
        (rec,) = read_rows(raw_csv(tmp_path, full_row(incorporation_year="-9223372036854775808")))
        assert rec.incorporation_year == -2**63
        with pytest.raises(ValueError, match="incorporation_year cell '9223372036854775808'"):
            read_statements(raw_csv(tmp_path, full_row(incorporation_year="9223372036854775808")))

    def test_extreme_years_give_the_exact_time_in_business(self, tmp_path):
        path = raw_csv(
            tmp_path,
            full_row(incorporation_year="-9223372036854775808"),
            full_row(statement_year="2011", incorporation_year="-9223372036854775808"),
            full_row(company_id="B", statement_year="9.2e18", incorporation_year="-9.2e18"),
            full_row(company_id="B", statement_year="9.2e18", incorporation_year="9.2e18"),
        )
        st = px.dataprep.read_statements(path)
        st.values["statement_year"][3] += 1  # B files for t and t+1
        rows, labels = px.dataprep.label_statements(st)
        fm, rejections = px.dataprep.statement_features(st, rows, labels)
        assert rejections == []
        got = fm.X[:, fm.columns.index("time_in_business")].tolist()
        assert got == [float(2010 + 2**63), float(int(9.2e18) + int(9.2e18))]
        assert all(v > 9e18 for v in got)

    def test_first_bad_row_wins_across_columns(self, tmp_path):
        path = raw_csv(tmp_path, full_row(), full_row(company_id="B", sales="abc"),
                       full_row(company_id="C", statement_year="2010.5", out_of_business="maybe"))
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3: sales: could not convert")):
            read_statements(path)
