"""The column code in ``dataprep`` and ``synthgen`` against the record loops
it replaced (``record_loops``): same records, labels, features, rejection
reasons, errors and file bytes."""

import numpy as np
import pytest

import pdxplain as px
from pdxplain import dataprep
from pdxplain.dataprep import REQUIRED_RATIO_FIELDS

import record_loops as ref
from conftest import features_of, make_record

MISSING_RATES = {
    "country_code": 0.03,
    "incorporation_year": 0.04,
    "gross_income": 0.05,
    "sales": 0.02,
    "total_current_liabilities": 0.03,
    "total_employees": 0.1,
}


@pytest.fixture(scope="module", params=[(7, 12.0), (31, 40.0)])
def panel(request):
    seed, imbalance = request.param
    config = px.GeneratorConfig(
        n_companies=1500, year_range=(2004, 2018), imbalance_ratio=imbalance,
        missing_rates=MISSING_RATES, signal_strength=1.1, seed=seed,
    )
    statements, oracle = px.generate_statements(config)
    return {"config": config, "statements": statements, "records": ref.to_records(statements),
            "oracle": oracle}


def column_labels(st):
    """(row, label) of every row ``label_statements`` labels."""
    rows, labels = dataprep.label_statements(st)
    return list(zip(rows.tolist(), labels.tolist()))


def loop_labels(records):
    """``ref.label_records`` as (row index, label) pairs."""
    index = {id(rec): i for i, rec in enumerate(records)}
    return [(index[id(rec)], label) for rec, label in ref.label_records(records)]


def column_default_rates(st):
    rows, labels = dataprep.label_statements(st)
    return dataprep.yearly_default_rates(st.values["statement_year"][rows], labels)


def assert_same_matrix(got, want):
    assert got.columns == want.columns
    assert got.company_ids == want.company_ids
    np.testing.assert_array_equal(got.X, want.X)
    np.testing.assert_array_equal(got.y, want.y)
    np.testing.assert_array_equal(got.years, want.years)
    assert got.X.dtype == want.X.dtype and got.y.dtype == want.y.dtype
    assert got.years.dtype == want.years.dtype


class TestGeneratedPanels:
    def test_records_and_oracle_match_the_record_loop(self, panel):
        records, oracle = ref.generate_with_oracle(panel["config"])
        assert panel["records"] == records
        for name in ("company_ids", "intercept", "realized_rate", "target_rate"):
            assert getattr(panel["oracle"], name) == getattr(oracle, name)
        for name in ("years", "propensity"):
            got, want = getattr(panel["oracle"], name), getattr(oracle, name)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype

    def test_labels_match(self, panel):
        assert column_labels(panel["statements"]) == loop_labels(panel["records"])
        assert dataprep.label_statements(panel["statements"])[1].dtype == np.int64

    def test_features_and_rejections_match(self, panel):
        st = panel["statements"]
        fm, rejections = dataprep.statement_features(st, *dataprep.label_statements(st))
        want_fm, want_rejections = ref.build_feature_matrix(ref.label_records(panel["records"]))
        assert_same_matrix(fm, want_fm)
        assert rejections == want_rejections
        assert {r.reason.split(":")[0] for r in rejections} >= {"missing"}

    def test_default_rates_match(self, panel):
        assert column_default_rates(panel["statements"]) == ref.default_rate_report(panel["records"])

    def test_prepare_matches_the_record_loops(self, panel):
        prep = px.prepare(panel["statements"], px.SplitSpec(seed=4))
        want_fm, want_rejections = ref.build_feature_matrix(ref.label_records(panel["records"]))
        assert prep.rejections == want_rejections
        assert prep.default_rates == ref.default_rate_report(panel["records"])
        assert prep.features.company_ids == want_fm.company_ids
        np.testing.assert_array_equal(prep.split.train.y, want_fm.y[prep.split.train_indices])

    def test_data_csv_bytes_match(self, panel, tmp_path):
        ref.write_records(tmp_path / "want.csv", panel["records"])
        # The generator keeps values under its masks; the records hold None there.
        dataprep.write_statements(tmp_path / "records.csv", ref.to_statements(panel["records"]))
        dataprep.write_statements(tmp_path / "columns.csv", panel["statements"])
        want = (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "records.csv").read_bytes() == want
        assert (tmp_path / "columns.csv").read_bytes() == want

    def test_data_csv_reads_back(self, panel, tmp_path):
        path = tmp_path / "data.csv"
        ref.write_records(path, panel["records"])
        assert ref.to_records(dataprep.read_statements(path)) == panel["records"]

    def test_features_csv_bytes_match(self, panel, tmp_path):
        prep = px.prepare(panel["statements"], px.SplitSpec(seed=4))
        ref.features_to_csv(prep.features, tmp_path / "want.csv")
        prep.features.to_csv(tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestQuotedText:
    IDS = ["plain", "comma, inc", 'say "hi"', "two\nlines", "cr\rid", " padded", "", "x"]

    def test_data_csv_bytes_match(self, tmp_path):
        records = [make_record(cid, 2010 + i, country_code=cc)
                   for i, cid in enumerate(self.IDS) for cc in ("FR", "F,R", None)]
        ref.write_records(tmp_path / "want.csv", records)
        dataprep.write_statements(tmp_path / "got.csv", ref.to_statements(records))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_features_csv_bytes_match(self, tmp_path):
        fm, _ = ref.build_feature_matrix([(make_record(cid, 2010), 1) for cid in self.IDS])
        ref.features_to_csv(fm, tmp_path / "want.csv")
        fm.to_csv(tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def read_features_both_ways(path):
    """What the block reader and the row loop each make of a feature CSV:
    a matrix, or the error's type and message."""
    def run(read):
        try:
            return read(path)
        except (ValueError, OverflowError) as exc:
            return type(exc), str(exc)
    return run(px.FeatureMatrix.from_csv), run(ref.features_from_csv)


HEADER = "company_id,statement_year,f0,f1,label\n"
GOOD = "A,2010,0.5,-1.25,1\n"


class TestFeatureCsvReader:
    def test_generated_features_match(self, panel, tmp_path):
        prep = px.prepare(panel["statements"], px.SplitSpec(seed=4))
        resampled = px.resample(prep.split.train, px.SmoteConfig(seed=2)).data
        for name, fm in (("features.csv", prep.features), ("train_resampled.csv", resampled)):
            fm.to_csv(tmp_path / name)
            got, want = read_features_both_ways(tmp_path / name)
            assert fm.n > dataprep.BLOCK_ROWS
            assert_same_matrix(got, want)
            assert got.X.flags.c_contiguous

    @pytest.mark.parametrize("rows", [0, 1, dataprep.BLOCK_ROWS, dataprep.BLOCK_ROWS + 1])
    def test_block_edges(self, tmp_path, rows):
        path = tmp_path / "f.csv"
        lines = (f"C{i},{2000 + i % 7},{i / 3!r},{-i},{i % 2}\n" for i in range(rows))
        path.write_text(HEADER + "".join(lines))
        got, want = read_features_both_ways(path)
        assert_same_matrix(got, want)
        assert got.X.shape == (rows, 2)

    @pytest.mark.parametrize("text", [
        "company_id,statement_year,label\nA,2010,1\nB,2011,0\n",  # no feature columns
        HEADER + " A ,+2010, 1.5 ,nan,-0\nB,2_011,inf,1_0,1\n",  # what int() and float() accept
        HEADER + '"quoted, id","2010","1e-300","-1e300","0"\n',
    ])
    def test_cells_match(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text)
        got, want = read_features_both_ways(path)
        assert_same_matrix(got, want)

    @pytest.mark.parametrize("text", [
        "",
        "company_id,year,f0,label\n",
        HEADER + GOOD + "\n" + GOOD,  # a blank line is a row of 0 cells
        HEADER + GOOD + "B,2011,0.5,0\n",
        HEADER + GOOD + "B,2011,0.5,0.1,0,9\n",
        HEADER + '"two\nlines",2010,0.5,0.1,0\n' + "B,2011,0.5\n",
        HEADER + GOOD * (dataprep.BLOCK_ROWS + 5) + "B,2011\n",
    ])
    def test_same_error_for_bad_shapes(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text)
        got, want = read_features_both_ways(path)
        assert got == want and got[0] is ValueError

    @pytest.mark.parametrize("bad_row, line", [
        ("B,2010.0,0.5,0.1,0", 3),  # not an int() literal
        ("B,2010,abc,0.1,0", 3),
        ("B,2010,0.5,0.1,x", 3),
        ("B,x,y,0.1,0", 3),  # the year is reported first, as the row loop did
        ("B,2010,0.5,y,0\n" + "C,2011", 3),  # a bad cell before a short row
        ('"two\nlines",2010,0.5,0.1,0\n' + "C,2010,zz,0.1,0", 5),
    ])
    def test_bad_cells_keep_the_loop_message_after_the_line(self, tmp_path, bad_row, line):
        path = tmp_path / "f.csv"
        path.write_text(HEADER + GOOD + bad_row + "\n")
        got, want = read_features_both_ways(path)
        assert got == (ValueError, f"{path} line {line}: {want[1]}")
        assert want[0] is ValueError and not want[1].startswith(str(path))

    def test_bad_cell_in_a_later_block(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(HEADER + GOOD * (2 * dataprep.BLOCK_ROWS + 3) + "B,2010,0.5,?,0\n" + GOOD)
        got, want = read_features_both_ways(path)
        assert got == (ValueError, f"{path} line {2 * dataprep.BLOCK_ROWS + 5}: {want[1]}")

    def test_year_outside_int64(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(HEADER + f"A,{2**70},0.5,0.1,0\n")
        got, want = read_features_both_ways(path)
        assert got[0] is want[0] is OverflowError


def hand_made_rows():
    """Rows that fail every check alone, and several checks at once."""
    rows = [make_record()]
    rows += [make_record(**{name: None}) for name in REQUIRED_RATIO_FIELDS if name != "country_code"]
    rows += [
        make_record(country_code=None),
        make_record(country_code="US"),
        make_record(statement_year=1999, incorporation_year=2000),
        make_record(total_assets=0.0),
        make_record(gross_income=0.0),
        make_record(total_current_liabilities=0.0),
        make_record(sales=0.0),
        make_record(sales=-0.0),
        make_record(net_worth=float("nan")),
        make_record(financial_debt=float("inf")),
        make_record(total_current_assets=float("-inf")),
        make_record(cash_liquid_assets=float("nan")),
        make_record(working_capital=float("inf")),
        make_record(net_income=float("nan")),
        make_record(total_assets=float("inf")),
        make_record(sales=1e308, previous_sales=-1e308),
        make_record(net_worth=1e308, total_assets=1e-10),
        # several failures at once: the first reason in priority order wins
        make_record(sales=None, net_worth=None, country_code="US"),
        make_record(previous_sales=None, country_code="US", statement_year=1990),
        make_record(country_code="US", statement_year=1990, total_assets=0.0),
        make_record(statement_year=1990, gross_income=0.0, net_income=float("nan")),
        make_record(gross_income=0.0, total_assets=0.0, sales=0.0),
        make_record(sales=0.0, total_current_liabilities=0.0),
        make_record(total_assets=0.0, net_income=float("nan")),
        make_record(net_income=float("nan"), net_worth=float("nan"), sales=float("inf")),
        make_record(gross_income=float("nan"), previous_sales=float("inf")),
        make_record(country_code="", incorporation_year=None),
    ]
    return rows


def random_rows(n, seed):
    rng = np.random.default_rng(seed)
    specials = [None, 0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-320, 1e308]
    floats = [name for name in REQUIRED_RATIO_FIELDS if name not in ("incorporation_year", "country_code")]
    rows = []
    for i in range(n):
        over = {}
        for name in floats:
            if rng.random() < 0.08:
                over[name] = specials[rng.integers(len(specials))]
            else:
                over[name] = float(rng.lognormal(3.0, 2.0) * rng.choice([-1.0, 1.0]))
        over["incorporation_year"] = None if rng.random() < 0.05 else int(rng.integers(1990, 2016))
        country = ["FR", "GB", "NL", "US", None, "fr"][rng.integers(6)]
        rows.append(make_record(f"R{i}", int(rng.integers(2004, 2019)), country_code=country, **over))
    return rows


class TestRejectionReasons:
    @pytest.mark.parametrize("countries", [px.dataprep.DEFAULT_COUNTRIES, ("GB", "FR", "GB")])
    def test_hand_made_rows(self, countries):
        labeled = [(rec, i % 2) for i, rec in enumerate(hand_made_rows())]
        fm, rejections = features_of(labeled, countries)
        want_fm, want_rejections = ref.build_feature_matrix(labeled, countries)
        assert_same_matrix(fm, want_fm)
        assert rejections == want_rejections
        reasons = {r.reason.split(":")[0] for r in rejections}
        assert reasons == {"missing", "unknown_country", "invalid", "zero_denominator", "nonfinite"}

    @pytest.mark.parametrize("seed", range(3))
    def test_random_rows(self, seed):
        labeled = [(rec, seed % 2) for rec in random_rows(1500, seed)]
        fm, rejections = features_of(labeled)
        want_fm, want_rejections = ref.build_feature_matrix(labeled)
        assert_same_matrix(fm, want_fm)
        assert rejections == want_rejections

    def test_empty_input(self):
        fm, rejections = features_of([])
        want_fm, _ = ref.build_feature_matrix([])
        assert_same_matrix(fm, want_fm)
        assert rejections == [] and column_labels(ref.to_statements([])) == []


class TestExtremeYears:
    YEARS = [(2010, -2**63), (2**63 - 1, -1), (2**63 - 1, -2**63), (-2**63, 1), (-2**63, 2**63 - 1),
             (2**63 - 1, 2**63 - 1), (2**53 + 1, -1), (2010, 2**62)]

    def test_int64_years_match_the_record_loop(self):
        labeled = [(make_record(f"Y{i}", year, incorporation_year=inc), 0)
                   for i, (year, inc) in enumerate(self.YEARS)]
        fm, rejections = features_of(labeled)
        want_fm, want_rejections = ref.build_feature_matrix(labeled)
        assert_same_matrix(fm, want_fm)
        assert rejections == want_rejections
        assert fm.n == 5 and len(rejections) == 3


def error_of(fn, records):
    with pytest.raises(ValueError) as info:
        fn(records)
    return str(info.value)


class TestLabelErrors:
    @pytest.mark.parametrize("keys", [
        [("A", 2010), ("B", 2010), ("A", 2011), ("A", 2010), ("", 2012)],
        [("A", 2010), ("", 2012), ("A", 2010)],
        [("A", 2010), ("B", 2011), ("B", 2011), ("A", 2010)],
        [("B", 2011), ("A", 2010), ("A", 2011), ("A", 2010), ("B", 2011)],
        [("A", 2010), ("", 2010), ("", 2010)],
    ])
    def test_same_message_and_first_offending_row(self, keys):
        records = [make_record(cid, year) for cid, year in keys]
        statements = ref.to_statements(records)
        assert error_of(dataprep.label_statements, statements) == error_of(ref.label_records, records)
        assert error_of(column_default_rates, statements) == error_of(ref.default_rate_report, records)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_flags_and_gaps(self, seed):
        rng = np.random.default_rng(seed)
        keys = {(f"K{rng.integers(40)}", int(rng.integers(2004, 2016))) for _ in range(400)}
        flags = [True, False, False, None]
        records = [make_record(cid, year, out_of_business=flags[rng.integers(4)])
                   for cid, year in sorted(keys, key=lambda k: rng.random())]
        statements = ref.to_statements(records)
        assert column_labels(statements) == loop_labels(records)
        assert column_default_rates(statements) == ref.default_rate_report(records)

    def test_shuffled_panel_labels_match(self, panel):
        rng = np.random.default_rng(0)
        records = [panel["records"][i] for i in rng.permutation(len(panel["records"]))]
        assert column_labels(ref.to_statements(records)) == loop_labels(records)
