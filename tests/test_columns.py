"""The column code in ``dataprep`` and ``synthgen`` against the record loops
it replaced (``record_loops``): same records, labels, features, rejection
reasons and errors, and the same columns back from the stage files."""

import runpy
from pathlib import Path

import numpy as np
import pytest

import pdxplain as px
from pdxplain import dataprep
from pdxplain.dataprep import REQUIRED_RATIO_FIELDS
from pdxplain.pipeline import RunConfig
from pdxplain.synthgen import _calibrate_intercept, _Panel

import record_loops as ref
from conftest import features_of, make_record

ROOT = Path(__file__).resolve().parents[1]

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


def assert_same_statements(got, want):
    assert set(got.values) == set(got.missing) == set(want.values) == set(want.missing)
    for name in want.values:
        np.testing.assert_array_equal(got.values[name], want.values[name])
        np.testing.assert_array_equal(got.missing[name], want.missing[name])
        assert got.values[name].dtype == want.values[name].dtype, name
        assert got.missing[name].dtype == bool


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

    def test_data_npz_round_trip(self, panel, tmp_path):
        panel["statements"].save(tmp_path / "data.npz")
        back = dataprep.Statements.load(tmp_path / "data.npz")
        assert_same_statements(back, panel["statements"])
        assert ref.to_records(back) == panel["records"]

    def test_data_csv_reads_back(self, panel, tmp_path):
        path = tmp_path / "data.csv"
        ref.write_records(path, panel["records"])
        assert ref.to_records(dataprep.read_statements(path)) == panel["records"]

    def test_feature_npz_round_trip(self, panel, tmp_path):
        prep = px.prepare(panel["statements"], px.SplitSpec(seed=4))
        resampled = px.resample(prep.split.train, px.SmoteConfig(seed=2)).data
        for name, fm in (("features.npz", prep.features), ("train_resampled.npz", resampled)):
            fm.save(tmp_path / name)
            back = px.FeatureMatrix.load(tmp_path / name)
            assert_same_matrix(back, fm)
            assert back.X.flags.c_contiguous


def draw_panels(n_companies, imbalance, seed):
    """The package's panel and the grid panel of one config."""
    config = px.GeneratorConfig(n_companies=n_companies, year_range=(2004, 2018),
                                imbalance_ratio=imbalance, seed=seed)
    return _Panel(config), ref.GridPanel(config)


def assert_same_draw(panel, grid, intercept):
    np.testing.assert_array_equal(panel.default_year(intercept), ref.default_year(grid, intercept))
    assert panel.labeled_rate(intercept) == ref.labeled_rate(grid, intercept)


class SingleStatementRng:
    """numpy's generator, except that every third company's filing span
    draw is 0: those companies file one statement (entry == last)."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def geometric(self, p, size):
        draw = self.rng.geometric(p, size=size)
        draw[::3] = 0
        return draw


class TestDefaultDraw:
    """The draw on the window cells against the full-grid draw: the same
    default years at every intercept the bisection visits, so the same
    calibrated intercept (pinned bit for bit)."""

    @pytest.mark.parametrize("n_companies, imbalance, seed, pinned", [
        (8000, 114.75, 2024, "-0x1.6d86dbc1b96d0p+2"),
        (8000, 114.75, 7, "-0x1.6cb19d476426ap+2"),
        (8000, 114.75, 99, "-0x1.7a69a06415846p+2"),
        (3000, 12.0, 2024, "-0x1.91017adb8f5f9p+1"),
        (3000, 12.0, 7, "-0x1.998ce6dfb313ap+1"),
        (3000, 12.0, 99, "-0x1.a21f8c68a7ff7p+1"),
    ])
    def test_every_visited_intercept_matches_the_full_grid(self, n_companies, imbalance, seed, pinned):
        panel, grid = draw_panels(n_companies, imbalance, seed)
        intercept, visited = ref.calibrate_intercept(grid)
        assert len(visited) == 82
        for b in visited:
            assert_same_draw(panel, grid, b)
        assert intercept.hex() == _calibrate_intercept(panel).hex() == pinned

    @pytest.mark.parametrize("intercept", [-500.0, 500.0, -3.0], ids=["none_fire", "all_fire_first", "mixed"])
    def test_single_statement_companies_never_default(self, intercept, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", SingleStatementRng)
        panel, grid = draw_panels(600, 12.0, 5)
        single = np.arange(panel.n) % 3 == 0
        assert (panel.last[single] == panel.entry[single]).all()  # an empty draw window
        assert (np.bincount(panel.c, minlength=panel.n)[single] == 1).all()
        assert not np.isin(panel.win_c, np.flatnonzero(single)).any()
        assert_same_draw(panel, grid, intercept)
        assert (panel.default_year(intercept)[single] == -1).all()

    def test_no_cell_fires(self):
        panel, grid = draw_panels(600, 12.0, 5)
        assert (panel.default_year(-500.0) == -1).all()
        assert panel.labeled_rate(-500.0) == ref.labeled_rate(grid, -500.0) == 0.0

    def test_every_company_defaults_in_its_first_window_year(self):
        panel, grid = draw_panels(600, 12.0, 5)
        np.testing.assert_array_equal(panel.default_year(500.0), panel.entry + 1)
        assert panel.labeled_rate(500.0) == ref.labeled_rate(grid, 500.0) == 1.0


def workload_generators():
    """The GeneratorConfig of each desk-run benchmark workload at seeds 2024 and 7."""
    workloads = runpy.run_path(str(ROOT / "deskbench" / "workloads.py"))  # writes no bytecode
    return [pytest.param(RunConfig.from_dict(workloads["config_doc"](name, seed, ROOT / "src")).generator,
                         id=f"{name}-{seed}")
            for name in workloads["NAMES"] for seed in (2024, 7)]


EDGE_GENERATORS = [
    pytest.param(px.GeneratorConfig(n_companies=800, year_range=(2004, 2018), imbalance_ratio=1.0, seed=3),
                 id="balanced"),
    pytest.param(px.GeneratorConfig(n_companies=800, year_range=(2004, 2018), signal_strength=0.0,
                                    imbalance_ratio=12.0, seed=3), id="no_signal"),
    pytest.param(px.GeneratorConfig(n_companies=800, year_range=(2004, 2018), signal_strength=4.0,
                                    imbalance_ratio=12.0, seed=3), id="sharp_signal"),
    pytest.param(px.GeneratorConfig(n_companies=60, year_range=(2010, 2011), imbalance_ratio=3.0, seed=5),
                 id="two_years"),
]


class TestBisectionFixedPoint:
    """The bisection stops at its fixed point with the intercept of the full
    80-step loop in ``record_loops``, bit for bit."""

    @pytest.mark.parametrize("config", workload_generators() + EDGE_GENERATORS)
    def test_same_intercept_as_eighty_steps(self, config, monkeypatch):
        panel = _Panel(config)
        want, _ = ref.calibrate_intercept(ref.GridPanel(config))
        calls = []
        rate = panel.labeled_rate
        monkeypatch.setattr(panel, "labeled_rate", lambda b: calls.append(b) or rate(b))
        assert _calibrate_intercept(panel).hex() == want.hex()
        assert len(calls) < 82


class TestFilingCells:
    """The panel kept at its filing cells against the grid panel it
    replaced: the same Statements bytes and the same oracle."""

    @pytest.mark.parametrize("config", [p for p in workload_generators() if p.id.startswith("demo_gbt")] + [
        pytest.param(px.GeneratorConfig(n_companies=4000, year_range=(2004, 2018), imbalance_ratio=12.0, seed=3),
                     id="4000_companies"),
        *(p for p in EDGE_GENERATORS if p.id != "no_signal"),
        pytest.param(px.GeneratorConfig(n_companies=3000, year_range=(2004, 2018), imbalance_ratio=12.0, seed=11,
                                        missing_rates={"sales": 0.05, "net_income": 0.02, "country_code": 0.1}),
                     id="missing"),
    ])
    def test_same_bytes_as_the_grid(self, config):
        got, got_oracle = px.generate_statements(config)
        want, want_oracle = ref.generate_on_grid(config)
        assert set(got.values) == set(got.missing) == set(want.values) == set(want.missing)
        for name in want.values:
            for a, b in ((got.values[name], want.values[name]), (got.missing[name], want.missing[name])):
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
        assert got_oracle.company_ids == want_oracle.company_ids
        for name in ("years", "propensity"):
            a, b = getattr(got_oracle, name), getattr(want_oracle, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got_oracle.intercept.hex() == want_oracle.intercept.hex()
        assert (got_oracle.realized_rate, got_oracle.target_rate) == (want_oracle.realized_rate,
                                                                       want_oracle.target_rate)


class TestQuotedText:
    IDS = ["plain", "comma, inc", 'say "hi"', "two\nlines", "cr\rid", " padded", "", "x", "ünï"]

    def test_statements_npz_keep_text(self, tmp_path):
        records = [make_record(cid, 2010 + i, country_code=cc)
                   for i, cid in enumerate(self.IDS) for cc in ("FR", "F,R", None)]
        ref.to_statements(records).save(tmp_path / "data.npz")
        assert ref.to_records(dataprep.Statements.load(tmp_path / "data.npz")) == records

    def test_features_npz_keep_text(self, tmp_path):
        fm, _ = ref.build_feature_matrix([(make_record(cid, 2010), 1) for cid in self.IDS])
        fm.save(tmp_path / "features.npz")
        assert_same_matrix(px.FeatureMatrix.load(tmp_path / "features.npz"), fm)


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
