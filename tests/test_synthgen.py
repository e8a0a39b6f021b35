import tracemalloc

import numpy as np
import pytest

import pdxplain as px
from pdxplain.synthgen import GRADE_FRACTIONS, MASKABLE_FIELDS

from conftest import make_record
from record_loops import to_statements


def panel_bytes(config, tmp_path, name):
    """data.npz bytes of the panel ``config`` generates."""
    path = tmp_path / name
    px.generate_statements(config)[0].save(path)
    return path.read_bytes()


def labeled_keys(st):
    """(company_id, year) -> label of every labeled row of ``st``."""
    rows, labels = px.label_statements(st)
    keys = zip(st.values["company_id"][rows].tolist(), st.values["statement_year"][rows].tolist())
    return dict(zip(keys, labels.tolist()))


def default_rates(st):
    rows, labels = px.label_statements(st)
    return px.yearly_default_rates(st.values["statement_year"][rows], labels)


def by_company(st, name):
    """Company id -> the ``name`` cells of its rows, in row order."""
    out = {}
    for cid, value in zip(st.values["company_id"].tolist(), st.values[name].tolist()):
        out.setdefault(cid, []).append(value)
    return out


@pytest.fixture(scope="module")
def big_panel():
    """The dataset-scale panel at the reference imbalance, reused across the
    rate and band tests because generating it is the expensive part."""
    cfg = px.GeneratorConfig(
        n_companies=20000, year_range=(2004, 2018), imbalance_ratio=114.75,
        signal_strength=1.2, seed=101,
    )
    return px.generate_statements(cfg)


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = px.GeneratorConfig(
            n_companies=400, year_range=(2005, 2014), imbalance_ratio=12.0,
            missing_rates={"sales": 0.1}, signal_strength=0.8, seed=7,
        )
        a = panel_bytes(cfg, tmp_path, "a.npz")
        b = panel_bytes(cfg, tmp_path, "b.npz")
        assert a == b

    def test_different_seed_differs(self, tmp_path):
        base = dict(
            n_companies=400, year_range=(2005, 2014), imbalance_ratio=12.0,
            signal_strength=0.8,
        )
        a = panel_bytes(px.GeneratorConfig(seed=1, **base), tmp_path, "a.npz")
        b = panel_bytes(px.GeneratorConfig(seed=2, **base), tmp_path, "b.npz")
        assert a != b


class TestCalibration:
    def test_reference_imbalance_hits_band(self, big_panel):
        _, oracle = big_panel
        assert 0.0069 <= oracle.realized_rate <= 0.0104  # 20% rel. of 1/115.75

    def test_realized_rate_matches_labeled_rows(self, big_panel):
        statements, oracle = big_panel
        _, labels = px.label_statements(statements)
        rate = np.mean(labels)
        assert rate == pytest.approx(oracle.realized_rate, abs=1e-12)

    def test_unreachable_target_names_range(self):
        cfg = px.GeneratorConfig(
            n_companies=300, year_range=(2004, 2013), imbalance_ratio=200.0,
            signal_strength=60.0, seed=5,
        )
        with pytest.raises(px.GenerationError, match="achievable range"):
            px.generate_statements(cfg)

    def test_no_signal_means_no_discrimination(self):
        cfg = px.GeneratorConfig(
            n_companies=2500, year_range=(2004, 2018), imbalance_ratio=8.0,
            signal_strength=0.0, seed=11,
        )
        statements, _ = px.generate_statements(cfg)
        prep = px.prepare(statements, px.SplitSpec(seed=1))
        model = px.fit("lr", prep.split.train, {"epochs": 200})
        report = px.evaluate(
            prep.split.validation.y, px.predict_proba(model, prep.split.validation)
        )
        assert abs(report.auc - 0.5) <= 0.05

    def test_oracle_auc_monotone_in_signal_strength(self):
        aucs = []
        for strength in (0.0, 1.0, 2.0):
            cfg = px.GeneratorConfig(
                n_companies=2500, year_range=(2004, 2018), imbalance_ratio=8.0,
                signal_strength=strength, seed=13,
            )
            statements, oracle = px.generate_statements(cfg)
            labels = labeled_keys(statements)
            y = np.array([labels[k] for k in zip(oracle.company_ids, oracle.years)])
            aucs.append(px.roc_auc(y, oracle.propensity))
        assert aucs[0] <= aucs[1] <= aucs[2]


class TestPanelShape:
    def test_consecutive_statement_years(self):
        cfg = px.GeneratorConfig(
            n_companies=300, year_range=(2004, 2012), imbalance_ratio=10.0, seed=3
        )
        statements, _ = px.generate_statements(cfg)
        for years in by_company(statements, "statement_year").values():
            assert years == list(range(min(years), max(years) + 1))

    def test_at_most_one_default_then_exit(self):
        cfg = px.GeneratorConfig(
            n_companies=500, year_range=(2004, 2014), imbalance_ratio=5.0,
            signal_strength=1.0, seed=4,
        )
        statements, _ = px.generate_statements(cfg)
        years = by_company(statements, "statement_year")
        for cid, flags in by_company(statements, "out_of_business").items():
            flags = [flag for _, flag in sorted(zip(years[cid], flags))]
            assert sum(flags) <= 1
            if any(flags):
                assert flags[-1] is True  # default is the final statement

    def test_missing_rates_applied(self):
        cfg = px.GeneratorConfig(
            n_companies=900, year_range=(2004, 2014), imbalance_ratio=10.0,
            missing_rates={"working_capital": 0.3, "sales": 0.0}, seed=6,
        )
        statements, _ = px.generate_statements(cfg)
        frac = statements.missing["working_capital"].mean()
        assert abs(frac - 0.3) < 0.04
        assert not statements.missing["sales"].any()
        assert not statements.missing["out_of_business"].any()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            px.GeneratorConfig(n_companies=0, year_range=(2004, 2010))
        with pytest.raises(ValueError):
            px.GeneratorConfig(n_companies=10, year_range=(2010, 2010))
        with pytest.raises(ValueError):
            px.GeneratorConfig(n_companies=10, year_range=(2004, 2010), imbalance_ratio=0.5)
        with pytest.raises(ValueError):
            px.GeneratorConfig(
                n_companies=10, year_range=(2004, 2010), missing_rates={"company_id": 0.1}
            )
        with pytest.raises(ValueError):
            px.GeneratorConfig(
                n_companies=10, year_range=(2004, 2010), missing_rates={"sales": 1.4}
            )

    def test_maskable_fields_exclude_identity_and_label_source(self):
        assert "company_id" not in MASKABLE_FIELDS
        assert "statement_year" not in MASKABLE_FIELDS
        assert "out_of_business" not in MASKABLE_FIELDS


class TestMemory:
    def test_peak_is_at_most_four_times_the_columns(self):
        """The generator holds its quantities at the filing cells, not on the
        company x year grid (7.7 times the columns' bytes on the grid)."""
        config = px.GeneratorConfig(n_companies=4000, year_range=(2004, 2018), imbalance_ratio=12.0, seed=3)
        tracemalloc.start()
        try:
            st, _ = px.generate_statements(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(a.nbytes for a in (*st.values.values(), *st.missing.values()))
        assert peak <= 4 * columns


class TestDefaultRateReport:
    def test_hand_counted_year(self):
        records = []
        for i in range(1000):
            records.append(make_record(f"C{i}", 2010, out_of_business=False))
            records.append(make_record(f"C{i}", 2011, out_of_business=i < 15))
        report = default_rates(to_statements(records))
        row_2010 = next(r for r in report if r["year"] == 2010)
        assert row_2010["count"] == 1000
        assert row_2010["defaults"] == 15
        assert row_2010["rate"] == pytest.approx(0.015)

    def test_empty_input(self):
        assert default_rates(to_statements([])) == []

    def test_reference_imbalance_rates_stay_in_sanity_band(self, big_panel):
        statements, _ = big_panel
        report = default_rates(statements)
        busy = [r for r in report if r["count"] >= 1000]
        assert busy, "expected several high-volume years"
        in_band = [r for r in busy if 0.005 <= r["rate"] <= 0.02]
        assert len(in_band) >= 0.7 * len(busy)


class TestReferenceGrades:
    def test_all_grades_present_with_quantile_fractions(self, big_panel):
        _, oracle = big_panel
        codes = px.oracle_reference_grades(oracle)
        assert codes.shape == (len(oracle.company_ids),)
        counts = np.bincount(codes, minlength=len(px.GRADES))
        assert counts.size == len(px.GRADES)
        for count, frac in zip(counts, GRADE_FRACTIONS):
            assert count > 0
            assert abs(count / codes.size - frac) < 0.02

    def test_grades_cover_exactly_the_labeled_rows(self, tmp_path):
        cfg = px.GeneratorConfig(
            n_companies=300, year_range=(2004, 2012), imbalance_ratio=10.0, seed=9
        )
        px.pipeline.generate_stage(cfg, tmp_path / "data.npz", tmp_path / "grades.npz")
        ref = px.pipeline.ReferenceGrades.load(tmp_path / "grades.npz")
        graded = set(zip(ref.company_ids.tolist(), ref.years.tolist()))
        assert len(graded) == ref.grades.size
        assert graded == set(labeled_keys(px.Statements.load(tmp_path / "data.npz")))

    def test_bad_fractions_rejected(self):
        cfg = px.GeneratorConfig(
            n_companies=200, year_range=(2004, 2010), imbalance_ratio=10.0, seed=2
        )
        _, oracle = px.generate_statements(cfg)
        with pytest.raises(ValueError):
            px.oracle_reference_grades(oracle, fractions=(0.5, 0.5))
