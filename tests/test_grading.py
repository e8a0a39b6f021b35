import numpy as np
import pytest

import pdxplain as px
from pdxplain.grading import GRADES, GradeCalibration


def random_monotone_mu(rng):
    """A strictly increasing mean-probability vector inside (0, 1)."""
    gaps = rng.uniform(0.01, 0.2, size=6)
    mu = np.cumsum(gaps)
    return mu / (mu[-1] + rng.uniform(0.05, 0.5))


def grades_for(mu, counts, rng):
    grades, probs = [], []
    for g, m, c in zip(GRADES, mu, counts):
        for _ in range(c):
            grades.append(g)
            probs.append(float(np.clip(m + rng.normal(0, 0.005), 0, 1)))
    return grades, np.asarray(probs)


class TestCalibrate:
    def test_midpoint_boundaries(self):
        mu = [0.05, 0.12, 0.16, 0.24, 0.26, 0.31]
        cal = px.calibrate(list(GRADES), mu)
        assert cal.upper_bounds[1] == pytest.approx(0.14)  # B/C boundary
        assert cal.upper_bounds[0] == pytest.approx(0.085)
        assert cal.upper_bounds[-1] == 1.0
        np.testing.assert_allclose(cal.mu, mu)
        np.testing.assert_array_equal(cal.counts, np.ones(6))

    def test_identical_probabilities_rejected(self):
        with pytest.raises(ValueError, match="not strictly increasing"):
            px.calibrate(list(GRADES), [0.2] * 6)

    def test_missing_grade_listed(self):
        with pytest.raises(ValueError, match="\\['F'\\]"):
            px.calibrate(["A", "B", "C", "D", "E"], [0.1, 0.2, 0.3, 0.4, 0.5])

    def test_unknown_grade_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            px.calibrate(["A", "Z"], [0.1, 0.2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            px.calibrate(["A", "B"], [0.1])


class TestPublishedIntervals:
    def test_bundled_table_loads_exact_bounds(self):
        cal = px.load_fixed_intervals()
        np.testing.assert_array_equal(
            cal.upper_bounds, [0.0828, 0.1411, 0.2029, 0.2486, 0.285, 1.0]
        )
        assert cal.mu is None

    def test_probe_probabilities(self):
        cal = px.load_fixed_intervals()
        probes = {0.05: "A", 0.10: "B", 0.15: "C", 0.22: "D", 0.26: "E", 0.30: "F"}
        for prob, grade in probes.items():
            assert px.assign_grade(prob, cal) == grade

    def test_boundary_goes_to_less_risky(self):
        cal = px.load_fixed_intervals()
        assert px.assign_grade(0.1411, cal) == "B"
        assert px.assign_grade(0.0828, cal) == "A"
        assert px.assign_grade(1.0, cal) == "F"
        assert px.assign_grade(0.0, cal) == "A"
        calibrated = px.calibrate(list(GRADES), [0.1, 0.3, 0.4, 0.5, 0.6, 0.7])
        assert calibrated.upper_bounds[0] == 0.2 and px.assign_grade(0.2, calibrated) == "A"
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu = random_monotone_mu(rng)
            calibrated = px.calibrate(list(GRADES), mu)
            assert px.assign_grades(calibrated.upper_bounds, calibrated) == list(GRADES)


class TestAssign:
    def test_argmin_equals_interval_lookup_on_grid(self):
        rng = np.random.default_rng(0)
        grid = np.round(np.arange(0, 10001) * 1e-4, 4)
        for _ in range(5):
            mu = random_monotone_mu(rng)
            with_mu = GradeCalibration(
                upper_bounds=np.concatenate([0.5 * (mu[:-1] + mu[1:]), [1.0]]), mu=mu
            )
            intervals_only = GradeCalibration(upper_bounds=with_mu.upper_bounds)
            assert px.assign_grades(grid, with_mu) == px.assign_grades(grid, intervals_only)

    def test_monotone_in_probability(self):
        rng = np.random.default_rng(1)
        mu = random_monotone_mu(rng)
        cal = px.calibrate(*grades_for(mu, [3] * 6, rng))
        probs = np.sort(rng.random(200))
        indices = [GRADES.index(g) for g in px.assign_grades(probs, cal)]
        assert (np.diff(indices) >= 0).all()

    def test_out_of_range_rejected(self):
        cal = px.load_fixed_intervals()
        with pytest.raises(ValueError):
            px.assign_grade(1.2, cal)


class TestConfusion:
    def test_identical_streams_diagonal(self):
        stream = ["A", "B", "C", "D", "E", "F", "B", "C"]
        conf = px.grade_confusion(stream, stream)
        assert conf.matrix.sum() == 8
        assert np.trace(conf.matrix) == 8
        assert (conf.riskier_fraction, conf.safer_fraction, conf.equal_fraction) == (0, 0, 1)
        assert conf.critical_underestimation == 0

    def test_all_b_mapped_to_f(self):
        conf = px.grade_confusion(["B"] * 5, ["F"] * 5)
        assert conf.matrix[1, 5] == 5
        assert conf.matrix.sum() == 5
        assert conf.riskier_fraction == 1.0

    def test_row_sums_match_reference_counts(self):
        rng = np.random.default_rng(2)
        ref = [GRADES[i] for i in rng.integers(0, 6, size=1000)]
        mapped = [GRADES[i] for i in rng.integers(0, 6, size=1000)]
        conf = px.grade_confusion(ref, mapped)
        for i, g in enumerate(GRADES):
            assert conf.matrix[i].sum() == ref.count(g)

    def test_critical_underestimation_counted(self):
        conf = px.grade_confusion(["E", "F", "F", "A"], ["A", "B", "F", "A"])
        assert conf.critical_underestimation == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            px.grade_confusion(["A"], ["A", "B"])


class TestCalibrationRoundTrip:
    def test_dict_round_trip(self):
        rng = np.random.default_rng(3)
        mu = random_monotone_mu(rng)
        cal = px.calibrate(*grades_for(mu, [4] * 6, rng))
        back = GradeCalibration.from_dict(cal.to_dict())
        np.testing.assert_allclose(back.upper_bounds, cal.upper_bounds)
        np.testing.assert_allclose(back.mu, cal.mu)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            GradeCalibration(upper_bounds=np.array([0.3, 0.2, 0.4, 0.5, 0.6, 1.0]))
        with pytest.raises(ValueError):
            GradeCalibration(upper_bounds=np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.9]))
