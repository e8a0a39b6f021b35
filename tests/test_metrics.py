import numpy as np
import pytest
import scipy.stats

import pdxplain as px
from pdxplain.metrics import average_ranks


def concordance_auc(labels, scores):
    """Brute-force pairwise oracle: fraction of positive/negative pairs where
    the positive outranks the negative, ties counted one half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def loop_average_ranks(values):
    """Per-element tie scan: the reference the vectorized ranks must equal
    float for float."""
    values = np.asarray(values)
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    @pytest.mark.parametrize("levels", [1, 2, 3, 7, 1000])
    def test_heavy_ties_match_scipy_and_the_loop(self, levels):
        rng = np.random.default_rng(levels)
        for n in (1, 2, 5, 64, 999):
            values = rng.integers(0, levels, size=n) / 4.0
            ranks = average_ranks(values)
            np.testing.assert_array_equal(ranks, scipy.stats.rankdata(values, method="average"))
            np.testing.assert_array_equal(ranks, loop_average_ranks(values))

    def test_empty(self):
        assert average_ranks(np.array([])).shape == (0,)

    def test_auc_unchanged_under_ties(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=500)
        scores = rng.integers(0, 9, size=500) / 8.0
        ranks = loop_average_ranks(scores)
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        want = (float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert px.roc_auc(labels, scores) == want


class TestAuc:
    def test_hand_case(self):
        # pairs: (.35,.1) ok, (.35,.4) no, (.8,.1) ok, (.8,.4) ok -> 3/4
        report = px.evaluate([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
        assert report.auc == 0.75

    def test_perfect_predictor(self):
        report = px.evaluate([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert (report.accuracy, report.precision, report.recall, report.f1, report.auc) == (
            1.0,
            1.0,
            1.0,
            1.0,
            1.0,
        )

    def test_matches_concordance_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(2, 120))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 6, size=n) / 5.0
            assert abs(px.roc_auc(labels, scores) - concordance_auc(labels, scores)) <= 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        scores = rng.random(50)
        squashed = 1.0 / (1.0 + np.exp(-3.0 * (scores - 0.5)))
        assert abs(px.roc_auc(labels, scores) - px.roc_auc(labels, squashed)) < 1e-12

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        scores = rng.random(40)
        assert abs(px.roc_auc(labels, scores) - px.roc_auc(1 - labels, 1.0 - scores)) < 1e-12

    def test_all_tied_scores(self):
        assert px.roc_auc(np.array([0, 1]), np.array([0.5, 0.5])) == 0.5

    def test_single_class_is_undefined(self):
        report = px.evaluate([1, 1, 1], [0.2, 0.6, 0.9])
        assert report.auc is None
        assert report.recall == 2 / 3  # other metrics still computed
        assert report.n == 3


class TestThresholdMetrics:
    def test_all_negative_predictions_degenerate(self):
        labels = np.array([0] * 97 + [1] * 3)
        probs = np.full(100, 0.01)
        report = px.evaluate(labels, probs)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
        assert report.accuracy == 0.97  # majority rate

    def test_counts_partition(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=200)
        probs = rng.random(200)
        report = px.evaluate(labels, probs)
        assert report.tp + report.fp + report.tn + report.fn == report.n == 200
        assert report.accuracy == (report.tp + report.tn) / report.n

    def test_f1_consistency(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, size=150)
        labels[:2] = [0, 1]
        probs = rng.random(150)
        r = px.evaluate(labels, probs)
        if r.precision + r.recall > 0:
            expect = 2 * r.precision * r.recall / (r.precision + r.recall)
            assert abs(r.f1 - expect) < 1e-15

    def test_threshold_is_inclusive(self):
        report = px.evaluate([1], [0.5], threshold=0.5)
        assert report.tp == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            px.evaluate([0, 1], [0.5])
        with pytest.raises(ValueError):
            px.evaluate([0, 2], [0.5, 0.5])
        with pytest.raises(ValueError):
            px.evaluate([0, 1], [0.5, 1.5])
        with pytest.raises(ValueError):
            px.evaluate([0, 1], [0.5, 0.5], threshold=1.5)

    def test_report_round_trip(self, tmp_path):
        report = px.evaluate([0, 1, 1], [0.2, 0.6, 0.9])
        path = tmp_path / "eval.json"
        report.save(path)
        import json

        back = px.EvalReport.from_dict(json.loads(path.read_text()))
        assert back == report
