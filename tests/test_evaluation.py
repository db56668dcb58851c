"""Tests for change-detection accuracy metrics."""
import numpy as np
import pytest

from cloudchange.evaluation import (
    ChangeMetrics,
    ConfusionCounts,
    change_metrics,
    confusion_counts,
)
from cloudchange.geometry import ChangeLabel
from cloudchange.registration import DISTANCE_PERCENTILES, DistanceReport

CHANGED = int(ChangeLabel.CHANGED)
UNCHANGED = int(ChangeLabel.UNCHANGED)
UNKNOWN = int(ChangeLabel.UNKNOWN)


class TestConfusionCounts:
    def test_matches_per_point_tally(self):
        rng = np.random.default_rng(0)
        predicted = rng.choice([UNCHANGED, CHANGED], 5000)
        truth = rng.choice([UNCHANGED, CHANGED, UNKNOWN], 5000, p=[0.5, 0.4, 0.1])
        counts = confusion_counts(predicted, truth)
        tally = {"tp": 0, "fp": 0, "fn": 0, "tn": 0, "unknown": 0}
        for p, t in zip(predicted, truth):
            if t == UNKNOWN:
                tally["unknown"] += 1
            elif p == CHANGED and t == CHANGED:
                tally["tp"] += 1
            elif p == CHANGED:
                tally["fp"] += 1
            elif t == CHANGED:
                tally["fn"] += 1
            else:
                tally["tn"] += 1
        assert counts.to_dict() == tally
        assert counts.evaluated == 5000 - tally["unknown"]

    def test_order_invariant(self):
        rng = np.random.default_rng(3)
        predicted = rng.choice([UNCHANGED, CHANGED], 1000)
        truth = rng.choice([UNCHANGED, CHANGED], 1000)
        perm = rng.permutation(1000)
        assert confusion_counts(predicted, truth) == confusion_counts(
            predicted[perm], truth[perm]
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="differ in length"):
            confusion_counts([CHANGED], [CHANGED, CHANGED])
        with pytest.raises(ValueError, match="predicted labels"):
            confusion_counts([UNKNOWN], [CHANGED])
        with pytest.raises(ValueError, match="truth labels"):
            confusion_counts([CHANGED], [77])
        with pytest.raises(ValueError, match="one-dimensional"):
            confusion_counts(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="tp"):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)

    def test_rejects_non_whole_labels(self):
        # A cast first would score 0.5 and 1.7 as UNCHANGED and CHANGED.
        with pytest.raises(ValueError, match="predicted labels"):
            confusion_counts([0.5, 1.7], [UNCHANGED, CHANGED])
        with pytest.raises(ValueError, match="truth labels"):
            confusion_counts([UNCHANGED, CHANGED], [0.0, 1.5])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="predicted labels"):
                confusion_counts([bad], [CHANGED])
            with pytest.raises(ValueError, match="truth labels"):
                confusion_counts([CHANGED], [bad])
        # Whole floats are labels.
        assert confusion_counts(
            np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0])
        ) == confusion_counts([UNCHANGED, CHANGED, CHANGED], [UNCHANGED, CHANGED, UNKNOWN])


class TestChangeMetrics:
    def test_balanced_detection_scores(self):
        # A detector at precision 0.9299 and recall 0.9153: integer counts
        # with exactly those ratios give F1 = 0.9225 and IoU = 0.8563.
        counts = ConfusionCounts(tp=9299 * 9153, fp=701 * 9153, fn=847 * 9299, tn=0)
        metrics = change_metrics(counts)
        assert metrics.precision == pytest.approx(0.9299, abs=1e-12)
        assert metrics.recall == pytest.approx(0.9153, abs=1e-12)
        assert metrics.f1 == pytest.approx(0.9225, abs=1e-3)
        assert metrics.iou == pytest.approx(0.8563, abs=1e-3)

    def test_conservative_detection_scores(self):
        # Near-perfect precision at low recall: F1 = 0.7834, IoU = 0.6440.
        counts = ConfusionCounts(tp=9999 * 6440, fp=1 * 6440, fn=3560 * 9999, tn=0)
        metrics = change_metrics(counts)
        assert metrics.precision == pytest.approx(0.9999, abs=1e-12)
        assert metrics.recall == pytest.approx(0.6440, abs=1e-12)
        assert metrics.f1 == pytest.approx(0.7834, abs=1e-3)
        assert metrics.iou == pytest.approx(0.6440, abs=1e-3)

    def test_identities_on_random_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tp, fp, fn = (int(v) for v in rng.integers(1, 10_000, 3))
            m = change_metrics(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=0))
            assert m.f1 == pytest.approx(
                2 * m.precision * m.recall / (m.precision + m.recall)
            )
            assert m.iou == pytest.approx(
                m.precision * m.recall / (m.precision + m.recall - m.precision * m.recall)
            )
            assert m.iou == pytest.approx(tp / (tp + fp + fn))

    def test_undefined_metrics_are_none_not_zero(self):
        nothing_predicted = change_metrics(ConfusionCounts(tp=0, fp=0, fn=5, tn=5))
        assert nothing_predicted.precision is None
        assert nothing_predicted.recall == 0.0
        assert nothing_predicted.f1 is None

        nothing_true = change_metrics(ConfusionCounts(tp=0, fp=5, fn=0, tn=5))
        assert nothing_true.recall is None
        assert nothing_true.precision == 0.0

        all_negative = change_metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=9))
        assert all_negative == ChangeMetrics(None, None, None, None)

        zero_tp = change_metrics(ConfusionCounts(tp=0, fp=3, fn=4, tn=0))
        assert zero_tp.precision == 0.0 and zero_tp.recall == 0.0
        assert zero_tp.f1 is None  # harmonic mean of two zeros is undefined
        assert zero_tp.iou == 0.0

    def test_perfect_detection(self):
        metrics = change_metrics(ConfusionCounts(tp=100, fp=0, fn=0, tn=50))
        assert metrics == ChangeMetrics(1.0, 1.0, 1.0, 1.0)

    def test_to_dict_keeps_none(self):
        payload = change_metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=1)).to_dict()
        assert payload == {"precision": None, "recall": None, "f1": None, "iou": None}


class TestDistanceStats:
    """The distance summary a DistanceReport carries."""

    @staticmethod
    def report(distances) -> DistanceReport:
        distances = np.asarray(distances, dtype=np.float64)
        return DistanceReport(distances, np.zeros(len(distances), dtype=bool))

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(8)
        distances = rng.exponential(0.05, 4000)
        report = self.report(distances)
        assert report.mean == np.mean(distances)
        assert report.std == np.std(distances, ddof=0)
        expected = np.percentile(distances, DISTANCE_PERCENTILES)
        assert report.to_dict()["percentiles_m"] == {
            str(p): float(v) for p, v in zip(DISTANCE_PERCENTILES, expected)
        }

    def test_to_dict_layout(self):
        payload = self.report([1.0, 2.0, 3.0]).to_dict(bins=2)
        assert payload == {
            "count": 3,
            "mean_m": 2.0,
            "std_m": pytest.approx(np.std([1.0, 2.0, 3.0])),
            "percentiles_m": {"50": 2.0, "90": pytest.approx(2.8), "95": pytest.approx(2.9)},
            "n_degenerate": 0,
            "histogram_counts": [1, 2],
            "histogram_edges_m": [1.0, 2.0, 3.0],
        }

    def test_empty_report_has_no_percentiles(self):
        report = self.report([])
        assert report.mean == 0.0 and report.std == 0.0
        payload = report.to_dict()
        assert payload["count"] == 0
        assert payload["percentiles_m"] == {"50": None, "90": None, "95": None}
