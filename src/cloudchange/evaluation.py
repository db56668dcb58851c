"""Accuracy metrics for change detection against labeled ground truth.

Point-level confusion counts and the derived precision/recall/F1/IoU
metrics, with explicit handling of undefined cases.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import ChangeLabel

__all__ = [
    "ChangeMetrics",
    "ConfusionCounts",
    "change_metrics",
    "confusion_counts",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """Point-level 2x2 tally of predicted versus true change labels.

    Attributes:
        tp / fp / fn / tn: standard confusion counts over evaluated points.
        unknown: points whose truth label is UNKNOWN, excluded from the
            tally and reported separately.
    """

    tp: int
    fp: int
    fn: int
    tn: int
    unknown: int = 0

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn", "unknown"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def evaluated(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ChangeMetrics:
    """Detection quality scores; None marks a metric whose denominator is
    zero (undefined, deliberately not reported as 0).

    Attributes:
        precision: tp / (tp + fp).
        recall: tp / (tp + fn).
        f1: harmonic mean of precision and recall.
        iou: tp / (tp + fp + fn).
    """

    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    iou: Optional[float]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _as_labels(values, name: str, allowed) -> np.ndarray:
    """`values` as int64 labels, each one of the ChangeLabel members
    `allowed`. Checked before the cast, which would truncate 0.5 or 1.7 to a
    label; whole floats such as 0.0 and 1.0 pass."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isin(arr, [int(label) for label in allowed]).all():
        raise ValueError(
            f"{name} labels must each be one of {', '.join(label.name for label in allowed)}"
        )
    return arr.astype(np.int64)


def confusion_counts(predicted, truth) -> ConfusionCounts:
    """Tally predicted change labels against the ground truth.

    `predicted` must contain only CHANGED/UNCHANGED; `truth` may also
    contain UNKNOWN, which excludes the point from the tally (counted in
    the `unknown` field instead).
    """
    known_labels = (ChangeLabel.CHANGED, ChangeLabel.UNCHANGED)
    pred = _as_labels(predicted, "predicted", known_labels)
    true = _as_labels(truth, "truth", known_labels + (ChangeLabel.UNKNOWN,))
    if len(pred) != len(true):
        raise ValueError(
            f"label arrays differ in length: predicted {len(pred)}, truth {len(true)}"
        )
    known = true != int(ChangeLabel.UNKNOWN)
    p = pred[known] == int(ChangeLabel.CHANGED)
    t = true[known] == int(ChangeLabel.CHANGED)
    return ConfusionCounts(
        tp=int(np.sum(p & t)),
        fp=int(np.sum(p & ~t)),
        fn=int(np.sum(~p & t)),
        tn=int(np.sum(~p & ~t)),
        unknown=int(np.sum(~known)),
    )


def change_metrics(counts: ConfusionCounts) -> ChangeMetrics:
    """Precision, recall, F1, and IoU from confusion counts.

    Any metric whose denominator is zero comes back as None.
    """
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = None
    iou = tp / (tp + fp + fn) if tp + fp + fn > 0 else None
    return ChangeMetrics(precision=precision, recall=recall, f1=f1, iou=iou)

