"""Metric volume of detected changes via a 2.5D ground grid.

Points inside the changed voxels are projected onto the ground plane and
binned into square cells; each occupied cell contributes cell area times
the top-surface height difference between the two epochs. A timeline
report aggregates per-interval volumes into cumulative totals and daily
rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .detection import ChangeSet
from .geometry import PointCloud

__all__ = [
    "GroundGrid",
    "VolumeReport",
    "build_ground_grid",
    "change_volume",
    "timeline_report",
]

_STRIDE = np.int64(1) << np.int64(32)


@dataclass(frozen=True)
class GroundGrid:
    """Sparse 2.5D grid of per-cell height differences.

    Attributes:
        cell_size: grid cell edge, metres.
        origin: (x, y) of the grid corner; cells index from here.
        cells: (n, 2) integer cell coordinates of occupied cells.
        heights: (n,) height difference per occupied cell, metres, >= 0.
        fallback: (n,) True where only one epoch had points in the cell and
            the height fell back to that epoch's own vertical extent.
    """

    cell_size: float
    origin: np.ndarray
    cells: np.ndarray
    heights: np.ndarray
    fallback: np.ndarray

    def __post_init__(self) -> None:
        if not (np.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError(f"cell size must be finite and > 0, got {self.cell_size}")
        if not (len(self.cells) == len(self.heights) == len(self.fallback)):
            raise ValueError("grid arrays must align")
        if len(self.heights) and (np.asarray(self.heights) < 0).any():
            raise ValueError("cell heights must be >= 0")

    @property
    def n_cells(self) -> int:
        return len(self.heights)


def _top_bottom_per_cell(xy: np.ndarray, z: np.ndarray, origin: np.ndarray, s: float):
    """Map points to cells; (sorted cell keys, per-cell max z, per-cell min z)."""
    idx = np.floor((xy - origin) / s).astype(np.int64)
    keys = idx[:, 0] * _STRIDE + idx[:, 1]
    order = np.argsort(keys, kind="stable")
    keys, z = keys[order], z[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], np.maximum.reduceat(z, starts), np.minimum.reduceat(z, starts)


def build_ground_grid(
    changes: ChangeSet,
    earlier: PointCloud,
    later: PointCloud,
    cell_size: Optional[float] = None,
) -> GroundGrid:
    """Project the changed region onto the ground plane.

    Both clouds are restricted to points inside the changed voxels, the
    member indices `changes` already holds, so `earlier` and `later` must be
    the clouds `changes` was detected on. Cells occupied in both epochs get
    h = |z_top(earlier) - z_top(later)|; cells occupied in only one epoch
    fall back to that epoch's own vertical extent in the cell and are
    flagged. The default cell size is the changed-voxel edge. An empty
    ChangeSet yields an empty grid.
    """
    s = changes.voxel_edge if cell_size is None else float(cell_size)
    if not (np.isfinite(s) and s > 0):
        raise ValueError(f"cell size must be finite and > 0, got {s}")
    pts_e, pts_l = earlier.xyz, later.xyz
    if len(pts_e) != changes.reference_size or len(pts_l) != changes.other_size:
        raise ValueError(
            f"clouds of {len(pts_e)} and {len(pts_l)} points do not match the "
            f"{changes.reference_size} and {changes.other_size} points the changes were detected on"
        )
    in_e = pts_e[changes.raw_changed_reference]
    in_l = pts_l[changes.raw_changed_other]
    empty = (np.zeros((0, 2), dtype=np.int64), np.zeros(0), np.zeros(0, dtype=bool))
    if len(in_e) == 0 and len(in_l) == 0:
        return GroundGrid(s, np.zeros(2), *empty)

    # Anchor the grid on the voxel lattice (the grid is the voxels'
    # ground-plane projection), shifted to the occupied corner so cell
    # indices stay small. The lattice corner follows the data, which keeps
    # volumes translation invariant.
    stacked_xy = np.vstack([in_e[:, :2], in_l[:, :2]])
    corner = np.asarray(changes.cube.min_corner[:2], dtype=np.float64)
    origin = corner + np.floor((stacked_xy.min(axis=0) - corner) / s) * s
    per_epoch = [_top_bottom_per_cell(pts[:, :2], pts[:, 2], origin, s) for pts in (in_e, in_l)]
    keys = np.union1d(per_epoch[0][0], per_epoch[1][0])
    # Per epoch and cell: top z and vertical extent, NaN where unoccupied.
    top = np.full((2, len(keys)), np.nan)
    extent = np.full((2, len(keys)), np.nan)
    for k, (keys_k, top_k, bottom_k) in enumerate(per_epoch):
        at = np.searchsorted(keys, keys_k)
        top[k, at] = top_k
        extent[k, at] = top_k - bottom_k
    fallback = np.isnan(top).any(axis=0)
    heights = np.where(fallback, np.fmax(extent[0], extent[1]), np.abs(top[0] - top[1]))
    cells = np.stack([keys // _STRIDE, keys % _STRIDE], axis=1)
    return GroundGrid(s, origin, cells, heights, fallback)


def change_volume(grid: GroundGrid) -> float:
    """Total volume of the grid: sum over cells of cell area times height."""
    return float(np.sum(grid.cell_size**2 * np.asarray(grid.heights)))


def _day_span(a, b) -> float:
    delta = b - a
    if hasattr(delta, "total_seconds"):
        return delta.total_seconds() / 86400.0
    return float(delta)


@dataclass(frozen=True)
class VolumeReport:
    """Per-interval volumes with running totals and daily rates.

    Attributes:
        timestamps: epoch times as given (numbers in days, or date/datetime).
        interval_volumes: cubic metres per consecutive epoch pair.
        cumulative_volumes: running sum of interval volumes.
        daily_rates: interval volume over interval length in days.
    """

    timestamps: Tuple
    interval_volumes: Tuple[float, ...]
    cumulative_volumes: Tuple[float, ...]
    daily_rates: Tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "timestamps": [str(t) for t in self.timestamps],
            "interval_volumes_m3": list(self.interval_volumes),
            "cumulative_volumes_m3": list(self.cumulative_volumes),
            "daily_rates_m3_per_day": list(self.daily_rates),
            "total_volume_m3": self.cumulative_volumes[-1] if self.cumulative_volumes else 0.0,
        }


def timeline_report(timestamps: Sequence, volumes: Sequence[float]) -> VolumeReport:
    """Aggregate per-interval volumes into a volume timeline.

    `timestamps` must be strictly increasing with one entry per epoch;
    `volumes` holds one volume in cubic metres per consecutive epoch pair.
    """
    timestamps = tuple(timestamps)
    if len(timestamps) < 2:
        raise ValueError("timeline needs at least two epochs")
    if len(volumes) != len(timestamps) - 1:
        raise ValueError(
            f"expected {len(timestamps) - 1} volumes for {len(timestamps)} epochs, got {len(volumes)}"
        )
    spans = [_day_span(a, b) for a, b in zip(timestamps, timestamps[1:])]
    if min(spans) <= 0:
        raise ValueError("timestamps must be strictly increasing")
    volumes = [float(v) for v in volumes]
    cumulative = np.cumsum(volumes)
    rates = [v / d for v, d in zip(volumes, spans)]
    return VolumeReport(
        timestamps=timestamps,
        interval_volumes=tuple(volumes),
        cumulative_volumes=tuple(float(c) for c in cumulative),
        daily_rates=tuple(rates),
    )
