"""Core geometric types shared by every stage of the pipeline.

Coordinates are double precision throughout: survey clouds sit at large
georeferenced offsets where float32 loses millimetres.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

# Orthonormality / determinant tolerance for rotation matrices.
ROTATION_TOL = 1e-9


class ChangeLabel(IntEnum):
    """Per-point change label as stored in PLY files (uchar)."""

    UNCHANGED = 0
    CHANGED = 1
    UNKNOWN = 2


def _as_points_array(points, name: str = "points") -> np.ndarray:
    """Coerce to a read-only (n, 3) float64 array, validating finiteness."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite coordinates")
    arr = np.ascontiguousarray(arr)
    return arr


class PointCloud:
    """An immutable set of 3D points with optional per-point attributes.

    Attributes:
        xyz: (n, 3) float64 coordinates in metres.
        colors: optional (n, 3) uint8 RGB.
        labels: optional (n,) uint8 change labels (see ChangeLabel).
        epochs: optional (n,) int32 epoch identifiers.
        extras: extra named per-point arrays carried opaquely through file
            round-trips (unknown PLY vertex properties land here).
    """

    __slots__ = ("xyz", "colors", "labels", "epochs", "extras")

    def __init__(
        self,
        xyz,
        colors=None,
        labels=None,
        epochs=None,
        extras: Optional[dict] = None,
    ) -> None:
        arr = _as_points_array(xyz, "xyz")
        arr.setflags(write=False)
        object.__setattr__(self, "xyz", arr)
        n = len(arr)

        def _attr(values, dtype, width, name):
            if values is None:
                return None
            out = np.asarray(values, dtype=dtype)
            want = (n,) if width == 1 else (n, width)
            if out.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {out.shape}")
            out = np.ascontiguousarray(out)
            out.setflags(write=False)
            return out

        object.__setattr__(self, "colors", _attr(colors, np.uint8, 3, "colors"))
        object.__setattr__(self, "labels", _attr(labels, np.uint8, 1, "labels"))
        object.__setattr__(self, "epochs", _attr(epochs, np.int32, 1, "epochs"))
        clean_extras = {}
        if extras:
            for key, values in extras.items():
                ex = np.ascontiguousarray(np.asarray(values))
                if len(ex) != n:
                    raise ValueError(f"extra '{key}' length {len(ex)} != point count {n}")
                ex.setflags(write=False)
                clean_extras[key] = ex
        object.__setattr__(self, "extras", clean_extras)

    def __setattr__(self, name, value):
        raise AttributeError("PointCloud is immutable")

    def __len__(self) -> int:
        return len(self.xyz)

    def select(self, indices) -> "PointCloud":
        """New cloud holding the given point subset (attributes carried along)."""
        idx = np.asarray(indices)
        return PointCloud(
            self.xyz[idx],
            colors=None if self.colors is None else self.colors[idx],
            labels=None if self.labels is None else self.labels[idx],
            epochs=None if self.epochs is None else self.epochs[idx],
            extras={k: v[idx] for k, v in self.extras.items()},
        )

    def with_attributes(self, colors=None, labels=None, epochs=None) -> "PointCloud":
        """New cloud with the given attributes replaced (others kept)."""
        return PointCloud(
            self.xyz,
            colors=self.colors if colors is None else colors,
            labels=self.labels if labels is None else labels,
            epochs=self.epochs if epochs is None else epochs,
            extras=dict(self.extras),
        )


@dataclass(frozen=True)
class RigidTransform:
    """A 6-DOF rigid motion: x -> rotation @ x + translation.

    Attributes:
        rotation: (3, 3) orthonormal matrix, det +1.
        translation: (3,) metres.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.ascontiguousarray(np.asarray(self.rotation, dtype=np.float64))
        tra = np.ascontiguousarray(np.asarray(self.translation, dtype=np.float64))
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be (3, 3), got {rot.shape}")
        if tra.shape != (3,):
            raise ValueError(f"translation must be (3,), got {tra.shape}")
        err = np.abs(rot.T @ rot - np.eye(3)).max()
        if err > ROTATION_TOL:
            raise ValueError(f"rotation is not orthonormal (max |R^T R - I| = {err:.3e})")
        det = np.linalg.det(rot)
        if abs(det - 1.0) > ROTATION_TOL:
            raise ValueError(f"rotation determinant {det} is not +1")
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation


@dataclass(frozen=True)
class BoundingCube:
    """An axis-aligned cube, the root volume of octree partitioning.

    Attributes:
        min_corner: (3,) metres.
        edge: edge length, metres, > 0.
    """

    min_corner: np.ndarray
    edge: float

    def __post_init__(self) -> None:
        corner = np.ascontiguousarray(np.asarray(self.min_corner, dtype=np.float64))
        if corner.shape != (3,):
            raise ValueError(f"min_corner must be (3,), got {corner.shape}")
        if not np.isfinite(corner).all():
            raise ValueError("min_corner contains non-finite values")
        edge = float(self.edge)
        if not np.isfinite(edge) or edge <= 0.0:
            raise ValueError(f"edge must be finite and > 0, got {edge}")
        corner.setflags(write=False)
        object.__setattr__(self, "min_corner", corner)
        object.__setattr__(self, "edge", edge)

    @property
    def max_corner(self) -> np.ndarray:
        return self.min_corner + self.edge

    @property
    def center(self) -> np.ndarray:
        return self.min_corner + 0.5 * self.edge

    def contains(self, points) -> np.ndarray:
        """Boolean mask: inside or on the boundary of the cube."""
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        inside = np.logical_and(
            (pts >= self.min_corner).all(axis=1),
            (pts <= self.max_corner).all(axis=1),
        )
        return bool(inside[0]) if single else inside


def apply_transform(cloud: PointCloud, transform: RigidTransform) -> PointCloud:
    """Rigidly transform a cloud, preserving every per-point attribute."""
    return PointCloud(
        transform.apply(cloud.xyz),
        colors=cloud.colors,
        labels=cloud.labels,
        epochs=cloud.epochs,
        extras=dict(cloud.extras),
    )


# Rows per line of the wide view that axis_bounds reduces: 256 rows of
# (x, y, z) are 768 doubles, a 6 KiB accumulator that stays in L1. On
# 288,000 uniform points (Xeon, numpy 2.4.6, min of 40) the bounds took
# 1.26 / 1.01 / 0.91 / 0.95 ms with lines of 64 / 128 / 256 / 512 rows,
# against 2.3 ms for six column reductions.
_BOUND_ROWS = 256


def axis_bounds(xyz: np.ndarray) -> tuple:
    """(lo, hi): the per-axis minimum and maximum of a nonempty (n, 3)
    float64 array.

    The first n - n % 256 rows are viewed as lines of 256 rows, 768 values
    each, and reduced down the lines: one contiguous pass for the minimum
    and one for the maximum, where a column reduction strides over the
    other two axes. The 256 partial results of each axis are then folded
    with the remaining rows. Min and max are exact, so this equals
    `xyz.min(axis=0)` and `xyz.max(axis=0)`, except that a tie of -0.0 with
    0.0 may give either, as numpy's own reductions do depending on order.
    A non-contiguous array is copied to take the view.
    """
    n = len(xyz)
    if not n:
        raise ValueError("cannot bound an empty cloud")
    full = n - n % _BOUND_ROWS
    rest = xyz[full:]
    if not full:
        return rest.min(axis=0), rest.max(axis=0)
    wide = xyz[:full].reshape(-1, 3 * _BOUND_ROWS)
    lo = np.vstack([wide.min(axis=0).reshape(_BOUND_ROWS, 3), rest]).min(axis=0)
    hi = np.vstack([wide.max(axis=0).reshape(_BOUND_ROWS, 3), rest]).max(axis=0)
    return lo, hi


def bounding_box(*clouds: PointCloud) -> tuple:
    """(lo, hi): the per-axis minimum and maximum over every point of the
    clouds, as `np.vstack` of them reduced along axis 0 would give. Each
    cloud is bounded in one pass of `axis_bounds`, and the clouds' bounds
    are folded."""
    bounds = [axis_bounds(cloud.xyz) for cloud in clouds if len(cloud)]
    if not bounds:
        raise ValueError("cannot bound an empty cloud")
    lows, highs = zip(*bounds)
    return np.min(lows, axis=0), np.max(highs, axis=0)


def bounding_cube(*clouds: PointCloud, padding: float = 0.0) -> BoundingCube:
    """Smallest axis-aligned cube containing every point of the clouds, grown
    by `padding`.

    The cube is centred on the tight bounding box; its edge is the largest
    axis extent plus twice the padding.
    """
    if padding < 0.0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    lo, hi = bounding_box(*clouds)
    edge = float((hi - lo).max()) + 2.0 * padding
    if edge <= 0.0:
        raise ValueError("degenerate cloud (all points coincide) needs padding > 0")
    center = 0.5 * (lo + hi)
    # Rounding can leave an extreme point a ulp outside the cube; nudge the
    # edge up until the centred cube provably contains everything.
    for _ in range(8):
        corner = np.clip(center - 0.5 * edge, hi - edge, lo)
        if (corner <= lo).all() and (corner + edge >= hi).all():
            return BoundingCube(corner, edge)
        edge = float(np.nextafter(edge, np.inf))
    raise AssertionError("bounding cube construction failed to converge")
