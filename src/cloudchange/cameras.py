"""Photogrammetric camera model: poses, calibration, observation and point tables, projection.

The projection is a pinhole with polynomial radial distortion applied to
normalized image coordinates: p = R (X - C); (u, v) = (p_x/p_z, p_y/p_z);
r^2 = u^2 + v^2; (u_d, v_d) = (u, v) (1 + k1 r^2 + k2 r^4); pixel = f u_d + cx,
f v_d + cy. R maps object frame to camera frame, +z looking out of the camera.

Observations and object points are 1-D structured arrays of OBSERVATION_DTYPE
and POINT_DTYPE rows, made and checked by observation_table and point_table.

One kernel evaluates the model and its analytic Jacobians. It runs over
groups of observations, each seen by one camera and padded to a common
width, takes one rotation matrix, center and calibration per group, and
returns every pixel coordinate and Jacobian component as its own
camera-major array (structure of arrays). The bundle adjustment reads those
arrays straight into its normal equations; project_points and
projection_jacobians call the same kernel with a single group.

The kernel writes into buffers the caller passes as `out`: the bundle
adjustment passes its layout's resident ones, and the results are views of
them, valid only until its next kernel call on that layout. Called without
`out`, as project_points and projection_jacobians call it, it allocates its
own, and the caller owns the results.
"""
from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from scipy.spatial.transform import Rotation


@dataclass(frozen=True)
class ExteriorOrientation:
    """Camera pose: projection center and object-to-camera rotation.

    Attributes:
        center: camera center in the object frame, metres.
        rotation: axis-angle vector of the object-to-camera rotation,
            radians, canonical (magnitude < pi).
    """

    center: np.ndarray
    rotation: np.ndarray

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=np.float64).reshape(3).copy()
        rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3).copy()
        for name, value in (("center", center), ("rotation", rotation)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name}: camera pose must be finite")
        if np.linalg.norm(rotation) >= np.pi:
            raise ValueError(
                f"rotation: axis-angle magnitude must be < pi, got {np.linalg.norm(rotation):.6f}"
            )
        center.flags.writeable = False
        rotation.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "rotation", rotation)

    @property
    def matrix(self) -> np.ndarray:
        """3x3 object-to-camera rotation matrix."""
        return Rotation.from_rotvec(np.array(self.rotation)).as_matrix()

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, center) -> "ExteriorOrientation":
        return cls(center, Rotation.from_matrix(np.asarray(matrix)).as_rotvec())

    def perturbed(self, delta_rotation, delta_center) -> "ExteriorOrientation":
        """Pose after a local right-multiplied rotation increment and a
        center shift: R <- R exp([delta_rotation]x), C <- C + delta_center."""
        new_matrix = self.matrix @ Rotation.from_rotvec(delta_rotation).as_matrix()
        return ExteriorOrientation.from_matrix(new_matrix, self.center + delta_center)


@dataclass(frozen=True)
class SelfCalibration:
    """Interior camera model shared by one epoch's images.

    Attributes:
        focal_length: pixels.
        cx / cy: principal point, pixels.
        k1 / k2: radial distortion coefficients applied to normalized
            (dimensionless) image radii.
    """

    focal_length: float
    cx: float = 0.0
    cy: float = 0.0
    k1: float = 0.0
    k2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("focal_length", "cx", "cy", "k1", "k2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: calibration parameters must be finite")
        if self.focal_length <= 0:
            raise ValueError(f"focal_length: focal_length must be > 0, got {self.focal_length}")

    def as_array(self) -> np.ndarray:
        return np.array([self.focal_length, self.cx, self.cy, self.k1, self.k2])

    @classmethod
    def from_array(cls, values) -> "SelfCalibration":
        f, cx, cy, k1, k2 = (float(v) for v in values)
        return cls(f, cx, cy, k1, k2)


# Rows of image points (a track measured in a camera, weighted in the
# adjustment) and of object points, named like a scenario file's keys.
OBSERVATION_DTYPE = np.dtype(
    [("camera", np.int64), ("track", np.int64)]
    + [(name, np.float64) for name in ("x", "y", "weight")]
)
POINT_DTYPE = np.dtype([("track", np.int64), ("position", np.float64, (3,))])


def _table(rows, dtype: np.dtype, where: str, positive=()) -> np.ndarray:
    """`rows`, a 1-D structured array with the fields of `dtype` in its order
    and of its shapes, or an empty sequence, as a table of `dtype`; one of
    `dtype` comes back as it is. An integer field must hold an integer type
    (a bool or float column is refused, not truncated), and every other field
    finite numbers, > 0 in the fields `positive` names. A fault is a
    ValueError naming `where` and the first faulty row and field."""
    if not isinstance(rows, np.ndarray):
        if len(rows):
            raise ValueError(f"{where}: expected a table, got {type(rows).__name__}")
        return np.empty(0, dtype)
    fields = [(name, rows.dtype[name].shape) for name in rows.dtype.names or ()]
    if rows.ndim != 1 or fields != [(name, dtype[name].shape) for name in dtype.names]:
        raise ValueError(f"{where}: expected a 1-D table of the fields {dtype.names}")
    for name in dtype.names:
        column, kind, shape = rows[name], rows[name].dtype.kind, dtype[name].shape
        number = f"{shape[0]} {{}}numbers" if shape else "a {}number"
        if dtype[name].kind == "i":
            expected, bad = "an integer", np.full(len(column), kind not in "iu")
        elif kind not in "iuf":
            expected, bad = number.format(""), np.full(len(column), True)
        else:
            good = np.isfinite(column) & ((column > 0) if name in positive else True)
            expected = number.format("finite ") + (" > 0" if name in positive else "")
            bad = ~good.reshape(len(column), np.prod(shape, dtype=int)).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{where}[{i}].{name}: expected {expected}, got {column[i].tolist()!r}")
    return rows.astype(dtype, copy=False)


def _table_of(dtype: np.dtype, **columns) -> np.ndarray:
    """A table of `dtype` filled from one array or list per field."""
    table = np.empty(len(next(iter(columns.values()))), dtype)
    for name, column in columns.items():
        table[name] = np.reshape(column, table[name].shape)
    return table


def observation_table(observations, where: str = "observations") -> np.ndarray:
    """`observations` as a checked table of OBSERVATION_DTYPE rows (see
    _table): integer camera and track ids, finite x and y, and each weight
    finite and > 0, e.g. "observations[3].x: expected a finite number, got nan"."""
    return _table(observations, OBSERVATION_DTYPE, where, positive=("weight",))


def point_table(points, where: str = "points") -> np.ndarray:
    """`points` as a checked table of POINT_DTYPE rows (see _table), sorted by
    track, of which none repeats; one already sorted comes back as it is.
    Each position must be 3 finite numbers, e.g. "points[3].position:
    expected 3 finite numbers, got [nan, 0.0, 0.0]"."""
    table = _table(points, POINT_DTYPE, where)
    tracks = table["track"]
    if (np.diff(tracks) > 0).all():
        return table
    order = np.argsort(tracks, kind="stable")
    # Stable order puts each repeat after the row it repeats.
    repeats = order[1:][np.diff(tracks[order]) == 0]
    if len(repeats):
        i = int(repeats.min())
        raise ValueError(f"{where}[{i}].track: duplicate track {tracks[i]}")
    return table[order]


@dataclass
class EpochCameras:
    """All cameras of one epoch with their shared self-calibration.

    Attributes:
        epoch: epoch index.
        calibration: the epoch's SelfCalibration.
        cameras: camera id -> ExteriorOrientation.
    """

    epoch: int
    calibration: SelfCalibration
    cameras: Dict[int, ExteriorOrientation] = field(default_factory=dict)


# The rows of the kernel's Jacobian (_Projection.jac), read by the bundle
# adjustment: the rotation increment, the center, then the calibration
# entries _JAC_CAL of [f, cx, cy, k1, k2]. The point derivative is minus the
# center's. The other two calibration entries, _UNIT_CAL, are left implicit:
# pixel row a has unit slope in _UNIT_CAL[a] and none in the other.
_JAC_ROTATION = slice(0, 3)
_JAC_CENTER = slice(3, 6)
_JAC_CAL = (0, 3, 4)
_UNIT_CAL = (1, 2)


class _Projection(NamedTuple):
    """The projection kernel's output over g camera groups of w rows each.

    Every coordinate and derivative is its own run of w values per camera,
    so each camera's values are contiguous.

    Attributes:
        pixels: (g, 2, w) pixel coordinates, the x row first.
        depth: (g, w) depth along the optical axis; <= 0 at or behind the
            camera plane.
        jac: None, or (g, 9, 2, w) derivatives of (x, y) with respect to
            each camera's [rotation increment (3), center (3), f, k1, k2],
            x row first, so jac[i] is camera i's (9, 2w) Jacobian block. The
            rows are laid out as _JAC_ROTATION, _JAC_CENTER and _JAC_CAL say.
    """

    pixels: np.ndarray
    depth: np.ndarray
    jac: Optional[np.ndarray]


class _KernelBuffers(NamedTuple):
    """The arrays the projection kernel writes over g groups of w rows: its
    outputs and its largest intermediates.

    Attributes:
        offset: (g, w, 3) object points minus the camera center, in the
            layout of the points the adjustment gathers; the kernel reads it
            as (g, 3, w).
        cam: (g, 3, w) the points in the camera frame; depth is its z row.
        pixels: (g, 2, w) as in _Projection.
        rows: None, or (g, 3, 2, w) the derivative rows that the rotation
            turns into Jacobian rows: first those of the rotation increment,
            then those of the camera-frame point.
        jac: None, or (g, 9, 2, w) as in _Projection.
    """

    offset: np.ndarray
    cam: np.ndarray
    pixels: np.ndarray
    rows: Optional[np.ndarray] = None
    jac: Optional[np.ndarray] = None

    @staticmethod
    def shapes(groups: int, width: int, jacobians: bool) -> List[Tuple[int, ...]]:
        """The shapes of the buffers in field order; the Jacobian ones only
        if `jacobians`."""
        shapes = [(groups, width, 3), (groups, 3, width), (groups, 2, width)]
        if jacobians:
            shapes += [(groups, 3, 2, width), (groups, 9, 2, width)]
        return shapes


def _projection(
    points, rot, center, cal, jacobians: bool = False, out: Optional[_KernelBuffers] = None
) -> _Projection:
    """The projection model over camera groups.

    Group i is w object points seen by one camera: points[i, k, j] is
    coordinate k of the group's row j, and the camera has rotation matrix
    rot[i] (g, 3, 3), center center[i] (g, 3) and calibration
    cal[i] = [f, cx, cy, k1, k2] (g, 5). Each camera's parameters enter as
    one scalar per group, broadcast along its rows, and the rotation acts on
    a group's rows as one (3, 3) @ (3, w) product. Rows at or behind the
    camera plane are not rejected here: they come back with depth <= 0 and
    meaningless values, for the caller to raise on or mask.

    The kernel writes its outputs and largest intermediates into `out`,
    which the caller owns and which must hold the Jacobian buffers if
    `jacobians`; the returned arrays are views of it, valid only until the
    next call with the same `out`. Without `out`, each call allocates its
    own buffers, and the caller owns the results.
    """
    g, _, width = points.shape
    if out is None:
        shapes = _KernelBuffers.shapes(g, width, jacobians)
        out = _KernelBuffers(*map(np.empty, shapes))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f, cx, cy, k1, k2 = (cal[:, k, None] for k in range(5))
        offset = np.subtract(points, center[:, :, None], out=out.offset.transpose(0, 2, 1))
        cam = np.matmul(rot, offset, out=out.cam)
        depth = cam[:, 2]
        u = cam[:, 0] / depth
        v = cam[:, 1] / depth
        r2 = u * u + v * v
        factor = 1.0 + k1 * r2 + k2 * r2 * r2
        ud = u * factor
        vd = v * factor
        pixels = out.pixels
        for axis, (t_d, c) in enumerate(((ud, cx), (vd, cy))):
            np.multiply(f, t_d, out=pixels[:, axis])
            pixels[:, axis] += c
        if not jacobians:
            return _Projection(pixels, depth, None)

        # d(pixel)/d(u, v): distortion couples the axes through r^2.
        dfactor = k1 + 2.0 * k2 * r2  # d(factor)/d(r2)
        dx_du = f * (factor + 2.0 * u * u * dfactor)
        dx_dv = f * (2.0 * u * v * dfactor)  # also dy/du
        dy_dv = f * (factor + 2.0 * v * v * dfactor)
        inv_z = 1.0 / depth

        # Per pixel axis, e = d(pixel)/d(cam point) = (a, b, -s) / z with
        # s = a u + b v, since d(u, v)/d(cam) = [[1, 0, -u], [0, 1, -v]] / z.
        # cam = R (X - C), so d(pixel)/dX = e R = -d(pixel)/dC; and for
        # R <- R exp([delta]x), d(cam)/d(delta) = -R [X - C]x = -[cam]x R, so
        # d(pixel)/d(delta) = (cam x e) R = ((u, v, 1) x (a, b, -s)) R.
        # Row vectors times R: one (3, 3) @ (3, 2w) product per camera, first
        # of the rows cam x e, then of the rows e, in the same buffer.
        rows, jac = out.rows, out.jac
        axes = ((dx_du, dx_dv, u, ud), (dx_dv, dy_dv, v, vd))
        s = [a * u + b * v for a, b, _, _ in axes]
        for axis, (a, b, t, t_d) in enumerate(axes):
            rows[:, 0, axis] = -(v * s[axis] + b)
            rows[:, 1, axis] = u * s[axis] + a
            rows[:, 2, axis] = u * b - v * a
            jac[:, 6, axis] = t_d
            jac[:, 7, axis] = f * t * r2
            jac[:, 8, axis] = jac[:, 7, axis] * r2
        rot_t = rot.transpose(0, 2, 1)
        flat = (g, 3, 2 * width)
        np.matmul(rot_t, rows.reshape(flat), out=jac[:, _JAC_ROTATION].reshape(flat))
        for axis, (a, b, _, _) in enumerate(axes):
            rows[:, 0, axis] = a * inv_z
            rows[:, 1, axis] = b * inv_z
            rows[:, 2, axis] = -s[axis] * inv_z
        np.matmul(-rot_t, rows.reshape(flat), out=jac[:, _JAC_CENTER].reshape(flat))
        return _Projection(pixels, depth, jac)


def _one_camera(points, eo: ExteriorOrientation, sc: SelfCalibration, jacobians: bool) -> _Projection:
    """The kernel over one group: all `points` in camera (eo, sc)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64)).T[None]
    return _projection(points, eo.matrix[None], eo.center[None], sc.as_array()[None], jacobians)


def _require_in_front(depth: np.ndarray) -> None:
    behind = int((depth <= 0).sum())
    if behind:
        raise ValueError(f"{behind} of {len(depth)} points at or behind the camera plane")


def project_points(points, eo: ExteriorOrientation, sc: SelfCalibration) -> np.ndarray:
    """Pixel coordinates (n, 2) of object points in one camera.

    Raises if any point has non-positive depth (at or behind the camera
    plane).
    """
    proj = _one_camera(points, eo, sc, jacobians=False)
    _require_in_front(proj.depth[0])
    return np.ascontiguousarray(proj.pixels[0].T)


def projection_jacobians(
    points: np.ndarray, eo: ExteriorOrientation, sc: SelfCalibration
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projections and analytic derivatives for a batch of points.

    Returns (pixels (n,2), d_point (n,2,3), d_pose (n,2,6), d_cal (n,2,5)).
    Pose derivatives are ordered [local rotation increment (3) | center (3)],
    where the increment acts as R <- R exp([delta]x). Calibration derivatives
    follow [f, cx, cy, k1, k2]. Raises if any point has non-positive depth.
    """
    proj = _one_camera(points, eo, sc, jacobians=True)
    _require_in_front(proj.depth[0])
    jac = proj.jac[0].transpose(2, 1, 0)  # (n, 2, 9)
    d_pose = np.ascontiguousarray(jac[:, :, :6])
    d_cal = np.zeros(d_pose.shape[:2] + (5,))
    d_cal[:, :, _JAC_CAL] = jac[:, :, 6:]
    d_cal[:, [0, 1], _UNIT_CAL] = 1.0
    return np.ascontiguousarray(proj.pixels[0].T), -d_pose[:, :, _JAC_CENTER], d_pose, d_cal
