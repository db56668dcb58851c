"""Photogrammetric camera model: pose/calibration types, projection, residuals.

The projection is a pinhole with polynomial radial distortion applied to
normalized image coordinates: p = R (X - C); (u, v) = (p_x/p_z, p_y/p_z);
r^2 = u^2 + v^2; (u_d, v_d) = (u, v) (1 + k1 r^2 + k2 r^4); pixel = f u_d + cx,
f v_d + cy. R maps object frame to camera frame, +z looking out of the camera.

One kernel evaluates the model and its analytic Jacobians. It runs over
groups of observations, each seen by one camera and padded to a common
width, takes one rotation matrix, center and calibration per group, and
returns every pixel coordinate and Jacobian component as its own
camera-major array (structure of arrays). The bundle adjustment reads those
arrays straight into its normal equations; project_points and
projection_jacobians call the same kernel with a single group.
"""
from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

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
        if not np.isfinite(center).all() or not np.isfinite(rotation).all():
            raise ValueError("camera pose must be finite")
        if np.linalg.norm(rotation) >= np.pi:
            raise ValueError(
                f"axis-angle magnitude must be < pi, got {np.linalg.norm(rotation):.6f}"
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
        values = (self.focal_length, self.cx, self.cy, self.k1, self.k2)
        if not all(np.isfinite(v) for v in values):
            raise ValueError("calibration parameters must be finite")
        if self.focal_length <= 0:
            raise ValueError(f"focal_length must be > 0, got {self.focal_length}")

    def as_array(self) -> np.ndarray:
        return np.array([self.focal_length, self.cx, self.cy, self.k1, self.k2])

    @classmethod
    def from_array(cls, values) -> "SelfCalibration":
        f, cx, cy, k1, k2 = (float(v) for v in values)
        return cls(f, cx, cy, k1, k2)


@dataclass(frozen=True)
class ObjectPoint:
    """A tie point's 3D position, keyed by its track id."""

    position: np.ndarray
    track_id: int

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=np.float64).reshape(3).copy()
        if not np.isfinite(position).all():
            raise ValueError("object point must be finite")
        position.flags.writeable = False
        object.__setattr__(self, "position", position)


@dataclass(frozen=True)
class ImageObservation:
    """One measured image point of a track in a camera."""

    camera_id: int
    track_id: int
    x: float
    y: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError("image coordinates must be finite")
        if not self.weight > 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


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

    def camera_ids(self) -> list:
        return sorted(self.cameras)


def _positions(points) -> np.ndarray:
    if isinstance(points, ObjectPoint):
        return points.position[None, :]
    return np.atleast_2d(np.asarray(points, dtype=np.float64))


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


def _projection(points, rot, center, cal, jacobians: bool = False) -> _Projection:
    """The projection model over camera groups.

    Group i is w object points seen by one camera: points[i, k, j] is
    coordinate k of the group's row j, and the camera has rotation matrix
    rot[i] (g, 3, 3), center center[i] (g, 3) and calibration
    cal[i] = [f, cx, cy, k1, k2] (g, 5). Each camera's parameters enter as
    one scalar per group, broadcast along its rows, and the rotation acts on
    a group's rows as one (3, 3) @ (3, w) product. Rows at or behind the
    camera plane are not rejected here: they come back with depth <= 0 and
    meaningless values, for the caller to raise on or mask.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f, cx, cy, k1, k2 = (cal[:, k, None] for k in range(5))
        cam = rot @ (points - center[:, :, None])
        depth = cam[:, 2]
        u = cam[:, 0] / depth
        v = cam[:, 1] / depth
        r2 = u * u + v * v
        factor = 1.0 + k1 * r2 + k2 * r2 * r2
        ud = u * factor
        vd = v * factor
        pixels = np.stack([f * ud + cx, f * vd + cy], axis=1)
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
        g, width = depth.shape
        e = np.empty((g, 3, 2, width))
        cross = np.empty_like(e)
        jac = np.empty((g, 9, 2, width))
        for axis, (a, b, t, t_d) in enumerate(((dx_du, dx_dv, u, ud), (dx_dv, dy_dv, v, vd))):
            s = a * u + b * v
            e[:, 0, axis] = a * inv_z
            e[:, 1, axis] = b * inv_z
            e[:, 2, axis] = -s * inv_z
            cross[:, 0, axis] = -(v * s + b)
            cross[:, 1, axis] = u * s + a
            cross[:, 2, axis] = u * b - v * a
            jac[:, 6, axis] = t_d
            jac[:, 7, axis] = f * t * r2
            jac[:, 8, axis] = jac[:, 7, axis] * r2
        # Row vectors times R: one (3, 3) @ (3, 2w) product per camera.
        rot_t = rot.transpose(0, 2, 1)
        flat = (g, 3, 2 * width)
        np.matmul(rot_t, cross.reshape(flat), out=jac[:, _JAC_ROTATION].reshape(flat))
        np.matmul(-rot_t, e.reshape(flat), out=jac[:, _JAC_CENTER].reshape(flat))
        return _Projection(pixels, depth, jac)


def _one_camera(points, eo: ExteriorOrientation, sc: SelfCalibration, jacobians: bool) -> _Projection:
    """The kernel over one group: all `points` in camera (eo, sc)."""
    return _projection(
        _positions(points).T[None],
        eo.matrix[None],
        eo.center[None],
        sc.as_array()[None],
        jacobians,
    )


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


def project_point(point, eo: ExteriorOrientation, sc: SelfCalibration) -> np.ndarray:
    """Pixel coordinates (2,) of a single object point."""
    return project_points(point, eo, sc)[0]


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


def compute_residuals(
    observations: Sequence[ImageObservation],
    cameras: Mapping[int, ExteriorOrientation],
    calibrations: Mapping[int, SelfCalibration],
    points: Mapping[int, Union[ObjectPoint, np.ndarray]],
) -> Tuple[np.ndarray, float]:
    """Reprojection residuals (measured - projected) and their RMS.

    Residuals come back flat, two entries (x, y) per observation in input
    order; RMS is over all 2m entries, pixels.
    """
    m = len(observations)
    for obs in observations:
        if obs.camera_id not in cameras:
            raise ValueError(f"observation references unknown camera {obs.camera_id}")
        if obs.track_id not in points:
            raise ValueError(f"observation references unknown track {obs.track_id}")

    def position_of(track_id):
        point = points[track_id]
        return point.position if isinstance(point, ObjectPoint) else point

    residuals = np.empty((m, 2))
    if m:
        cam_ids = np.array([obs.camera_id for obs in observations])
        measured = np.array([(obs.x, obs.y) for obs in observations])
        positions = np.array([position_of(obs.track_id) for obs in observations])
        for cam_id in np.unique(cam_ids):
            rows = cam_ids == cam_id
            projected = project_points(positions[rows], cameras[cam_id], calibrations[cam_id])
            residuals[rows] = measured[rows] - projected
    flat = residuals.ravel()
    rms = float(np.sqrt((flat**2).mean())) if m else 0.0
    return flat, rms
