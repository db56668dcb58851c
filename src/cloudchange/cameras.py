"""Photogrammetric camera model: pose/calibration types, projection, residuals.

The projection is a pinhole with polynomial radial distortion applied to
normalized image coordinates: p = R (X - C); (u, v) = (p_x/p_z, p_y/p_z);
r^2 = u^2 + v^2; (u_d, v_d) = (u, v) (1 + k1 r^2 + k2 r^4); pixel = f u_d + cx,
f v_d + cy. R maps object frame to camera frame, +z looking out of the camera.
"""
from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple, Union

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


def _projection(pts, rot, center, cal, jacobians: bool = False) -> tuple:
    """The projection model, row by row.

    Row i projects pts[i] through rotation matrix rot[i], center center[i]
    and calibration row cal[i] = [f, cx, cy, k1, k2]; a single (3, 3)
    rotation, (3,) center or (5,) calibration broadcasts over all rows.
    Rows at or behind the camera plane are not rejected here: they come back
    with depth <= 0 and meaningless values, for the caller to raise on or
    mask.

    Returns (pixels (n,2), depth (n,)) and, with `jacobians`, also d_point
    (n,2,3), d_pose (n,2,6) and d_cal (n,2,5), laid out as in
    projection_jacobians.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f, cx, cy, k1, k2 = (cal[..., k] for k in range(5))
        offset = pts - center
        cam = np.einsum("...ij,...j->...i", rot, offset)
        depth = cam[:, 2]
        u = cam[:, 0] / depth
        v = cam[:, 1] / depth
        r2 = u * u + v * v
        factor = 1.0 + k1 * r2 + k2 * r2 * r2
        ud = u * factor
        vd = v * factor
        pixels = np.column_stack([f * ud + cx, f * vd + cy])
        if not jacobians:
            return pixels, depth

        # d(pixel)/d(u, v): distortion couples the axes through r^2.
        dfactor = k1 + 2.0 * k2 * r2  # d(factor)/d(r2)
        dx_du = f * (factor + 2.0 * u * u * dfactor)
        dx_dv = f * (2.0 * u * v * dfactor)  # also dy/du
        dy_dv = f * (factor + 2.0 * v * v * dfactor)

        # d(pixel)/d(cam point), with d(u, v)/d(cam) = [[1, 0, -u], [0, 1, -v]] / z.
        inv_z = 1.0 / depth
        d_pix_dcam = np.empty((len(pts), 2, 3))
        d_pix_dcam[:, 0, 0] = dx_du * inv_z
        d_pix_dcam[:, 0, 1] = dx_dv * inv_z
        d_pix_dcam[:, 0, 2] = -(dx_du * u + dx_dv * v) * inv_z
        d_pix_dcam[:, 1, 0] = dx_dv * inv_z
        d_pix_dcam[:, 1, 1] = dy_dv * inv_z
        d_pix_dcam[:, 1, 2] = -(dx_dv * u + dy_dv * v) * inv_z

        # cam = R (X - C): d(cam)/dX = R; d(cam)/dC = -R;
        # d(cam)/d(delta) = -R [X - C]x for R <- R exp([delta]x), and a row
        # vector a times -[o]x is o x a.
        d_point = d_pix_dcam @ rot
        d_rot = np.cross(offset[:, None, :], d_point)
        d_pose = np.concatenate([d_rot, -d_point], axis=2)

        d_cal = np.zeros((len(pts), 2, 5))
        d_cal[:, 0, 0] = ud
        d_cal[:, 1, 0] = vd
        d_cal[:, 0, 1] = 1.0
        d_cal[:, 1, 2] = 1.0
        d_cal[:, 0, 3] = f * u * r2
        d_cal[:, 1, 3] = f * v * r2
        d_cal[:, 0, 4] = f * u * r2 * r2
        d_cal[:, 1, 4] = f * v * r2 * r2
        return pixels, depth, d_point, d_pose, d_cal


def _require_in_front(depth: np.ndarray) -> None:
    behind = int((depth <= 0).sum())
    if behind:
        raise ValueError(f"{behind} of {len(depth)} points at or behind the camera plane")


def project_points(points, eo: ExteriorOrientation, sc: SelfCalibration) -> np.ndarray:
    """Pixel coordinates (n, 2) of object points in one camera.

    Raises if any point has non-positive depth (at or behind the camera
    plane).
    """
    pixels, depth = _projection(_positions(points), eo.matrix, eo.center, sc.as_array())
    _require_in_front(depth)
    return pixels


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
    pixels, depth, d_point, d_pose, d_cal = _projection(
        _positions(points), eo.matrix, eo.center, sc.as_array(), jacobians=True
    )
    _require_in_front(depth)
    return pixels, d_point, d_pose, d_cal


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
