"""Row-wise reference projection, reprojection residuals and the sparse
Jacobian view of an adjustment problem: the oracles that the camera-grouped
projection kernel, the adjustment's residuals and the normal-equation blocks
are tested against.

`project_rows` evaluates the projection model one observation per row, with
that row's own rotation matrix, centre and calibration. `compute_residuals`
reprojects observations through it, and `linearize` and `prior_rows` build
the sparse Jacobian of a `_Problem` from it, so residuals and dense J^T W J
and J^T W r computed from them share no code with the library's kernel or
assembly.
"""
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.spatial.transform import Rotation

from cloudchange.cameras import OBSERVATION_DTYPE, ExteriorOrientation, SelfCalibration

_CAM_PARAMS = 6
_CAL_PARAMS = 5
_POINT_PARAMS = 3


def project_rows(pts, rot, center, cal, jacobians: bool = False) -> tuple:
    """The projection model, row by row.

    Row i projects pts[i] through rotation matrix rot[i], center center[i]
    and calibration row cal[i] = [f, cx, cy, k1, k2]; a single (3, 3)
    rotation, (3,) center or (5,) calibration broadcasts over all rows.
    Rows at or behind the camera plane come back with depth <= 0.

    Returns (pixels (n,2), depth (n,)) and, with `jacobians`, also d_point
    (n,2,3), d_pose (n,2,6) and d_cal (n,2,5), laid out as in
    cameras.projection_jacobians.
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
        dfactor = k1 + 2.0 * k2 * r2
        dx_du = f * (factor + 2.0 * u * u * dfactor)
        dx_dv = f * (2.0 * u * v * dfactor)
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
        # d(cam)/d(delta) = -R [X - C]x for R <- R exp([delta]x).
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


def compute_residuals(
    observations: np.ndarray,
    cameras: Mapping[int, ExteriorOrientation],
    calibrations: Mapping[int, SelfCalibration],
    points: Union[np.ndarray, Mapping[int, np.ndarray]],
) -> Tuple[np.ndarray, float]:
    """Reprojection residuals (measured - projected) and their RMS, one
    `project_rows` row per row of the observation table (an empty list is
    an empty table). `points` is a table of POINT_DTYPE rows or a mapping of
    track id to position.

    Residuals come back flat, two entries (x, y) per observation in input
    order; RMS is over all 2m entries, pixels. Raises on an unknown camera
    or track, or a point at or behind its camera plane.
    """
    rows = np.asarray(observations, dtype=OBSERVATION_DTYPE).tolist()
    if isinstance(points, np.ndarray):
        points = dict(zip(points["track"].tolist(), points["position"]))
    for camera, track, *_ in rows:
        if camera not in cameras:
            raise ValueError(f"observation references unknown camera {camera}")
        if track not in points:
            raise ValueError(f"observation references unknown track {track}")
    if not rows:
        return np.empty(0), 0.0

    matrices = {camera: cameras[camera].matrix for camera, *_ in rows}
    pixels, depth = project_rows(
        np.array([points[track] for _, track, *_ in rows], dtype=np.float64),
        np.array([matrices[camera] for camera, *_ in rows]),
        np.array([cameras[camera].center for camera, *_ in rows]),
        np.array([calibrations[camera].as_array() for camera, *_ in rows]),
    )
    if (depth <= 0).any():
        raise ValueError("points at or behind the camera plane")
    measured = np.array([(x, y) for _, _, x, y, _ in rows])
    flat = (measured - pixels).ravel()
    return flat, float(np.sqrt((flat**2).mean()))


@dataclass
class LinearizedSystem:
    """Jacobian blocks of one linearization, split by parameter group.

    Rows come in pairs, two per retained observation (x, then y). The fixed
    block is None when reference parameters are excluded from the system.

    Attributes:
        jac_points: sparse (2m, 3p) block for object points.
        jac_new: sparse (2m, 6 n_new + 5) block for new-epoch cameras and
            self-calibration.
        jac_fixed: sparse block for reference-epoch parameters, or None.
        residuals: (2m,) measured minus projected, pixels.
        weights: (2m,) per-row weights (each observation's weight twice).
    """

    jac_points: sparse.spmatrix
    jac_new: sparse.spmatrix
    jac_fixed: Optional[sparse.spmatrix]
    residuals: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        rows = self.jac_points.shape[0]
        if rows % 2:
            raise ValueError("system must have two rows per observation")
        for block in (self.jac_new, self.jac_fixed):
            if block is not None and block.shape[0] != rows:
                raise ValueError("Jacobian blocks disagree on row count")
        if self.residuals.shape != (rows,) or self.weights.shape != (rows,):
            raise ValueError("residual/weight length must equal the row count")


def linearize(problem, mask: np.ndarray, track_active: np.ndarray) -> LinearizedSystem:
    """The sparse Jacobian of `problem` (an adjustment `_Problem`) over the
    masked observations, from one row-wise projection per observation."""
    rows = np.flatnonzero(mask)
    m = len(rows)
    cams = problem.obs_cam[rows]
    rot = Rotation.from_rotvec(problem.cam_rot).as_matrix()
    pixels, depth, d_point, d_pose, d_cal = project_rows(
        problem.positions[problem.obs_track[rows]],
        rot[cams],
        problem.cam_cen[cams],
        problem.cal_values[problem.cam_cal[cams]],
        jacobians=True,
    )
    if (depth <= 0).any():
        raise ValueError("points at or behind the camera plane")
    residuals = (problem.measured[rows] - pixels).ravel()
    weights = np.repeat(problem.obs_weight[rows], 2)

    # Active tracks get contiguous 3-column slots in input order. Every
    # row holds its observation's point block, columns ascending.
    n_active = int(track_active.sum())
    active_slot = np.full(len(problem.track_ids), -1, dtype=np.intp)
    active_slot[track_active] = np.arange(n_active)
    point_cols = _POINT_PARAMS * np.repeat(active_slot[problem.obs_track[rows]], 2)
    jac_points = sparse.csr_matrix(
        (
            d_point.ravel(),
            (point_cols[:, None] + np.arange(_POINT_PARAMS)).ravel(),
            _POINT_PARAMS * np.arange(2 * m + 1),
        ),
        shape=(2 * m, _POINT_PARAMS * n_active),
    )

    # Camera and calibration entries over all camera/calibration columns,
    # kept where that parameter group is in the system.
    base = np.repeat(
        np.column_stack([problem.cam_col[cams], problem.cal_col[problem.cam_cal[cams]]]),
        [_CAM_PARAMS, _CAL_PARAMS],
        axis=1,
    )
    offsets = np.concatenate([np.arange(_CAM_PARAMS), np.arange(_CAL_PARAMS)])
    present = np.repeat(base >= 0, 2, axis=0)
    jac_cams = sparse.csr_matrix(
        (
            np.concatenate([d_pose, d_cal], axis=2).reshape(2 * m, -1)[present],
            np.repeat(base + offsets, 2, axis=0)[present],
            np.concatenate([[0], np.cumsum(present.sum(axis=1))]),
        ),
        shape=(2 * m, problem.n_cam_cal_cols),
    )
    return LinearizedSystem(
        jac_points=jac_points,
        jac_new=jac_cams[:, : problem.new_width],
        jac_fixed=jac_cams[:, problem.new_width :] if problem.include_fixed else None,
        residuals=residuals,
        weights=weights,
    )


def prior_rows(problem, weight: float) -> Tuple[sparse.spmatrix, np.ndarray, np.ndarray]:
    """The prior equations of `problem` as rows (Jacobian, residuals,
    weights): one identity row per fixed column, residuals from
    `problem.prior_residuals()`."""
    res = problem.prior_residuals()
    q = len(res)
    jac = sparse.csr_matrix(
        (np.ones(q), problem.new_width + np.arange(q), np.arange(q + 1)),
        shape=(q, problem.n_cam_cal_cols),
    )
    return jac, res, np.full(q, weight)
