"""Progressive constrained bundle adjustment.

Given camera poses and self-calibration for one or more earlier (reference)
epochs, initial values for the newest epoch, and tie-point observations
spanning all of them, the solver estimates the newest epoch's exterior
orientations, its self-calibration, and the shared object points. Reference
parameters stay exactly at their inputs: by default they are excluded from
the parameter vector, which is the exact limit of giving them infinite prior
weight; a `prior_weight` mode that instead keeps them as parameters under a
huge prior exists to verify that equivalence.

The minimization is Levenberg-Marquardt on the weighted reprojection error,
with the object points eliminated through the standard reduced (Schur
complement) system so that the dense solve only spans camera and calibration
parameters. Each iteration projects all retained observations in one batched
call, which returns every observation's 2x3 point block and 2x11 camera and
calibration block. The normal-equation blocks (camera-camera, camera-point,
the 3x3 block of each point, and both gradients) are summed straight from
those per-observation blocks into their final dense layout; the index layout
that says where each block lands is built once per set of retained
observations. The reduced camera system is formed densely from the per-point
3x3 blocks: every camera network this package generates has full visibility,
so the camera-point coupling block is dense anyway. After convergence,
observations whose reprojection error exceeds a robust threshold (scaled
median absolute deviation) are removed and the solve repeats a bounded number
of times.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.spatial.transform import Rotation

from .cameras import (
    EpochCameras,
    ExteriorOrientation,
    ImageObservation,
    ObjectPoint,
    SelfCalibration,
    _projection,
    _require_in_front,
)

__all__ = [
    "AdjustmentOptions",
    "AdjustmentResult",
    "LinearizedSystem",
    "Scenario",
    "load_scenario",
    "refine_progressive",
    "save_scenario",
]

logger = logging.getLogger(__name__)

_CAM_PARAMS = 6  # local rotation increment (3) + center (3)
_CAL_PARAMS = 5  # focal length, cx, cy, k1, k2
_POINT_PARAMS = 3
_CAM_CAL_PARAMS = _CAM_PARAMS + _CAL_PARAMS


@dataclass
class AdjustmentOptions:
    """Solver settings for refine_progressive.

    Attributes:
        max_iterations: Levenberg-Marquardt iteration budget per solve.
        convergence_tolerance: relative cost decrease on an accepted step
            below which the solve stops.
        step_tolerance: parameter-step norm, relative to the parameter
            vector norm, below which the solve stops (covers the machine
            precision plateau where no step can improve the cost).
        initial_lambda: starting LM damping factor.
        max_outlier_rounds: how many times the solve may repeat after
            removing outlier observations.
        outlier_sigma_scale: rejection threshold in multiples of the robust
            sigma (1.4826 x median absolute residual component).
        outlier_floor: absolute lower bound on the rejection threshold,
            pixels; keeps pure numerical noise from being flagged.
        fixed_handling: "exclude" removes reference parameters from the
            system; "prior_weight" keeps them with a huge prior.
        prior_weight: weight applied to reference-parameter priors in
            "prior_weight" mode.
        min_track_length: tracks observed fewer times than this are dropped
            from the solve with a warning.
    """

    max_iterations: int = 50
    convergence_tolerance: float = 1e-12
    step_tolerance: float = 1e-12
    initial_lambda: float = 1e-3
    max_outlier_rounds: int = 3
    outlier_sigma_scale: float = 3.0
    outlier_floor: float = 1e-6
    fixed_handling: str = "exclude"
    prior_weight: float = 1e12
    min_track_length: int = 2

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 < self.convergence_tolerance < 1:
            raise ValueError("convergence_tolerance must be in (0, 1)")
        if not 0 < self.step_tolerance < 1:
            raise ValueError("step_tolerance must be in (0, 1)")
        if self.max_outlier_rounds < 0:
            raise ValueError("max_outlier_rounds must be >= 0")
        if self.outlier_sigma_scale <= 0:
            raise ValueError("outlier_sigma_scale must be > 0")
        if self.fixed_handling not in ("exclude", "prior_weight"):
            raise ValueError(
                f"fixed_handling must be 'exclude' or 'prior_weight', got {self.fixed_handling!r}"
            )
        if self.prior_weight <= 0:
            raise ValueError("prior_weight must be > 0")
        if self.min_track_length < 2:
            raise ValueError(f"min_track_length must be >= 2, got {self.min_track_length}")


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


class _NormalEquations(NamedTuple):
    """Blocks of the undamped normal equations J^T W J dx = J^T W r, with
    cameras and calibrations (c) first and active points (p) last.

    Attributes:
        h_cc: (nc, nc) camera-camera block.
        h_cp: (nc, 3 n_active) camera-point block.
        v: (n_active, 3, 3) diagonal blocks of the point-point block, which
            has no other nonzero entries.
        grad_c: (nc,) camera part of J^T W r.
        grad_p: (3 n_active,) point part of J^T W r.
    """

    h_cc: np.ndarray
    h_cp: np.ndarray
    v: np.ndarray
    grad_c: np.ndarray
    grad_p: np.ndarray


class _BlockLayout:
    """Where each retained observation's Jacobian blocks land in the normal
    equations, for one (mask, track_active).

    Every index array addresses a flattened final block, so one bincount per
    block sums the per-observation products in place and observations that
    share a target (a point seen by several cameras, a calibration shared by
    several cameras, a track observed twice by one camera) accumulate.
    """

    def __init__(self, problem: _Problem, mask: np.ndarray, track_active: np.ndarray) -> None:
        self.mask = mask.copy()
        self.track_active = track_active.copy()
        self.rows = np.flatnonzero(mask)
        self.weight = problem.obs_weight[self.rows]
        self.n_points = int(track_active.sum())
        self.n_cols = nc = problem.n_cam_cal_cols

        # Active tracks get contiguous 3-column slots in input order.
        slot = np.full(len(track_active), -1, dtype=np.intp)
        slot[track_active] = np.arange(self.n_points)
        point = slot[problem.obs_track[self.rows]]
        self.v_index = (_POINT_PARAMS**2 * point[:, None] + np.arange(_POINT_PARAMS**2)).ravel()
        self.gp_index = (_POINT_PARAMS * point[:, None] + np.arange(_POINT_PARAMS)).ravel()

        # The 11 camera and calibration columns of each camera. A camera's
        # calibration is in the system exactly when the camera is, so the
        # rows of cameras in the system carry all 11 columns; they are kept
        # grouped by camera (positions into `rows`).
        cam_cols = np.concatenate(
            [
                problem.cam_col[:, None] + np.arange(_CAM_PARAMS),
                problem.cal_col[problem.cam_cal][:, None] + np.arange(_CAL_PARAMS),
            ],
            axis=1,
        )
        cams = problem.obs_cam[self.rows]
        in_system = np.flatnonzero(problem.cam_col[cams] >= 0)
        self.cam_rows = in_system[np.argsort(cams[in_system], kind="stable")]
        group_cams, starts, counts = np.unique(
            cams[self.cam_rows], return_index=True, return_counts=True
        )

        # Each camera's rows padded to the longest group; padding points at
        # row 0 with weight 0, so it adds exact zeros. The weights repeat
        # once per Jacobian row (x, then y).
        width = int(counts.max(initial=0))
        rank = np.arange(width)
        real = rank < counts[:, None]
        self.padded = np.where(real, starts[:, None] + rank, 0)
        self.padded_weight = np.repeat(
            np.where(real, self.weight[self.cam_rows][self.padded], 0.0), 2, axis=1
        )

        cols = cam_cols[group_cams]
        self.hcc_index = (cols[:, :, None] * nc + cols[:, None, :]).ravel()
        row_cols = cam_cols[cams[self.cam_rows]]
        self.gc_index = row_cols.ravel()
        self.hcp_index = (
            row_cols[:, :, None] * (_POINT_PARAMS * self.n_points)
            + _POINT_PARAMS * point[self.cam_rows, None, None]
            + np.arange(_POINT_PARAMS)
        ).ravel()

    def matches(self, mask: np.ndarray, track_active: np.ndarray) -> bool:
        return np.array_equal(mask, self.mask) and np.array_equal(
            track_active, self.track_active
        )


def _accumulate(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum `values` into `size` slots by `index`."""
    return np.bincount(index, weights=values.ravel(), minlength=size)


@dataclass
class AdjustmentResult:
    """Outcome of a progressive adjustment.

    Attributes:
        new_cameras: optimized new-epoch cameras and self-calibration.
        points: optimized object points by track id (tracks dropped from the
            solve keep their last, possibly initial, value).
        fixed_cameras: the reference-epoch inputs, echoed unchanged.
        residuals: (2m,) residuals of all input observations at the final
            parameters, input order, NaN where a point fell behind a camera.
        rms: final RMS over retained observations, pixels.
        rejected_observations: indices into the input observation sequence
            that were removed (outliers, or members of dropped tracks).
        iteration_log: one record per LM iteration with cost, RMS, damping.
        converged: False when an iteration budget ran out instead of the
            cost change reaching the tolerance.
    """

    new_cameras: EpochCameras
    points: Dict[int, ObjectPoint]
    fixed_cameras: List[EpochCameras]
    residuals: np.ndarray
    rms: float
    rejected_observations: List[int]
    iteration_log: List[dict] = field(default_factory=list)
    converged: bool = True


class _Problem:
    """Flattened arrays and column layout for one adjustment instance."""

    def __init__(
        self,
        fixed_epochs: Sequence[EpochCameras],
        new_epoch: EpochCameras,
        points: Mapping[int, ObjectPoint],
        observations: Sequence[ImageObservation],
        include_fixed: bool,
    ) -> None:
        # Camera/calibration tables. Slot 0 is the new epoch's calibration;
        # fixed epochs follow in the given order.
        self.new_ids = sorted(new_epoch.cameras)
        self.cam_ids: List = list(self.new_ids)
        cam_rot = [new_epoch.cameras[c].rotation for c in self.new_ids]
        cam_cen = [new_epoch.cameras[c].center for c in self.new_ids]
        cam_cal = [0] * len(self.new_ids)
        cal_values = [new_epoch.calibration.as_array()]
        seen = set(self.cam_ids)
        for slot, epoch in enumerate(fixed_epochs, start=1):
            for cam_id in sorted(epoch.cameras):
                if cam_id in seen:
                    raise ValueError(f"camera id {cam_id} appears in more than one epoch")
                seen.add(cam_id)
                self.cam_ids.append(cam_id)
                cam_rot.append(epoch.cameras[cam_id].rotation)
                cam_cen.append(epoch.cameras[cam_id].center)
                cam_cal.append(slot)
            cal_values.append(epoch.calibration.as_array())
        self.cam_rot = np.array(cam_rot, dtype=np.float64).reshape(-1, 3)
        self.cam_cen = np.array(cam_cen, dtype=np.float64).reshape(-1, 3)
        self.cam_cal = np.array(cam_cal, dtype=np.intp)
        self.cal_values = np.array(cal_values, dtype=np.float64)
        self.n_new_cams = len(self.new_ids)

        # Column layout: new cameras, new calibration, then (prior mode
        # only) each fixed epoch's cameras and calibration.
        n_cams = len(self.cam_ids)
        n_cals = len(cal_values)
        self.cam_col = np.full(n_cams, -1, dtype=np.intp)
        self.cal_col = np.full(n_cals, -1, dtype=np.intp)
        for i in range(self.n_new_cams):
            self.cam_col[i] = _CAM_PARAMS * i
        self.new_width = _CAM_PARAMS * self.n_new_cams + _CAL_PARAMS
        self.cal_col[0] = _CAM_PARAMS * self.n_new_cams
        offset = self.new_width
        if include_fixed:
            for i in range(self.n_new_cams, n_cams):
                self.cam_col[i] = offset
                offset += _CAM_PARAMS
            for slot in range(1, n_cals):
                self.cal_col[slot] = offset
                offset += _CAL_PARAMS
        self.n_cam_cal_cols = offset
        self.include_fixed = include_fixed
        self.input_rot = self.cam_rot.copy()
        self.input_cen = self.cam_cen.copy()
        self.input_cal = self.cal_values.copy()

        # Track table and observation arrays.
        self.track_ids = sorted(points)
        track_index = {t: j for j, t in enumerate(self.track_ids)}
        self.positions = np.array(
            [points[t].position for t in self.track_ids], dtype=np.float64
        ).reshape(-1, 3)
        cam_index = {c: i for i, c in enumerate(self.cam_ids)}
        self.obs_cam = np.array([cam_index[o.camera_id] for o in observations], dtype=np.intp)
        self.obs_track = np.array([track_index[o.track_id] for o in observations], dtype=np.intp)
        self.measured = np.array([(o.x, o.y) for o in observations], dtype=np.float64).reshape(
            -1, 2
        )
        self.obs_weight = np.array([o.weight for o in observations], dtype=np.float64)
        self._layout: Optional[_BlockLayout] = None

    def snapshot(self) -> tuple:
        return self.cam_rot.copy(), self.cam_cen.copy(), self.cal_values.copy(), self.positions.copy()

    def restore(self, state: tuple) -> None:
        self.cam_rot, self.cam_cen, self.cal_values, self.positions = (a.copy() for a in state)

    def calibration_of(self, slot: int) -> SelfCalibration:
        return SelfCalibration.from_array(self.cal_values[slot])

    def param_norm(self, track_active: np.ndarray) -> float:
        """Norm of the current variable-parameter vector."""
        var_cams = self.cam_col >= 0
        var_cals = self.cal_col >= 0
        parts = [
            self.cam_rot[var_cams].ravel(),
            self.cam_cen[var_cams].ravel(),
            self.cal_values[var_cals].ravel(),
            self.positions[track_active].ravel(),
        ]
        return float(np.linalg.norm(np.concatenate(parts)))

    def _project(self, rows: np.ndarray, jacobians: bool = False) -> tuple:
        """The projection kernel over observations `rows`: every camera's
        rotation matrix is built once and gathered per observation."""
        cams = self.obs_cam[rows]
        rot = Rotation.from_rotvec(self.cam_rot).as_matrix()
        return _projection(
            self.positions[self.obs_track[rows]],
            rot[cams],
            self.cam_cen[cams],
            self.cal_values[self.cam_cal[cams]],
            jacobians,
        )

    def residuals(self, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Residuals (m, 2) for masked observations; second array flags rows
        whose point sits at or behind the camera plane (residual NaN)."""
        m = len(self.obs_cam)
        res = np.full((m, 2), np.nan)
        behind = np.zeros(m, dtype=bool)
        rows = np.flatnonzero(mask)
        pixels, depth = self._project(rows)
        bad = depth <= 0
        behind[rows[bad]] = True
        ok = ~bad
        res[rows[ok]] = self.measured[rows[ok]] - pixels[ok]
        return res, behind

    def cost(self, mask: np.ndarray) -> float:
        """Weighted squared reprojection error; inf when a masked point is
        at or behind its camera."""
        res, behind = self.residuals(mask)
        if behind[mask].any():
            return float("inf")
        rows = mask & ~behind
        return float((self.obs_weight[rows, None] * res[rows] ** 2).sum())

    def linearize(self, mask: np.ndarray, track_active: np.ndarray) -> LinearizedSystem:
        rows = np.flatnonzero(mask)
        m = len(rows)
        pixels, depth, d_point, d_pose, d_cal = self._project(rows, jacobians=True)
        _require_in_front(depth)
        residuals = (self.measured[rows] - pixels).ravel()
        weights = np.repeat(self.obs_weight[rows], 2)

        # Active tracks get contiguous 3-column slots in input order. Every
        # row holds its observation's point block, columns ascending.
        n_active = int(track_active.sum())
        active_slot = np.full(len(self.track_ids), -1, dtype=np.intp)
        active_slot[track_active] = np.arange(n_active)
        point_cols = _POINT_PARAMS * np.repeat(active_slot[self.obs_track[rows]], 2)
        jac_points = sparse.csr_matrix(
            (
                d_point.ravel(),
                (point_cols[:, None] + np.arange(_POINT_PARAMS)).ravel(),
                _POINT_PARAMS * np.arange(2 * m + 1),
            ),
            shape=(2 * m, _POINT_PARAMS * n_active),
        )

        # Camera and calibration entries over all camera/calibration
        # columns, kept where that parameter group is in the system.
        cams = self.obs_cam[rows]
        base = np.repeat(
            np.column_stack([self.cam_col[cams], self.cal_col[self.cam_cal[cams]]]),
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
            shape=(2 * m, self.n_cam_cal_cols),
        )
        return LinearizedSystem(
            jac_points=jac_points,
            jac_new=jac_cams[:, : self.new_width],
            jac_fixed=jac_cams[:, self.new_width :] if self.include_fixed else None,
            residuals=residuals,
            weights=weights,
        )

    def prior_residuals(self) -> np.ndarray:
        """Residuals of the prior equations keeping fixed parameters at their
        inputs (prior_weight mode): input - current, rotations via the local
        deviation rotation vector.

        Entries follow the fixed columns: each fixed camera's rotation and
        center, then each fixed calibration."""
        fixed = slice(self.n_new_cams, None)
        deviation = (
            Rotation.from_rotvec(self.input_rot[fixed]).inv()
            * Rotation.from_rotvec(self.cam_rot[fixed])
        ).as_rotvec()
        cameras = np.concatenate([-deviation, self.input_cen[fixed] - self.cam_cen[fixed]], axis=1)
        calibrations = self.input_cal[1:] - self.cal_values[1:]
        return np.concatenate([cameras.ravel(), calibrations.ravel()])

    def prior_rows(self, weight: float) -> Tuple[sparse.spmatrix, np.ndarray, np.ndarray]:
        """The prior equations as rows (Jacobian, residuals, weights): one
        identity row per fixed column, residuals from prior_residuals."""
        res = self.prior_residuals()
        q = len(res)
        jac = sparse.csr_matrix(
            (np.ones(q), self.new_width + np.arange(q), np.arange(q + 1)),
            shape=(q, self.n_cam_cal_cols),
        )
        return jac, res, np.full(q, weight)

    def normal_equations(
        self, mask: np.ndarray, track_active: np.ndarray, prior_weight: Optional[float]
    ) -> _NormalEquations:
        """The normal-equation blocks at the current parameters over masked
        observations, plus the identity prior rows of weight `prior_weight`
        on the fixed columns unless it is None.

        The index layout is rebuilt only when `mask` or `track_active`
        differ from the ones it was built for."""
        layout = self._layout
        if layout is None or not layout.matches(mask, track_active):
            layout = self._layout = _BlockLayout(self, mask, track_active)
        rows = layout.rows
        pixels, depth, d_point, d_pose, d_cal = self._project(rows, jacobians=True)
        _require_in_front(depth)
        w_res = layout.weight[:, None] * (self.measured[rows] - pixels)
        w_point = layout.weight[:, None, None] * d_point
        n_p = layout.n_points
        v = _accumulate(
            layout.v_index, d_point.transpose(0, 2, 1) @ w_point, _POINT_PARAMS**2 * n_p
        ).reshape(n_p, _POINT_PARAMS, _POINT_PARAMS)
        grad_p = _accumulate(
            layout.gp_index, np.einsum("rki,rk->ri", d_point, w_res), _POINT_PARAMS * n_p
        )

        nc = layout.n_cols
        jac_c = np.concatenate([d_pose, d_cal], axis=2)[layout.cam_rows]
        per_cam = jac_c[layout.padded].reshape(len(layout.padded), -1, _CAM_CAL_PARAMS)
        h_cc = _accumulate(
            layout.hcc_index,
            per_cam.transpose(0, 2, 1) @ (layout.padded_weight[:, :, None] * per_cam),
            nc * nc,
        ).reshape(nc, nc)
        grad_c = _accumulate(
            layout.gc_index, np.einsum("rki,rk->ri", jac_c, w_res[layout.cam_rows]), nc
        )
        h_cp = _accumulate(
            layout.hcp_index,
            jac_c.transpose(0, 2, 1) @ w_point[layout.cam_rows],
            nc * _POINT_PARAMS * n_p,
        ).reshape(nc, _POINT_PARAMS * n_p)
        if prior_weight is not None:
            # J^T W J and J^T W r of one identity row per fixed column.
            fixed = np.arange(self.new_width, nc)
            h_cc[fixed, fixed] += prior_weight
            grad_c[fixed] += prior_weight * self.prior_residuals()
        return _NormalEquations(h_cc, h_cp, v, grad_c, grad_p)

    def apply_step(self, delta: np.ndarray, track_active: np.ndarray) -> None:
        var_cams = self.cam_col >= 0
        cam_delta = delta[self.cam_col[var_cams, None] + np.arange(_CAM_PARAMS)]
        composed = Rotation.from_rotvec(self.cam_rot[var_cams]) * Rotation.from_rotvec(
            cam_delta[:, :3]
        )
        self.cam_rot[var_cams] = composed.as_rotvec()
        self.cam_cen[var_cams] += cam_delta[:, 3:]
        var_cals = self.cal_col >= 0
        self.cal_values[var_cals] += delta[self.cal_col[var_cals, None] + np.arange(_CAL_PARAMS)]
        point_part = delta[self.n_cam_cal_cols :].reshape(-1, _POINT_PARAMS)
        self.positions[track_active] += point_part


def _solve_reduced(
    h_cc: np.ndarray,
    h_cp: np.ndarray,
    v: np.ndarray,
    grad_c: np.ndarray,
    grad_p: np.ndarray,
    lam: float,
) -> np.ndarray:
    """One damped normal-equation solve, eliminating points by Schur
    complement. Returns the full parameter step, camera and calibration
    columns first, points last. The blocks are those of _NormalEquations
    and are not modified.

    With H = [[H_cc, H_cp], [H_cp^T, V]], V block-diagonal per point and the
    whole diagonal damped by (1 + lam), the camera step solves
    S dc = g_c - Y g_p with Y = H_cp V^-1 and S = H_cc - Y H_cp^T; then
    dp = V^-1 (g_p - H_cp^T dc). Every camera sees every point in the
    networks this package generates, so H_cp is dense, and Y and S are
    formed as dense arrays.
    """
    n_points = len(v)
    diag_c = np.diagonal(h_cc).copy()
    diag_p = np.diagonal(v, axis1=1, axis2=2).copy()
    if (diag_c <= 0).any() or (diag_p <= 0).any():
        raise ValueError("rank-deficient normal equations: parameter without support")
    h_cc = h_cc + np.diag(lam * diag_c)
    v = v + (lam * diag_p)[:, :, None] * np.eye(_POINT_PARAMS)
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise ValueError("rank-deficient normal equations in the point block") from exc

    # Y = H_cp V^-1, one (nc, 3) @ (3, 3) product per point.
    nc = len(h_cc)
    per_point = h_cp.reshape(nc, n_points, _POINT_PARAMS).transpose(1, 0, 2)
    y = (per_point @ v_inv).transpose(1, 0, 2).reshape(nc, -1)
    reduced = h_cc - y @ h_cp.T
    rhs = grad_c - y @ grad_p
    try:
        delta_c = np.linalg.solve(reduced, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("rank-deficient normal equations in the reduced system") from exc
    if not np.isfinite(delta_c).all():
        raise ValueError("rank-deficient normal equations in the reduced system")
    back = (grad_p - h_cp.T @ delta_c).reshape(n_points, _POINT_PARAMS)
    delta_p = np.einsum("pij,pj->pi", v_inv, back).ravel()
    return np.concatenate([delta_c, delta_p])


def _levenberg_marquardt(
    problem: _Problem,
    mask: np.ndarray,
    track_active: np.ndarray,
    options: AdjustmentOptions,
    log: List[dict],
    round_index: int,
) -> bool:
    """Minimize the weighted cost over masked observations in place.
    Returns True when the relative cost change reached the tolerance."""
    prior_weight = options.prior_weight if problem.include_fixed else None

    def total_cost() -> float:
        value = problem.cost(mask)
        if prior_weight is not None and np.isfinite(value):
            value += float((prior_weight * problem.prior_residuals() ** 2).sum())
        return value

    cost = total_cost()
    if not np.isfinite(cost):
        raise ValueError("initial parameters place observations at or behind a camera")
    lam = options.initial_lambda
    n_kept = int(mask.sum())

    for iteration in range(options.max_iterations):
        delta = _solve_reduced(*problem.normal_equations(mask, track_active, prior_weight), lam)
        step_norm = float(np.linalg.norm(delta))
        tiny_step = step_norm <= options.step_tolerance * (
            1.0 + problem.param_norm(track_active)
        )
        before = problem.snapshot()
        problem.apply_step(delta, track_active)
        trial = total_cost()
        accepted = bool(np.isfinite(trial) and trial < cost)
        rms = float(np.sqrt(max(trial if accepted else cost, 0.0) / (2 * n_kept)))
        log.append(
            {
                "round": round_index,
                "iteration": iteration,
                "cost": trial if accepted else cost,
                "rms": rms,
                "lambda": lam,
                "accepted": accepted,
                "step_norm": step_norm,
            }
        )
        if accepted:
            improvement = cost - trial
            converged = improvement <= options.convergence_tolerance * max(cost, 1e-300)
            cost = trial
            lam = max(lam / 10.0, 1e-12)
            if converged or tiny_step:
                return True
        else:
            problem.restore(before)
            if tiny_step:
                return True
            if lam >= 1e12:
                return False
            lam = min(lam * 10.0, 1e12)
    return False


def _normalize_fixed(fixed) -> List[EpochCameras]:
    if isinstance(fixed, EpochCameras):
        return [fixed]
    return list(fixed)


def _normalize_points(points) -> Dict[int, ObjectPoint]:
    if isinstance(points, Mapping):
        items = points.items()
        out = {}
        for track, value in items:
            out[track] = value if isinstance(value, ObjectPoint) else ObjectPoint(
                position=np.asarray(value, dtype=np.float64), track_id=track
            )
        return out
    return {p.track_id: p for p in points}


def refine_progressive(
    fixed: Union[EpochCameras, Sequence[EpochCameras]],
    new: EpochCameras,
    points: Union[Mapping[int, ObjectPoint], Sequence[ObjectPoint]],
    observations: Sequence[ImageObservation],
    options: Optional[AdjustmentOptions] = None,
) -> AdjustmentResult:
    """Estimate new-epoch poses, self-calibration, and object points.

    Reference-epoch parameters never move; see the module docstring for the
    two ways that is enforced. Observations may reference cameras of any
    epoch. Tracks observed fewer than `options.min_track_length` times are
    dropped with a warning and their observations reported as rejected.

    Raises ValueError for dangling camera/track references, duplicate camera
    ids across epochs, a new camera with no observations, initial values
    that place observations behind a camera, or rank-deficient normal
    equations. Non-convergence within the iteration budget is reported via
    `converged=False` on the result instead.
    """
    options = options or AdjustmentOptions()
    fixed_epochs = _normalize_fixed(fixed)
    point_map = _normalize_points(points)
    observations = list(observations)

    known_cams = set(new.cameras)
    for epoch in fixed_epochs:
        known_cams |= set(epoch.cameras)
    for obs in observations:
        if obs.camera_id not in known_cams:
            raise ValueError(f"observation references unknown camera {obs.camera_id}")
        if obs.track_id not in point_map:
            raise ValueError(f"observation references unknown track {obs.track_id}")

    problem = _Problem(
        fixed_epochs,
        new,
        point_map,
        observations,
        include_fixed=options.fixed_handling == "prior_weight",
    )
    m = len(observations)
    mask = np.ones(m, dtype=bool)
    track_active = np.ones(len(problem.track_ids), dtype=bool)
    rejected: List[int] = []

    def enforce_track_support() -> None:
        """Drop tracks below the minimum observation count (cascading)."""
        while True:
            counts = np.bincount(
                problem.obs_track[mask], minlength=len(problem.track_ids)
            )
            starved = track_active & (counts < options.min_track_length)
            if not starved.any():
                break
            track_active[starved] = False
            dropped = np.flatnonzero(mask & starved[problem.obs_track])
            mask[dropped] = False
            rejected.extend(dropped.tolist())
            for j in np.flatnonzero(starved):
                logger.warning(
                    "track %s kept %d observation(s), fewer than %d; dropped from the solve",
                    problem.track_ids[j],
                    int(counts[j]),
                    options.min_track_length,
                )

    never_observed = set(problem.track_ids) - {o.track_id for o in observations}
    for track in sorted(never_observed):
        logger.warning("track %s has no observations; carried through unchanged", track)
    enforce_track_support()

    def check_camera_support() -> None:
        counts = np.bincount(problem.obs_cam[mask], minlength=len(problem.cam_ids))
        for i in range(problem.n_new_cams):
            if counts[i] == 0:
                raise ValueError(
                    f"new camera {problem.cam_ids[i]} has no retained observations"
                )

    check_camera_support()

    log: List[dict] = []
    converged = False
    for round_index in range(options.max_outlier_rounds + 1):
        converged = _levenberg_marquardt(
            problem, mask, track_active, options, log, round_index
        )
        res, behind = problem.residuals(mask)
        magnitudes = np.hypot(res[:, 0], res[:, 1])
        components = np.abs(res[mask & ~behind]).ravel()
        robust_sigma = 1.4826 * float(np.median(components)) if len(components) else 0.0
        threshold = max(options.outlier_sigma_scale * robust_sigma, options.outlier_floor)
        outliers = mask & (behind | (magnitudes > threshold))
        if not outliers.any() or round_index == options.max_outlier_rounds:
            break
        dropped = np.flatnonzero(outliers)
        mask[dropped] = False
        rejected.extend(int(i) for i in dropped)
        logger.info(
            "outlier round %d removed %d observation(s) above %.3g px",
            round_index + 1,
            len(dropped),
            threshold,
        )
        enforce_track_support()
        check_camera_support()

    final_res, _ = problem.residuals(np.ones(m, dtype=bool))
    kept = mask
    rms = float(np.sqrt((final_res[kept] ** 2).sum() / (2 * int(kept.sum()))))

    new_cams = {
        problem.cam_ids[i]: ExteriorOrientation(
            center=problem.cam_cen[i], rotation=problem.cam_rot[i]
        )
        for i in range(problem.n_new_cams)
    }
    result_points = {
        track: ObjectPoint(position=problem.positions[j], track_id=track)
        for j, track in enumerate(problem.track_ids)
    }
    return AdjustmentResult(
        new_cameras=EpochCameras(
            epoch=new.epoch,
            calibration=problem.calibration_of(0),
            cameras=new_cams,
        ),
        points=result_points,
        fixed_cameras=fixed_epochs,
        residuals=final_res.ravel(),
        rms=rms,
        rejected_observations=sorted(rejected),
        iteration_log=log,
        converged=converged,
    )


@dataclass
class Scenario:
    """A bundle-adjustment problem as stored on disk.

    Attributes:
        fixed_epochs: reference epochs whose parameters stay at their inputs.
        new_epoch: the epoch whose parameters are to be estimated.
        points: initial object points by track id.
        observations: tie-point measurements across all epochs.
        truth: optional ground-truth block (same layout as the estimate
            fields) carried for evaluation; never read by the solver.
    """

    fixed_epochs: List[EpochCameras]
    new_epoch: EpochCameras
    points: Dict[int, ObjectPoint]
    observations: List[ImageObservation]
    truth: Optional[dict] = None


def _epoch_to_dict(epoch: EpochCameras, fixed: bool) -> dict:
    sc = epoch.calibration
    return {
        "epoch": epoch.epoch,
        "fixed": fixed,
        "calibration": {
            "focal_length": sc.focal_length,
            "cx": sc.cx,
            "cy": sc.cy,
            "k1": sc.k1,
            "k2": sc.k2,
        },
        "cameras": [
            {
                "id": cam_id,
                "center": [float(v) for v in eo.center],
                "rotation": [float(v) for v in eo.rotation],
            }
            for cam_id, eo in sorted(epoch.cameras.items())
        ],
    }


def _epoch_from_dict(entry: dict) -> EpochCameras:
    sc = SelfCalibration(**entry["calibration"])
    cameras = {
        cam["id"]: ExteriorOrientation(
            center=np.array(cam["center"], dtype=np.float64),
            rotation=np.array(cam["rotation"], dtype=np.float64),
        )
        for cam in entry["cameras"]
    }
    return EpochCameras(epoch=entry["epoch"], calibration=sc, cameras=cameras)


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as deterministic JSON (sorted keys)."""
    payload = {
        "epochs": [_epoch_to_dict(e, True) for e in scenario.fixed_epochs]
        + [_epoch_to_dict(scenario.new_epoch, False)],
        "points": [
            {"track": track, "position": [float(v) for v in point.position]}
            for track, point in sorted(scenario.points.items())
        ],
        "observations": [
            {
                "camera": o.camera_id,
                "track": o.track_id,
                "x": o.x,
                "y": o.y,
                "weight": o.weight,
            }
            for o in scenario.observations
        ],
    }
    if scenario.truth is not None:
        payload["truth"] = scenario.truth
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_scenario(path) -> Scenario:
    """Read a scenario written by save_scenario.

    Exactly one epoch must carry `fixed: false`.
    """
    payload = json.loads(Path(path).read_text())
    fixed_epochs = [_epoch_from_dict(e) for e in payload["epochs"] if e["fixed"]]
    new_entries = [e for e in payload["epochs"] if not e["fixed"]]
    if len(new_entries) != 1:
        raise ValueError(
            f"scenario must contain exactly one non-fixed epoch, found {len(new_entries)}"
        )
    points = {
        p["track"]: ObjectPoint(
            position=np.array(p["position"], dtype=np.float64), track_id=p["track"]
        )
        for p in payload["points"]
    }
    observations = [
        ImageObservation(
            camera_id=o["camera"],
            track_id=o["track"],
            x=float(o["x"]),
            y=float(o["y"]),
            weight=float(o.get("weight", 1.0)),
        )
        for o in payload["observations"]
    ]
    return Scenario(
        fixed_epochs=fixed_epochs,
        new_epoch=_epoch_from_dict(new_entries[0]),
        points=points,
        observations=observations,
        truth=payload.get("truth"),
    )
