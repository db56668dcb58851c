"""Progressive constrained bundle adjustment.

Given camera poses and self-calibration for one or more earlier (reference)
epochs, initial values for the newest epoch, and tie-point observations
spanning all of them, the solver estimates the newest epoch's exterior
orientations, its self-calibration, and the shared object points. The
observations and the points are two tables, of OBSERVATION_DTYPE rows
(camera, track, x, y, weight) and POINT_DTYPE rows (track, position), from
the scenario file to the solver, which reads their columns as camera and
track indices, pixels, weights and one (n, 3) array of positions. Reference
parameters stay exactly at their inputs: by default they are excluded from
the parameter vector, which is the exact limit of giving them infinite prior
weight; a `prior_weight` mode that instead keeps them as parameters under a
huge prior exists to verify that equivalence.

The minimization is Levenberg-Marquardt on the weighted reprojection error,
with the object points eliminated through the standard reduced (Schur
complement) system so that the dense solve only spans camera and calibration
parameters. The retained observations are grouped by camera, once per set
of retained observations, into groups of one common width w (a camera with
many rows gets several groups, a short group is padded), and every
projection runs on that layout: one call of the camera-major,
structure-of-arrays projection kernel, with one rotation matrix, center and
calibration per group, returns each group's pixels and its (9, 2w)
Jacobian block, and the point block is minus the center columns. The
normal-equation blocks (camera-camera, camera-point, the 3x3 block of each
point, and both gradients) are read straight from those arrays: each
group's 11x11 block and gradient as one matrix product, the per-observation
point and camera-point products with one bincount each into their final
dense layout. The reduced camera system is formed densely from the per-point
3x3 blocks: every camera network this package generates has full visibility,
so the camera-point coupling block is dense anyway. After convergence,
observations whose reprojection error exceeds a robust threshold (scaled
median absolute deviation) are removed and the solve repeats a bounded number
of times.

Each layout owns the working arrays of the iterations on it: every
per-observation array (the kernel's outputs and intermediates, the weighted
Jacobians and per-row products) and the reduced system's dense
intermediates are allocated once with the layout and freed with it when the
mask changes. The kernel, cost, normal-equation and solve calls write into
them in place, so kernel outputs written there are valid only until the next
kernel call on that layout; what these calls return is allocated afresh and
belongs to the caller.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import logging
import math
import numbers
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.spatial.transform import Rotation

from .cameras import (
    OBSERVATION_DTYPE,
    POINT_DTYPE,
    EpochCameras,
    ExteriorOrientation,
    SelfCalibration,
    _JAC_CAL,
    _JAC_CENTER,
    _KernelBuffers,
    _Projection,
    _UNIT_CAL,
    _projection,
    _require_in_front,
    _table_of,
    observation_table,
    point_table,
)

__all__ = [
    "AdjustmentOptions",
    "AdjustmentResult",
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
# A camera's calibration columns in the order its normal-equation block
# takes them: the kernel's Jacobian rows, then the unit slopes.
_KERNEL_CAL_ORDER = np.array(_JAC_CAL + _UNIT_CAL)
# In choosing the layout's group width, what one group costs beyond its rows,
# in rows: its 11x11 block and the batched products' per-matrix overhead.
# On the 60-camera, 15,000-observation network one normal-equation pass
# takes about 0.5 us per row and 3 us per group.
_GROUP_COST = 6
# Per observation, every pair (k, l) of two (g, K, 2, w) Jacobian arrays,
# summed over the x and y rows: (g, K, L, w).
_PAIRS = "gkaw,glaw->gklw"


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
        # A fractional count or a bool is no count, and NaN passes no
        # comparison, so the real-valued settings are checked for finiteness
        # as well.
        counts = (("max_iterations", 1), ("max_outlier_rounds", 0), ("min_track_length", 2))
        for name, least in counts:
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integral and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not 0 < self.convergence_tolerance < 1:
            raise ValueError("convergence_tolerance must be in (0, 1)")
        if not 0 < self.step_tolerance < 1:
            raise ValueError("step_tolerance must be in (0, 1)")
        for name in ("initial_lambda", "outlier_sigma_scale", "prior_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (math.isfinite(self.outlier_floor) and self.outlier_floor >= 0):
            raise ValueError(f"outlier_floor must be finite and >= 0, got {self.outlier_floor}")
        if self.fixed_handling not in ("exclude", "prior_weight"):
            raise ValueError(
                f"fixed_handling must be 'exclude' or 'prior_weight', got {self.fixed_handling!r}"
            )


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


def _views(shapes: Sequence[Tuple[int, ...]]) -> List[np.ndarray]:
    """Uninitialized float64 arrays of the given shapes, consecutive views of
    one new block, so that they are allocated and freed together."""
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


class _Workspace:
    """The per-observation arrays of one layout's LM iteration, allocated
    once with the layout and freed with it.

    The kernel and every cost, normal-equation and solve call on the layout
    overwrite them, so an array read from here is valid only until the next
    such call; what those calls return is allocated afresh and owned by the
    caller. The sizes come from the layout: g groups of width w, of which
    n_system are in the system, nc camera and calibration columns, and (set
    by `bind_tracks`) the active point count. All but y are views of one
    block, so that a layout's arrays come and go as one allocation, which
    the next layout of a similar size can reuse.

    Attributes:
        kernel: the projection kernel's buffers, with Jacobians.
        points: (g, w, 3) the object point of each row.
        residual: (g, 2, w) measured minus projected pixels, then weighted.
        w_center: (g, 3, 2, w) the weighted center Jacobian.
        point_pairs: (g, 3, 3, w) per row, the point block's products.
        point_grad: (g, 3, w) per row, the point gradient's products.
        w_jac: (n_system, 9, 2w) the weighted camera Jacobian blocks.
        products: (n_system, 11, 3, w) per row, the camera-point products.
        damped: (nc, nc) the damped camera block, then the reduced system.
        coupling: (nc, nc) Y H_cp^T.
        y: (nc, 3 n_points) Y = H_cp V^-1, allocated by `bind_tracks`.
    """

    def __init__(self, groups: int, width: int, n_system: int, n_cols: int) -> None:
        dense = _CAM_CAL_PARAMS - len(_UNIT_CAL)
        kernel = _KernelBuffers.shapes(groups, width, jacobians=True)
        views = _views(
            kernel
            + [
                (groups, width, _POINT_PARAMS),
                (groups, 2, width),
                (groups, _POINT_PARAMS, 2, width),
                (groups, _POINT_PARAMS, _POINT_PARAMS, width),
                (groups, _POINT_PARAMS, width),
                (n_system, dense, 2 * width),
                (n_system, _CAM_CAL_PARAMS, _POINT_PARAMS, width),
                (n_cols, n_cols),
                (n_cols, n_cols),
            ]
        )
        self.kernel = _KernelBuffers(*views[: len(kernel)])
        (
            self.points,
            self.residual,
            self.w_center,
            self.point_pairs,
            self.point_grad,
            self.w_jac,
            self.products,
            self.damped,
            self.coupling,
        ) = views[len(kernel) :]
        self.y = np.empty((n_cols, 0))


def _group_width(counts: np.ndarray) -> int:
    """The width w that every camera's retained rows are cut into groups of.

    Among the cameras' own row counts, w is the one that minimizes padded
    rows plus _GROUP_COST per group. Each camera gets fewer than w padded
    rows, and never more in all than padding every camera to the longest
    count would give. Uniform visibility gives one unpadded group per camera;
    ragged visibility, where padding to the longest can multiply the rows
    by up to the number of cameras, cuts the long cameras into several
    groups instead.
    """
    widths = np.unique(counts)
    if not len(widths):
        return 1
    groups = -(-counts // widths[:, None])
    return int(widths[np.argmin((groups * (widths[:, None] + _GROUP_COST)).sum(axis=1))])


class _BlockLayout:
    """The retained observations of one mask grouped by camera, which is the
    layout the projection kernel runs on, and where each group's Jacobian
    products land in the normal equations.

    Each camera's retained observations, in input order, are cut into groups
    of the common width `_group_width` chooses, so group i holds up to w rows
    of camera `cams[i]`. A short group is padded by repeating its first
    observation with weight 0: padding projects like a real row and adds
    exact zeros. Cameras in the system come first (new cameras have the
    lowest indices, and fixed cameras are all in the system or all out), so
    their groups are the first `n_system`. A camera's groups all add to its
    own columns.

    Every target index addresses a flattened final block, so one bincount per
    block sums the products in place and contributions that share a target
    (a point seen by several cameras, a calibration shared by several
    cameras, a track observed twice by one camera) accumulate. The point
    targets depend on which tracks are active and are set by `bind_tracks`.
    """

    def __init__(self, problem: _Problem, mask: np.ndarray) -> None:
        self.mask = mask.copy()
        rows = np.flatnonzero(mask)
        cams = problem.obs_cam[rows]
        order = np.argsort(cams, kind="stable")
        grouped = rows[order]
        cam_ids, starts, counts = np.unique(cams[order], return_index=True, return_counts=True)
        width = _group_width(counts)
        pieces = -(-counts // width)
        self.cams = cam_ids.repeat(pieces)
        # Group i is piece k of its camera: up to w rows of `grouped` from
        # `start`, none past its camera's `end`.
        k = np.arange(len(self.cams)) - (np.cumsum(pieces) - pieces).repeat(pieces)
        start = (starts.repeat(pieces) + width * k)[:, None]
        end = (starts + counts).repeat(pieces)[:, None]
        rank = np.arange(width)
        self.real = rank < end - start
        self.obs = grouped[np.where(self.real, start + rank, start)]
        self.weight = np.where(self.real, problem.obs_weight[self.obs], 0.0)
        self.track = problem.obs_track[self.obs]
        # (g, 2, w): the x and y rows of each group, as in the kernel's Jacobian.
        self.measured = np.ascontiguousarray(problem.measured[self.obs].transpose(0, 2, 1))
        self.n_system = n = int((problem.cam_col[self.cams] >= 0).sum())

        # Each system group's 11 columns, its camera's, in the kernel's
        # order: rotation increment and center, then f, k1, k2, then cx, cy.
        self.n_cols = nc = problem.n_cam_cal_cols
        self.cols = np.concatenate(
            [
                problem.cam_col[self.cams[:n], None] + np.arange(_CAM_PARAMS),
                problem.cal_col[problem.cam_cal[self.cams[:n]], None] + _KERNEL_CAL_ORDER,
            ],
            axis=1,
        )
        self.hcc_index = (self.cols[:, :, None] * nc + self.cols[:, None, :]).ravel()
        self.gc_index = self.cols.ravel()
        # (n_system, 1, 2w): each system group's weights along the x and then
        # the y rows of its Jacobian block.
        self.jac_weight = self.weight[:n, None].repeat(2, axis=1).reshape(n, 1, 2 * width)
        self.work = _Workspace(len(self.cams), width, n, nc)
        self.track_active: Optional[np.ndarray] = None

    def bind_tracks(self, track_active: np.ndarray) -> None:
        """Point targets for `track_active`: active tracks get contiguous
        3-column slots in input order. Kept while `track_active` is unchanged."""
        if self.track_active is not None and np.array_equal(track_active, self.track_active):
            return
        self.track_active = track_active.copy()
        self.n_points = int(track_active.sum())
        slot = np.full(len(track_active), -1, dtype=np.intp)
        slot[track_active] = np.arange(self.n_points)
        # Each product array is laid out like the target index built for it:
        # v (g, 3, 3, w), grad_p (g, 3, w) and h_cp (n_system, 11, 3, w).
        point = _POINT_PARAMS * slot[self.track][:, None, None, :]
        k = np.arange(_POINT_PARAMS)
        self.v_index = (_POINT_PARAMS * point + (_POINT_PARAMS * k[:, None] + k)[:, :, None]).ravel()
        self.gp_index = (point[:, 0] + k[:, None]).ravel()
        self.hcp_index = (
            self.cols[:, :, None, None] * (_POINT_PARAMS * self.n_points)
            + point[: self.n_system]
            + k[:, None]
        ).ravel()
        self.work.y = np.empty((self.n_cols, _POINT_PARAMS * self.n_points))

    def matches(self, mask: np.ndarray) -> bool:
        return np.array_equal(mask, self.mask)


def _accumulate(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum `values` into `size` slots by `index`."""
    return np.bincount(index, weights=values.ravel(), minlength=size)


@dataclass
class AdjustmentResult:
    """Outcome of a progressive adjustment.

    Attributes:
        new_cameras: optimized new-epoch cameras and self-calibration.
        points: optimized object points as a POINT_DTYPE table (tracks
            dropped from the solve keep their last, possibly initial, value).
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
    points: np.ndarray
    fixed_cameras: List[EpochCameras]
    residuals: np.ndarray
    rms: float
    rejected_observations: List[int]
    iteration_log: List[dict] = field(default_factory=list)
    converged: bool = True


def _rows_of(ids: Sequence[int], refs: np.ndarray, what: str) -> np.ndarray:
    """Where each id of `refs` stands in `ids`; an id that `ids` lacks is a
    ValueError naming the first reference to it."""
    ids = np.asarray(ids, dtype=np.int64)
    unknown = ~np.isin(refs, ids)
    if unknown.any():
        raise ValueError(f"observation references unknown {what} {refs[np.argmax(unknown)]}")
    order = np.argsort(ids)
    return order[np.searchsorted(ids, refs, sorter=order)]


class _Problem:
    """Flattened arrays and column layout for one adjustment instance."""

    def __init__(
        self,
        fixed_epochs: Sequence[EpochCameras],
        new_epoch: EpochCameras,
        points: np.ndarray,
        observations: np.ndarray,
        include_fixed: bool,
    ) -> None:
        # Camera/calibration tables. Slot 0 is the new epoch's calibration;
        # fixed epochs follow in the given order.
        epochs = [new_epoch, *fixed_epochs]
        slots = [(k, cam_id) for k, epoch in enumerate(epochs) for cam_id in sorted(epoch.cameras)]
        self.cam_ids: List = [cam_id for _, cam_id in slots]
        repeated = [cam_id for cam_id, n in collections.Counter(self.cam_ids).items() if n > 1]
        if repeated:
            raise ValueError(f"camera id {repeated[0]} appears in more than one epoch")
        poses = [epochs[k].cameras[cam_id] for k, cam_id in slots]
        self.cam_rot = np.array([eo.rotation for eo in poses], dtype=np.float64).reshape(-1, 3)
        self.cam_cen = np.array([eo.center for eo in poses], dtype=np.float64).reshape(-1, 3)
        self.cam_cal = np.array([k for k, _ in slots], dtype=np.intp)
        self.cal_values = np.array([epoch.calibration.as_array() for epoch in epochs])
        self.n_new_cams = n_new = len(new_epoch.cameras)

        # Column layout: new cameras, new calibration, then (prior mode
        # only) each fixed epoch's cameras and calibration.
        self.cam_col = np.full(len(self.cam_ids), -1, dtype=np.intp)
        self.cal_col = np.full(len(epochs), -1, dtype=np.intp)
        self.cam_col[:n_new] = _CAM_PARAMS * np.arange(n_new)
        self.cal_col[0] = _CAM_PARAMS * n_new
        self.new_width = self.n_cam_cal_cols = _CAM_PARAMS * n_new + _CAL_PARAMS
        if include_fixed:
            n_fixed = len(self.cam_ids) - n_new
            self.cam_col[n_new:] = self.new_width + _CAM_PARAMS * np.arange(n_fixed)
            fixed_cals = self.new_width + _CAM_PARAMS * n_fixed
            self.cal_col[1:] = fixed_cals + _CAL_PARAMS * np.arange(len(fixed_epochs))
            self.n_cam_cal_cols = fixed_cals + _CAL_PARAMS * len(fixed_epochs)
        self.include_fixed = include_fixed
        self.input_rot = self.cam_rot.copy()
        self.input_cen = self.cam_cen.copy()
        self.input_cal = self.cal_values.copy()

        # Point table and observation arrays; the solver moves a copy of the positions.
        self.points = point_table(points)
        self.track_ids = self.points["track"]
        self.positions = self.points["position"].copy()
        observations = observation_table(observations)
        self.obs_cam = _rows_of(self.cam_ids, observations["camera"], "camera")
        self.obs_track = _rows_of(self.track_ids, observations["track"], "track")
        self.measured = np.column_stack([observations["x"], observations["y"]])
        self.obs_weight = np.ascontiguousarray(observations["weight"])
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

    def _layout_for(self, mask: np.ndarray) -> _BlockLayout:
        """The camera-grouped layout of `mask`, rebuilt only when the mask
        differs from the one it was built for."""
        if self._layout is None or not self._layout.matches(mask):
            # Free the old layout and its workspace first, so that their
            # memory is free for the new one.
            self._layout = None
            self._layout = _BlockLayout(self, mask)
        return self._layout

    def _project(self, layout: _BlockLayout, jacobians: bool = False) -> _Projection:
        """The projection kernel over the layout's camera groups, with one
        rotation matrix, center and calibration per group, written into the
        layout's workspace."""
        cams = layout.cams
        work = layout.work
        # Every track index is valid, so "clip" never clips; unlike the
        # default "raise", it writes straight into `out` with no buffer.
        points = np.take(self.positions, layout.track, axis=0, out=work.points, mode="clip")
        return _projection(
            points.transpose(0, 2, 1),
            Rotation.from_rotvec(self.cam_rot[cams]).as_matrix(),
            self.cam_cen[cams],
            self.cal_values[self.cam_cal[cams]],
            jacobians,
            work.kernel,
        )

    def residuals(self, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Residuals (m, 2) for masked observations; second array flags rows
        whose point sits at or behind the camera plane (residual NaN)."""
        m = len(self.obs_cam)
        res = np.full((m, 2), np.nan)
        behind = np.zeros(m, dtype=bool)
        layout = self._layout_for(mask)
        proj = self._project(layout)
        real = layout.real
        rows = layout.obs[real]
        bad = proj.depth[real] <= 0
        behind[rows[bad]] = True
        ok = ~bad
        diff = np.subtract(layout.measured, proj.pixels, out=layout.work.residual)
        res[rows[ok]] = diff.transpose(0, 2, 1)[real][ok]
        return res, behind

    def cost(self, mask: np.ndarray) -> float:
        """Weighted squared reprojection error; inf when a masked point is
        at or behind its camera."""
        layout = self._layout_for(mask)
        proj = self._project(layout)
        # Padding repeats real rows, so it is behind only where they are.
        if (proj.depth <= 0).any():
            return float("inf")
        residual = np.subtract(layout.measured, proj.pixels, out=layout.work.residual)
        np.square(residual, out=residual)
        residual *= layout.weight[:, None]
        return float(residual.sum())

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

    def normal_equations(
        self, mask: np.ndarray, track_active: np.ndarray, prior_weight: Optional[float]
    ) -> _NormalEquations:
        """The normal-equation blocks at the current parameters over masked
        observations, plus the identity prior rows of weight `prior_weight`
        on the fixed columns unless it is None.

        The camera-grouped layout is rebuilt only when `mask` changes, and
        its point targets only when `track_active` does."""
        layout = self._layout_for(mask)
        layout.bind_tracks(track_active)
        work = layout.work
        proj = self._project(layout, jacobians=True)
        _require_in_front(proj.depth[layout.real])
        width = layout.weight.shape[1]
        weight = layout.weight[:, None, :]
        w_res = np.subtract(layout.measured, proj.pixels, out=work.residual)
        w_res *= weight

        # Point blocks. The point derivative is minus the center's, so
        # dp^T W dp = dc^T W dc and dp^T W r = -(dc^T W r).
        d_center = proj.jac[:, _JAC_CENTER]
        w_center = np.multiply(weight[:, None], d_center, out=work.w_center)
        n_p = layout.n_points
        pairs = np.einsum(_PAIRS, d_center, w_center, out=work.point_pairs)
        v = _accumulate(layout.v_index, pairs, _POINT_PARAMS**2 * n_p).reshape(
            n_p, _POINT_PARAMS, _POINT_PARAMS
        )
        terms = np.einsum("gkaw,gaw->gkw", d_center, w_res, out=work.point_grad)
        grad_p = -_accumulate(layout.gp_index, terms, _POINT_PARAMS * n_p)

        # Camera blocks, one (9, 2w) Jacobian per system group; cx and cy
        # have unit slope on the x and y rows, so their entries are sums.
        n = layout.n_system
        dense = proj.jac.shape[1]
        jac = proj.jac[:n].reshape(n, dense, 2 * width)
        w_jac = np.multiply(jac, layout.jac_weight, out=work.w_jac)
        unit = w_jac.reshape(n, dense, 2, width).sum(axis=3)
        block = np.empty((n, _CAM_CAL_PARAMS, _CAM_CAL_PARAMS))
        np.matmul(w_jac, jac.transpose(0, 2, 1), out=block[:, :dense, :dense])
        block[:, :dense, dense:] = unit
        block[:, dense:, :dense] = unit.transpose(0, 2, 1)
        block[:, dense:, dense:] = np.eye(2) * layout.weight[:n].sum(axis=1)[:, None, None]
        nc = layout.n_cols
        h_cc = _accumulate(layout.hcc_index, block, nc * nc).reshape(nc, nc)
        grad = np.empty((n, _CAM_CAL_PARAMS))
        np.matmul(jac, w_res[:n].reshape(n, 2 * width, 1), out=grad[:, :dense, None])
        grad[:, dense:] = w_res[:n].sum(axis=2)
        grad_c = _accumulate(layout.gc_index, grad, nc)
        # (W jc)^T dp = -(W jc)^T dc per observation.
        w_jac = w_jac.reshape(n, dense, 2, width)
        products = work.products
        np.einsum(_PAIRS, w_jac, d_center[:n], out=products[:, :dense])
        products[:, dense:] = w_center[:n].transpose(0, 2, 1, 3)
        h_cp = _accumulate(layout.hcp_index, products, nc * _POINT_PARAMS * n_p).reshape(
            nc, _POINT_PARAMS * n_p
        )
        np.negative(h_cp, out=h_cp)
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
    work: _Workspace,
) -> np.ndarray:
    """One damped normal-equation solve, eliminating points by Schur
    complement. Returns the full parameter step, camera and calibration
    columns first, points last. The blocks are those of _NormalEquations
    and are not modified; the dense intermediates are written into the
    workspace of the layout the blocks were formed on.

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
    nc = len(h_cc)
    # The damped H_cc, then S in place.
    reduced = work.damped
    np.copyto(reduced, h_cc)
    reduced.ravel()[:: nc + 1] += lam * diag_c
    v = v + (lam * diag_p)[:, :, None] * np.eye(_POINT_PARAMS)
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise ValueError("rank-deficient normal equations in the point block") from exc

    # Y = H_cp V^-1, one (nc, 3) @ (3, 3) product per point, written
    # straight into Y's (nc, 3 n_points) layout.
    def per_point(a: np.ndarray) -> np.ndarray:
        return a.reshape(nc, n_points, _POINT_PARAMS).transpose(1, 0, 2)

    y = work.y
    np.matmul(per_point(h_cp), v_inv, out=per_point(y))
    reduced -= np.matmul(y, h_cp.T, out=work.coupling)
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
        equations = problem.normal_equations(mask, track_active, prior_weight)
        delta = _solve_reduced(*equations, lam, problem._layout_for(mask).work)
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


def refine_progressive(
    fixed: Union[EpochCameras, Sequence[EpochCameras]],
    new: EpochCameras,
    points: np.ndarray,
    observations: np.ndarray,
    options: Optional[AdjustmentOptions] = None,
) -> AdjustmentResult:
    """Estimate new-epoch poses, self-calibration, and object points.

    Reference-epoch parameters never move; see the module docstring for the
    two ways that is enforced. `points` and `observations` are tables that
    `cameras.point_table` and `cameras.observation_table` accept; observation
    rows may reference cameras of any epoch, and residuals and rejected
    observations are given by row. Tracks observed fewer than
    `options.min_track_length` times are dropped with one warning each, and
    their observations reported as rejected.

    Raises ValueError for a malformed table, dangling camera/track
    references, duplicate camera ids across epochs, a new camera with no
    observations, initial values that place observations behind a camera,
    or rank-deficient normal equations. Non-convergence within the
    iteration budget is reported via `converged=False` on the result instead.
    """
    options = options or AdjustmentOptions()
    fixed_epochs = [fixed] if isinstance(fixed, EpochCameras) else list(fixed)
    problem = _Problem(
        fixed_epochs,
        new,
        points,
        observations,
        include_fixed=options.fixed_handling == "prior_weight",
    )
    m = len(problem.obs_cam)
    mask = np.ones(m, dtype=bool)
    track_active = np.ones(len(problem.track_ids), dtype=bool)
    rejected: List[int] = []

    unobserved = np.bincount(problem.obs_track, minlength=len(problem.track_ids)) == 0
    for track in problem.track_ids[unobserved].tolist():
        logger.warning("track %s has no observations; carried through unchanged", track)

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
            for j in np.flatnonzero(starved & ~unobserved):
                logger.warning(
                    "track %s kept %d observation(s), fewer than %d; dropped from the solve",
                    problem.track_ids[j],
                    int(counts[j]),
                    options.min_track_length,
                )

    enforce_track_support()

    def check_camera_support() -> None:
        counts = np.bincount(problem.obs_cam[mask], minlength=len(problem.cam_ids))
        for i in np.flatnonzero(counts[: problem.n_new_cams] == 0):
            raise ValueError(f"new camera {problem.cam_ids[i]} has no retained observations")

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
    rms = float(np.sqrt((final_res[mask] ** 2).sum() / (2 * int(mask.sum()))))

    new_cams = {
        problem.cam_ids[i]: ExteriorOrientation(
            center=problem.cam_cen[i], rotation=problem.cam_rot[i]
        )
        for i in range(problem.n_new_cams)
    }
    result_points = problem.points.copy()
    result_points["position"] = problem.positions
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
        points: initial object points, made one table sorted by track by
            `cameras.point_table`, naming a fault "scenario.points[3]...".
        observations: tie-point measurements across all epochs, made one
            table by `cameras.observation_table` (an empty list included).
        truth: optional ground-truth block (same layout as the estimate
            fields) carried for evaluation; never read by the solver.
    """

    fixed_epochs: List[EpochCameras]
    new_epoch: EpochCameras
    points: np.ndarray
    observations: np.ndarray
    truth: Optional[dict] = None

    def __post_init__(self) -> None:
        self.points = point_table(self.points, "scenario.points")
        self.observations = observation_table(self.observations, "scenario.observations")


def _epoch_to_dict(epoch: EpochCameras, fixed: bool) -> dict:
    return {
        "epoch": epoch.epoch,
        "fixed": fixed,
        "calibration": dataclasses.asdict(epoch.calibration),
        "cameras": [
            {"id": cam_id, "center": eo.center.tolist(), "rotation": eo.rotation.tolist()}
            for cam_id, eo in sorted(epoch.cameras.items())
        ],
    }


def _points_to_list(points: np.ndarray) -> List[dict]:
    columns = points["track"].tolist(), points["position"].tolist()
    return [{"track": track, "position": position} for track, position in zip(*columns)]


# Value kinds of scenario JSON fields: the types a scalar may have (the JSON
# decoder makes exactly these, and True is a bool, not an int), _VECTOR for a
# list of three numbers, and None for a value checked where it is read (a
# nested object or list, or the opaque truth).
_INTEGER = (int,)
_NUMBER = (int, float)
_BOOLEAN = (bool,)
_VECTOR = "vector"
_KIND_NAMES = {
    _INTEGER: "an integer",
    _NUMBER: "a number",
    _BOOLEAN: "true or false",
    _VECTOR: "a list of 3 numbers",
}
# The integers each numeric kind takes. The tables store an integer field as
# int64 and a number field as float64, in which a larger integer rounds to inf.
_RANGES = {_INTEGER: range(-(2**63), 2**63), _NUMBER: range(1 - 2**1024 + 2**970, 2**1024 - 2**970)}
_RANGE_NAMES = {_INTEGER: "an integer within int64", _NUMBER: "a number within float64"}
_OBSERVATION_FIELDS = dict(camera=_INTEGER, track=_INTEGER, x=_NUMBER, y=_NUMBER, weight=_NUMBER)
_ABSENT = object()  # a required key's value in a column where its object lacks it


def _of_kind(values: list, kind) -> bool:
    """Whether every one of `values` is of `kind`, checked by their types,
    and every integer among them is in `_RANGES[kind]`."""
    if kind is _VECTOR:
        return all(type(v) is list and len(v) == 3 and _of_kind(v, _NUMBER) for v in values)
    if kind is None:
        return True
    types = set(map(type, values))
    if int not in types or not types <= set(kind):
        return types <= set(kind)
    ints = [v for v in values if type(v) is int] if float in types else values
    return min(ints) in _RANGES[kind] and max(ints) in _RANGES[kind]


def _object(value, where: str, fields: Mapping, optional=()) -> dict:
    """A scenario JSON object holding every key of `fields` but those in
    `optional`, and nothing else, each key's value of the kind `fields`
    gives it; anything else is a ValueError naming `where`."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(value).__name__}")
    for key in fields:
        if key not in value and key not in optional:
            raise ValueError(f"{where}: missing key {key!r}")
    for key, item in value.items():
        if key not in fields:
            raise ValueError(f"{where}: unknown key {key!r}")
        kind = fields[key]
        if not _of_kind([item], kind):
            # An integer of a numeric kind is refused for its size alone.
            names = _RANGE_NAMES if type(item) is int and kind in _RANGE_NAMES else _KIND_NAMES
            raise ValueError(f"{where}.{key}: expected {names[kind]}, got {reprlib.repr(item)}")
    return value


def _columns(items: list, fields: Mapping, defaults: Mapping) -> Optional[Dict[str, list]]:
    """`items` as one list of values per key of `fields`, an absent key's
    value its default, if every item passes _object with `defaults` as the
    optional keys; None otherwise. The checks run a column at a time."""
    if set(map(type, items)) - {dict} or set().union(*items) - fields.keys():
        return None
    columns = {}
    for key, kind in fields.items():
        default = defaults.get(key, _ABSENT)
        column = columns[key] = [item.get(key, default) for item in items]
        if _ABSENT in column or not _of_kind(column, kind):
            return None
    return columns


def _records(value, where: str, fields: Mapping, defaults: Mapping = {}) -> dict:
    """A scenario JSON list of objects, read by _columns. A list that fails
    is walked an object at a time, so that _object names the first fault."""
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected a JSON list, got {type(value).__name__}")
    columns = _columns(value, fields, defaults)
    if columns is None:
        for i, item in enumerate(value):
            _object(item, f"{where}[{i}]", fields, defaults)
    return columns


def _built(build, where: str, values: Mapping[str, object]):
    """build(**values); a ValueError it raises, which starts with the field it
    refused, is prefixed with `where`."""
    try:
        return build(**values)
    except ValueError as exc:
        raise ValueError(f"{where}.{exc}") from None


def _epoch_from_dict(entries: Dict[str, list], i: int) -> EpochCameras:
    """Epoch i of the scenario's epoch columns."""
    where = f"scenario.epochs[{i}]"
    keys = [f.name for f in dataclasses.fields(SelfCalibration)]
    calibration = _object(
        entries["calibration"][i], f"{where}.calibration", dict.fromkeys(keys, _NUMBER), keys[1:]
    )
    calibration = _built(SelfCalibration, f"{where}.calibration", calibration)
    fields = {"id": _INTEGER, "center": _VECTOR, "rotation": _VECTOR}
    poses = _records(entries["cameras"][i], f"{where}.cameras", fields)
    cameras = {}
    for k, (cam_id, center, rotation) in enumerate(zip(*poses.values())):
        if cam_id in cameras:
            raise ValueError(f"{where}.cameras[{k}].id: duplicate camera id {cam_id}")
        pose = {"center": center, "rotation": rotation}
        cameras[cam_id] = _built(ExteriorOrientation, f"{where}.cameras[{k}]", pose)
    return EpochCameras(epoch=entries["epoch"][i], calibration=calibration, cameras=cameras)


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as deterministic JSON: one line, sorted keys.

    No indentation, so the C encoder writes it; load_scenario reads this
    layout and the older indented one alike.
    """
    columns = [scenario.observations[key].tolist() for key in _OBSERVATION_FIELDS]
    payload = {
        "epochs": [_epoch_to_dict(e, True) for e in scenario.fixed_epochs]
        + [_epoch_to_dict(scenario.new_epoch, False)],
        "points": _points_to_list(scenario.points),
        "observations": [
            {"camera": camera, "track": track, "x": x, "y": y, "weight": weight}
            for camera, track, x, y, weight in zip(*columns)
        ],
    }
    if scenario.truth is not None:
        payload["truth"] = scenario.truth
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_scenario(path) -> Scenario:
    """Read a scenario written by save_scenario.

    Exactly one epoch must carry `fixed: false`, camera ids must be unique
    within an epoch and tracks among the points. An observation without a
    weight has weight 1.
    """
    payload = json.loads(Path(path).read_text())
    keys = ("epochs", "points", "observations", "truth")
    payload = _object(payload, "scenario", dict.fromkeys(keys), ("truth",))
    entries = _records(
        payload["epochs"],
        "scenario.epochs",
        {"epoch": _INTEGER, "fixed": _BOOLEAN, "calibration": None, "cameras": None},
    )
    epochs = [_epoch_from_dict(entries, i) for i in range(len(entries["epoch"]))]
    fixed_epochs = [epoch for epoch, fixed in zip(epochs, entries["fixed"]) if fixed]
    new_epochs = [epoch for epoch, fixed in zip(epochs, entries["fixed"]) if not fixed]
    if len(new_epochs) != 1:
        raise ValueError(
            f"scenario must contain exactly one non-fixed epoch, found {len(new_epochs)}"
        )
    points = _records(payload["points"], "scenario.points", {"track": _INTEGER, "position": _VECTOR})
    where = "scenario.observations"
    columns = _records(payload["observations"], where, _OBSERVATION_FIELDS, {"weight": 1.0})
    return Scenario(
        fixed_epochs=fixed_epochs,
        new_epoch=new_epochs[0],
        points=_table_of(POINT_DTYPE, **points),
        observations=_table_of(OBSERVATION_DTYPE, **columns),
        truth=payload.get("truth"),
    )
