"""Synthetic scenes with analytic ground truth.

Building-like point clouds sampled from axis-aligned surfaces, scripted
demolition that returns exact truth labels and closed-form removed volumes,
isotropic measurement noise, and camera-network scenarios for the bundle
adjustment solver. Every generator is a deterministic function of its
parameters and a seed, which is what makes these scenes usable as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cameras import (
    EpochCameras,
    ExteriorOrientation,
    ImageObservation,
    ObjectPoint,
    SelfCalibration,
    project_points,
)
from .geometry import ChangeLabel, PointCloud

__all__ = [
    "BuildingSpec",
    "ColumnGrid",
    "DemolitionScript",
    "PoseScenario",
    "PoseScenarioConfig",
    "RemovalBox",
    "RubbleSpec",
    "add_noise",
    "apply_demolition",
    "generate_building",
    "generate_demolition_series",
    "generate_pose_scenario",
]


@dataclass(frozen=True)
class ColumnGrid:
    """Regular grid of square interior columns.

    Attributes:
        count_x / count_y: columns along each footprint axis.
        side: column cross-section side, metres.
    """

    count_x: int
    count_y: int
    side: float

    def __post_init__(self) -> None:
        if self.count_x < 1 or self.count_y < 1:
            raise ValueError("column counts must be >= 1")
        if self.side <= 0:
            raise ValueError(f"column side must be > 0, got {self.side}")


@dataclass(frozen=True)
class BuildingSpec:
    """Axis-aligned building envelope with sampled surfaces.

    The envelope occupies [0, width] x [0, length] x [0, height]. Sampled
    surfaces are the ground slab, the roof, the four outer walls, interior
    floor slabs every `story_height`, and optionally a grid of interior
    columns.

    Attributes:
        width / length: footprint, metres.
        height: metres.
        story_height: vertical spacing of interior floor slabs, metres.
        density: surface sampling density, points per square metre.
        columns: optional interior column grid.
    """

    width: float
    length: float
    height: float
    story_height: float = 3.0
    density: float = 400.0
    columns: Optional[ColumnGrid] = None

    def __post_init__(self) -> None:
        for name in ("width", "length", "height", "story_height", "density"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")

    @classmethod
    def from_dict(cls, data: dict) -> "BuildingSpec":
        data = dict(data)
        columns = data.pop("columns", None)
        if columns is not None:
            columns = ColumnGrid(**columns)
        return cls(columns=columns, **data)


@dataclass(frozen=True)
class RemovalBox:
    """One axis-aligned demolition volume applied at a given epoch."""

    epoch: int
    lo: Tuple[float, float, float]
    hi: Tuple[float, float, float]

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64).reshape(3)
        hi = np.asarray(self.hi, dtype=np.float64).reshape(3)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("removal box bounds must be finite")
        if (hi <= lo).any():
            raise ValueError(f"removal box must have positive extent, got lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))


@dataclass(frozen=True)
class RubbleSpec:
    """Debris scattered under removed regions of the later cloud.

    Attributes:
        points_per_m3: rubble point count per cubic metre of removed solid.
        height: rubble pile height above the ground plane, metres.
        seed: base seed for the scatter (combined with the epoch).
    """

    points_per_m3: float
    height: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.points_per_m3) and self.points_per_m3 > 0):
            raise ValueError(f"points_per_m3 must be finite and > 0, got {self.points_per_m3}")
        if not (np.isfinite(self.height) and self.height > 0):
            raise ValueError(f"rubble height must be finite and > 0, got {self.height}")


def _clipped_box(lo, hi, spec: BuildingSpec) -> Tuple[np.ndarray, np.ndarray]:
    env_hi = np.array([spec.width, spec.length, spec.height])
    return np.maximum(np.asarray(lo), 0.0), np.minimum(np.asarray(hi), env_hi)


def _clipped_volume(lo, hi, spec: BuildingSpec) -> float:
    clip_lo, clip_hi = _clipped_box(lo, hi, spec)
    return float(np.prod(np.maximum(clip_hi - clip_lo, 0.0)))


@dataclass(frozen=True)
class DemolitionScript:
    """Ordered removal boxes against one building, tagged by epoch.

    Boxes must intersect the building envelope, and their envelope
    intersections must be pairwise disjoint (also across epochs) so that
    analytic removed volumes stay exact under progressive application.

    Attributes:
        building: the envelope the boxes cut into.
        boxes: removal volumes in application order.
        rubble: optional debris added under removed regions.
    """

    building: BuildingSpec
    boxes: Tuple[RemovalBox, ...]
    rubble: Optional[RubbleSpec] = None

    def __post_init__(self) -> None:
        boxes = tuple(self.boxes)
        if not boxes:
            raise ValueError("demolition script needs at least one removal box")
        object.__setattr__(self, "boxes", boxes)
        for box in boxes:
            if _clipped_volume(box.lo, box.hi, self.building) <= 0:
                raise ValueError(
                    f"removal box {box.lo}..{box.hi} does not intersect the building envelope"
                )
        for i, a in enumerate(boxes):
            a_lo, a_hi = _clipped_box(a.lo, a.hi, self.building)
            for b in boxes[i + 1 :]:
                b_lo, b_hi = _clipped_box(b.lo, b.hi, self.building)
                overlap = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
                if (overlap > 0).all():
                    raise ValueError(
                        "removal boxes overlap inside the envelope; volumes would double-count"
                    )

    def epochs(self) -> List[int]:
        return sorted({box.epoch for box in self.boxes})

    def removed_volume(self, epoch: int) -> float:
        """Analytic solid volume removed at one epoch, cubic metres."""
        return sum(
            _clipped_volume(box.lo, box.hi, self.building)
            for box in self.boxes
            if box.epoch == epoch
        )

    @classmethod
    def from_dict(cls, data: dict) -> "DemolitionScript":
        building = BuildingSpec.from_dict(data["building"])
        boxes = tuple(
            RemovalBox(epoch=b["epoch"], lo=tuple(b["lo"]), hi=tuple(b["hi"]))
            for b in data["boxes"]
        )
        rubble = data.get("rubble")
        return cls(
            building=building,
            boxes=boxes,
            rubble=None if rubble is None else RubbleSpec(**rubble),
        )


def _sample_rectangle(rng, corner, edge_u, edge_v, density: float) -> np.ndarray:
    """Stratified-jitter samples of a rectangle spanned by two edges: one
    point per grid tile, so the count tracks density x area closely."""
    corner = np.asarray(corner, dtype=np.float64)
    edge_u = np.asarray(edge_u, dtype=np.float64)
    edge_v = np.asarray(edge_v, dtype=np.float64)
    len_u = float(np.linalg.norm(edge_u))
    len_v = float(np.linalg.norm(edge_v))
    n_u = max(1, round(len_u * math.sqrt(density)))
    n_v = max(1, round(len_v * math.sqrt(density)))
    iu, iv = np.meshgrid(np.arange(n_u), np.arange(n_v), indexing="ij")
    u = (iu.ravel() + rng.random(n_u * n_v)) / n_u
    v = (iv.ravel() + rng.random(n_u * n_v)) / n_v
    return corner + u[:, None] * edge_u + v[:, None] * edge_v


def generate_building(spec: BuildingSpec, seed: int = 0) -> PointCloud:
    """Sample a building's surfaces at the spec's density.

    Deterministic per (spec, seed). Surfaces: ground, roof, four walls,
    interior floor slabs every story_height, optional interior columns.
    """
    rng = np.random.default_rng(seed)
    w, l, h = spec.width, spec.length, spec.height
    ex = np.array([w, 0.0, 0.0])
    ey = np.array([0.0, l, 0.0])
    ez = np.array([0.0, 0.0, h])
    parts = [
        _sample_rectangle(rng, (0, 0, 0), ex, ey, spec.density),  # ground
        _sample_rectangle(rng, (0, 0, h), ex, ey, spec.density),  # roof
        _sample_rectangle(rng, (0, 0, 0), ey, ez, spec.density),  # wall x = 0
        _sample_rectangle(rng, (w, 0, 0), ey, ez, spec.density),  # wall x = w
        _sample_rectangle(rng, (0, 0, 0), ex, ez, spec.density),  # wall y = 0
        _sample_rectangle(rng, (0, l, 0), ex, ez, spec.density),  # wall y = l
    ]
    story = spec.story_height
    level = 1
    while level * story < h - 1e-9:
        z = level * story
        parts.append(_sample_rectangle(rng, (0, 0, z), ex, ey, spec.density))
        level += 1
    if spec.columns is not None:
        grid = spec.columns
        half = grid.side / 2.0
        su = np.array([grid.side, 0.0, 0.0])
        sv = np.array([0.0, grid.side, 0.0])
        for i in range(grid.count_x):
            for j in range(grid.count_y):
                cx = (i + 0.5) * w / grid.count_x
                cy = (j + 0.5) * l / grid.count_y
                parts.append(
                    _sample_rectangle(rng, (cx - half, cy - half, 0), sv, ez, spec.density)
                )
                parts.append(
                    _sample_rectangle(rng, (cx + half, cy - half, 0), sv, ez, spec.density)
                )
                parts.append(
                    _sample_rectangle(rng, (cx - half, cy - half, 0), su, ez, spec.density)
                )
                parts.append(
                    _sample_rectangle(rng, (cx - half, cy + half, 0), su, ez, spec.density)
                )
    return PointCloud(np.vstack(parts))


def _inside_boxes(points: np.ndarray, boxes, spec: BuildingSpec) -> np.ndarray:
    inside = np.zeros(len(points), dtype=bool)
    for box in boxes:
        lo, hi = _clipped_box(box.lo, box.hi, spec)
        inside |= ((points >= lo) & (points <= hi)).all(axis=1)
    return inside


def apply_demolition(
    cloud: PointCloud, script: DemolitionScript, epoch: int
) -> Tuple[PointCloud, np.ndarray, float]:
    """Delete the points inside one epoch's removal boxes.

    Returns (later cloud, truth labels on the input cloud, analytic removed
    solid volume in cubic metres). Labels mark deleted points as CHANGED and
    everything else UNCHANGED. When the script carries a rubble spec, debris
    points are appended to the later cloud and labeled CHANGED there;
    surviving points are labeled UNCHANGED.
    """
    boxes = [box for box in script.boxes if box.epoch == epoch]
    if not boxes:
        raise ValueError(f"demolition script has no removal boxes for epoch {epoch}")
    inside = _inside_boxes(cloud.xyz, boxes, script.building)
    labels = np.where(inside, ChangeLabel.CHANGED, ChangeLabel.UNCHANGED).astype(np.uint8)
    survivors = cloud.xyz[~inside]
    later_labels = np.full(len(survivors), ChangeLabel.UNCHANGED, dtype=np.uint8)
    volume = script.removed_volume(epoch)

    pieces = [survivors]
    label_pieces = [later_labels]
    if script.rubble is not None:
        rng = np.random.default_rng(script.rubble.seed + epoch)
        for box in boxes:
            lo, hi = _clipped_box(box.lo, box.hi, script.building)
            box_volume = float(np.prod(np.maximum(hi - lo, 0.0)))
            count = round(script.rubble.points_per_m3 * box_volume)
            if count == 0:
                continue
            debris = np.column_stack(
                [
                    rng.uniform(lo[0], hi[0], count),
                    rng.uniform(lo[1], hi[1], count),
                    rng.uniform(0.0, script.rubble.height, count),
                ]
            )
            pieces.append(debris)
            label_pieces.append(np.full(count, ChangeLabel.CHANGED, dtype=np.uint8))
    later = PointCloud(np.vstack(pieces), labels=np.concatenate(label_pieces))
    return later, labels, volume


def add_noise(cloud: PointCloud, sigma: float, seed: int = 0) -> PointCloud:
    """Isotropic Gaussian perturbation of every point; sigma = 0 is the
    identity. Deterministic per seed; per-point attributes are kept."""
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        return cloud
    rng = np.random.default_rng(seed)
    return PointCloud(
        cloud.xyz + rng.normal(0.0, sigma, cloud.xyz.shape),
        colors=cloud.colors,
        labels=cloud.labels,
        epochs=cloud.epochs,
        extras=cloud.extras,
    )


def generate_demolition_series(
    spec: BuildingSpec,
    n_epochs: int,
    seed: int = 0,
    noise_sigma: float = 0.0,
    rubble: Optional[RubbleSpec] = None,
    align: Optional[float] = None,
):
    """Progressive demolition: epoch 0 is the intact building, each later
    epoch removes one more full-height block.

    Blocks live in disjoint stripes along x, so analytic volumes stay exact
    under progressive application. `align` snaps box footprints to that
    pitch; a ground grid of the same cell size then tiles each footprint
    exactly, removing the boundary-cell bias of the volume estimate.
    Returns (clouds, truth_labels, script, interval_volumes):
    truth_labels[k] labels epoch k's cloud against epoch k+1, and
    interval_volumes[k] is that step's removed solid volume. Noise, when
    requested, perturbs every epoch cloud after labeling.
    """
    if n_epochs < 2:
        raise ValueError("a demolition series needs at least two epochs")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    n_intervals = n_epochs - 1
    stripe = spec.width / n_intervals

    def snap(value: float) -> float:
        return value if align is None else round(value / align) * align

    boxes = []
    for k in range(1, n_epochs):
        x0 = (k - 1) * stripe
        margin = 0.1 * stripe
        xa = snap(x0 + margin + rng.uniform(0.0, 0.2 * stripe))
        xb = snap(x0 + stripe - margin - rng.uniform(0.0, 0.2 * stripe))
        ya = snap(rng.uniform(0.05, 0.3) * spec.length)
        yb = snap(rng.uniform(0.7, 0.95) * spec.length)
        boxes.append(RemovalBox(epoch=k, lo=(xa, ya, 0.0), hi=(xb, yb, spec.height)))
    script = DemolitionScript(building=spec, boxes=tuple(boxes), rubble=rubble)

    clouds = [generate_building(spec, seed)]
    truth_labels = []
    volumes = []
    for k in range(1, n_epochs):
        later, labels, volume = apply_demolition(clouds[-1], script, epoch=k)
        truth_labels.append(labels)
        volumes.append(volume)
        clouds.append(later)
    if noise_sigma > 0:
        clouds = [add_noise(c, noise_sigma, seed + 1000 + i) for i, c in enumerate(clouds)]
    return clouds, truth_labels, script, volumes


def _default_fixed_calibration() -> SelfCalibration:
    return SelfCalibration(1200.0, 8.0, -6.0, 0.01, -0.002)


def _default_new_calibration() -> SelfCalibration:
    return SelfCalibration(1180.0, 2.0, 3.0, 0.012, -0.001)


@dataclass(frozen=True)
class PoseScenarioConfig:
    """Geometry and noise settings for a two-epoch camera network.

    Cameras sit on an inward-looking ring plus an overhead grid; the two
    epochs interleave around the ring so both see the full target. Every
    camera observes every object point.

    Attributes:
        n_fixed_cameras / n_new_cameras: cameras per epoch.
        n_points: object points, uniform in a box of `point_extent`.
        point_extent: (x, y, z) extent of the point volume, metres; x and y
            are centred on the origin, z starts at 0.
        ring_radius / ring_height: placement of ring cameras, metres.
        overhead_height / overhead_span: placement of grid cameras, metres.
        overhead_fraction: share of each epoch's cameras in the grid.
        fixed_calibration / new_calibration: true interior parameters.
        noise_sigma: Gaussian image noise, pixels.
        outlier_fraction: share of observations turned into gross outliers;
            exactly floor(fraction x count) of them, shifted >= outlier_shift.
        outlier_shift: minimum outlier displacement, pixels.
        initial_center_offset: magnitude of the new cameras' initial center
            error, metres (random direction).
        initial_rotation_deg: magnitude of their initial rotation error.
        initial_point_sigma: Gaussian error of initial object points, metres.
        initial_calibration: starting interior parameters for the new epoch;
            None starts at the truth.
        seed: drives all sampling.
    """

    n_fixed_cameras: int = 20
    n_new_cameras: int = 20
    n_points: int = 500
    point_extent: Tuple[float, float, float] = (10.0, 10.0, 4.0)
    ring_radius: float = 18.0
    ring_height: float = 10.0
    overhead_height: float = 16.0
    overhead_span: float = 10.0
    overhead_fraction: float = 0.25
    fixed_calibration: SelfCalibration = field(default_factory=_default_fixed_calibration)
    new_calibration: SelfCalibration = field(default_factory=_default_new_calibration)
    noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    outlier_shift: float = 50.0
    initial_center_offset: float = 0.5
    initial_rotation_deg: float = 1.0
    initial_point_sigma: float = 0.05
    initial_calibration: Optional[SelfCalibration] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_fixed_cameras < 1 or self.n_new_cameras < 1:
            raise ValueError("both epochs need at least one camera")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if not 0 <= self.outlier_fraction < 1:
            raise ValueError("outlier_fraction must be in [0, 1)")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.outlier_shift <= 0:
            raise ValueError("outlier_shift must be > 0")
        if min(self.point_extent) <= 0:
            raise ValueError("point_extent must be positive")
        if self.ring_radius <= 0 or self.ring_height <= 0 or self.overhead_height <= 0:
            raise ValueError("camera placement distances must be > 0")
        if not 0 <= self.overhead_fraction <= 1:
            raise ValueError("overhead_fraction must be in [0, 1]")


@dataclass
class PoseScenario:
    """A generated adjustment problem with known truth.

    Attributes:
        fixed: reference-epoch cameras at their true (and final) values.
        new_truth: true new-epoch cameras and calibration.
        new_initial: perturbed starting values handed to the solver.
        points_truth / points_initial: object points, true and perturbed.
        observations: measurements including noise and injected outliers.
        outlier_indices: positions in `observations` that were injected as
            gross outliers.
    """

    fixed: EpochCameras
    new_truth: EpochCameras
    new_initial: EpochCameras
    points_truth: Dict[int, ObjectPoint]
    points_initial: Dict[int, ObjectPoint]
    observations: List[ImageObservation]
    outlier_indices: List[int]

    def to_scenario(self):
        """Repackage for the solver's scenario file format (initial values
        as the estimate, truth carried in the auxiliary block)."""
        from .adjustment import Scenario, _epoch_to_dict, _points_to_list

        truth = {
            "new_epoch": _epoch_to_dict(self.new_truth, False),
            "points": _points_to_list(self.points_truth),
            "outlier_observations": list(self.outlier_indices),
        }
        return Scenario(
            fixed_epochs=[self.fixed],
            new_epoch=self.new_initial,
            points=dict(self.points_initial),
            observations=list(self.observations),
            truth=truth,
        )


def _look_at(center: np.ndarray, target: np.ndarray) -> ExteriorOrientation:
    """Camera at `center` with its optical axis through `target`."""
    forward = target - center
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    norm = np.linalg.norm(right)
    if norm < 1e-9:
        raise ValueError("camera looks straight along the vertical; tilt the target")
    right /= norm
    down = np.cross(forward, right)
    return ExteriorOrientation.from_matrix(np.stack([right, down, forward]), center)


def _camera_positions(config: PoseScenarioConfig, n: int, phase: float) -> List[np.ndarray]:
    n_overhead = round(config.overhead_fraction * n)
    n_ring = n - n_overhead
    positions = []
    for k in range(n_ring):
        angle = 2.0 * np.pi * k / max(n_ring, 1) + phase
        positions.append(
            np.array(
                [
                    config.ring_radius * np.cos(angle),
                    config.ring_radius * np.sin(angle),
                    config.ring_height,
                ]
            )
        )
    if n_overhead:
        side = math.ceil(math.sqrt(n_overhead))
        span = config.overhead_span
        for k in range(n_overhead):
            i, j = divmod(k, side)
            x = (i + 0.5) / side * span - span / 2.0 + phase
            y = (j + 0.5) / side * span - span / 2.0 + phase
            positions.append(np.array([x, y, config.overhead_height]))
    return positions


def generate_pose_scenario(config: PoseScenarioConfig) -> PoseScenario:
    """Build a two-epoch camera network with observations and truth.

    Deterministic per config (including its seed). Every camera observes
    every object point; raises ValueError naming the camera when
    `project_points` finds a point at or behind its image plane.
    """
    rng = np.random.default_rng(config.seed)
    ex, ey, ez = config.point_extent
    positions = np.column_stack(
        [
            rng.uniform(-ex / 2.0, ex / 2.0, config.n_points),
            rng.uniform(-ey / 2.0, ey / 2.0, config.n_points),
            rng.uniform(0.0, ez, config.n_points),
        ]
    )
    points_truth = {
        t: ObjectPoint(position=positions[t], track_id=t) for t in range(config.n_points)
    }
    # Slightly off-centre target keeps overhead cameras away from the
    # degenerate straight-down pose.
    target = np.array([0.6, 0.4, ez / 2.0])

    fixed_cams = {
        i: _look_at(pos, target)
        for i, pos in enumerate(_camera_positions(config, config.n_fixed_cameras, 0.0))
    }
    phase = np.pi / max(config.n_fixed_cameras, config.n_new_cameras)
    new_truth_cams = {
        config.n_fixed_cameras + i: _look_at(pos, target)
        for i, pos in enumerate(
            _camera_positions(config, config.n_new_cameras, phase + 0.37)
        )
    }
    fixed = EpochCameras(epoch=0, calibration=config.fixed_calibration, cameras=fixed_cams)
    new_truth = EpochCameras(
        epoch=1, calibration=config.new_calibration, cameras=new_truth_cams
    )

    observations: List[ImageObservation] = []
    for cam_id, eo, sc in [(c, fixed_cams[c], config.fixed_calibration) for c in sorted(fixed_cams)] + [
        (c, new_truth_cams[c], config.new_calibration) for c in sorted(new_truth_cams)
    ]:
        try:
            pixels = project_points(positions, eo, sc)
        except ValueError as exc:
            raise ValueError(
                f"camera {cam_id} cannot see every object point: {exc}"
            ) from exc
        for t in range(config.n_points):
            observations.append(
                ImageObservation(
                    camera_id=cam_id, track_id=t, x=float(pixels[t, 0]), y=float(pixels[t, 1])
                )
            )

    m = len(observations)
    if config.noise_sigma > 0:
        noise = rng.normal(0.0, config.noise_sigma, (m, 2))
        observations = [
            ImageObservation(o.camera_id, o.track_id, o.x + dx, o.y + dy, o.weight)
            for o, (dx, dy) in zip(observations, noise)
        ]
    n_outliers = math.floor(config.outlier_fraction * m)
    outlier_indices = sorted(
        int(i) for i in rng.choice(m, size=n_outliers, replace=False)
    )
    for i in outlier_indices:
        o = observations[i]
        magnitude = rng.uniform(config.outlier_shift, 2.0 * config.outlier_shift)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        observations[i] = ImageObservation(
            o.camera_id,
            o.track_id,
            o.x + magnitude * np.cos(angle),
            o.y + magnitude * np.sin(angle),
            o.weight,
        )

    def unit(vec: np.ndarray) -> np.ndarray:
        return vec / np.linalg.norm(vec)

    new_initial_cams = {}
    for cam_id, eo in new_truth_cams.items():
        delta_rot = np.deg2rad(config.initial_rotation_deg) * unit(rng.normal(size=3))
        delta_cen = config.initial_center_offset * unit(rng.normal(size=3))
        new_initial_cams[cam_id] = eo.perturbed(delta_rot, delta_cen)
    initial_cal = config.initial_calibration or config.new_calibration
    new_initial = EpochCameras(epoch=1, calibration=initial_cal, cameras=new_initial_cams)
    points_initial = {
        t: ObjectPoint(
            position=p.position + rng.normal(0.0, config.initial_point_sigma, 3),
            track_id=t,
        )
        for t, p in points_truth.items()
    }

    return PoseScenario(
        fixed=fixed,
        new_truth=new_truth,
        new_initial=new_initial,
        points_truth=points_truth,
        points_initial=points_initial,
        observations=observations,
        outlier_indices=outlier_indices,
    )
