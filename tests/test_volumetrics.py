"""Tests for ground-grid volume estimates and volume timelines."""
from datetime import date

import numpy as np
import pytest

from cloudchange.detection import hierarchical_detect
from cloudchange.geometry import PointCloud
from cloudchange.synth import (
    BuildingSpec,
    DemolitionScript,
    RemovalBox,
    RubbleSpec,
    apply_demolition,
    generate_building,
)
from cloudchange.volumetrics import (
    GroundGrid,
    build_ground_grid,
    change_volume,
    timeline_report,
)
from detection_reference import contains

CELL = 0.5


def demolish(spec, boxes, seed=7, rubble=None):
    """Intact cloud, post-removal cloud, and the analytic removed volume."""
    earlier = generate_building(spec, seed=seed)
    script = DemolitionScript(building=spec, boxes=boxes, rubble=rubble)
    later, _, volume = apply_demolition(earlier, script, epoch=1)
    return earlier, later, volume


class TestGroundGridArithmetic:
    def _grid(self, cell_size=2.0, heights=(3.0,), cells=None, fallback=None):
        n = len(heights)
        return GroundGrid(
            cell_size=cell_size,
            origin=np.zeros(2),
            cells=np.array(cells if cells is not None else [[i, 0] for i in range(n)]),
            heights=np.array(heights),
            fallback=np.array(fallback if fallback is not None else [False] * n),
        )

    def test_single_cell_volume(self):
        assert change_volume(self._grid(cell_size=2.0, heights=(3.0,))) == pytest.approx(12.0)

    def test_cells_sum(self):
        grid = self._grid(cell_size=0.5, heights=(1.0, 2.0, 4.0))
        assert change_volume(grid) == pytest.approx(0.25 * 7.0)

    def test_empty_grid_is_zero(self):
        grid = self._grid(heights=())
        assert grid.n_cells == 0
        assert change_volume(grid) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="cell size"):
            self._grid(cell_size=0.0)
        for cell_size in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="cell size must be finite"):
                self._grid(cell_size=cell_size)
        with pytest.raises(ValueError, match=">= 0"):
            self._grid(heights=(-1.0,))
        with pytest.raises(ValueError, match="align"):
            GroundGrid(1.0, np.zeros(2), np.zeros((2, 2)), np.zeros(1), np.zeros(1, bool))


class TestBuildGroundGrid:
    def test_full_height_removal_matches_analytic_volume(self):
        spec = BuildingSpec(width=10, length=10, height=6, density=400.0)
        box = RemovalBox(1, (2.0, 2.0, 0.0), (6.0, 8.0, 6.0))  # edges on the 0.5 m grid
        earlier, later, truth = demolish(spec, (box,))
        changes = hierarchical_detect(earlier, later)
        grid = build_ground_grid(changes, earlier, later, cell_size=CELL)
        assert change_volume(grid) == pytest.approx(truth, rel=1e-3)

    def test_rubble_fills_cells_in_both_epochs(self):
        spec = BuildingSpec(width=10, length=10, height=6, density=400.0)
        box = RemovalBox(1, (2.0, 2.0, 0.0), (6.0, 8.0, 6.0))
        rubble = RubbleSpec(points_per_m3=30.0, height=0.4, seed=1)
        earlier, later, truth = demolish(spec, (box,), rubble=rubble)
        changes = hierarchical_detect(earlier, later)
        grid = build_ground_grid(changes, earlier, later, cell_size=CELL)
        footprint = 4.0 * 6.0
        volume = change_volume(grid)
        assert truth - footprint * 0.4 <= volume < truth
        # Debris puts later-epoch points into the removed region, so the
        # footprint cells measure a genuine top-surface difference.
        assert np.sum(~grid.fallback) >= 0.8 * grid.n_cells

    def test_identical_epochs_give_empty_grid(self):
        cloud = generate_building(BuildingSpec(width=8, length=8, height=4, density=200.0))
        changes = hierarchical_detect(cloud, cloud)
        grid = build_ground_grid(changes, cloud, cloud, cell_size=CELL)
        assert grid.n_cells == 0
        assert change_volume(grid) == 0.0

    def test_volumes_add_over_disjoint_removals(self):
        spec = BuildingSpec(width=10, length=10, height=6, density=400.0)
        box_a = RemovalBox(1, (1.0, 1.0, 0.0), (3.5, 9.0, 6.0))
        box_b = RemovalBox(1, (6.0, 2.0, 0.0), (8.5, 8.0, 6.0))
        volumes = {}
        for name, boxes in (("a", (box_a,)), ("b", (box_b,)), ("ab", (box_a, box_b))):
            earlier, later, _ = demolish(spec, boxes)
            changes = hierarchical_detect(earlier, later)
            volumes[name] = change_volume(
                build_ground_grid(changes, earlier, later, cell_size=CELL)
            )
        assert volumes["ab"] == pytest.approx(volumes["a"] + volumes["b"], rel=1e-12)
        assert volumes["a"] == pytest.approx(2.5 * 8.0 * 6.0, rel=1e-3)
        assert volumes["b"] == pytest.approx(2.5 * 6.0 * 6.0, rel=1e-3)

    def test_translation_invariance(self):
        spec = BuildingSpec(width=10, length=10, height=6, density=400.0)
        box = RemovalBox(1, (2.0, 2.0, 0.0), (6.0, 8.0, 6.0))
        earlier, later, _ = demolish(spec, (box,))
        offset = np.array([137.25, -41.5, 12.0])
        moved_earlier = PointCloud(earlier.xyz + offset)
        moved_later = PointCloud(later.xyz + offset)
        base = change_volume(
            build_ground_grid(
                hierarchical_detect(earlier, later), earlier, later, cell_size=CELL
            )
        )
        moved = change_volume(
            build_ground_grid(
                hierarchical_detect(moved_earlier, moved_later),
                moved_earlier,
                moved_later,
                cell_size=CELL,
            )
        )
        assert moved == base

    def test_unaligned_box_errs_within_boundary_band(self):
        # Cells straddling the cut are billed at full height (or, rarely, at
        # zero), so the error is bounded by one band of boundary cells and
        # shrinks with the cell size.
        spec = BuildingSpec(width=10, length=10, height=6, density=400.0)
        box = RemovalBox(1, (2.13, 2.21, 0.0), (6.37, 7.93, 6.0))
        earlier, later, truth = demolish(spec, (box,))
        changes = hierarchical_detect(earlier, later)
        perimeter = 2 * ((6.37 - 2.13) + (7.93 - 2.21))
        errors = {}
        for cell in (1.0, 0.25):
            volume = change_volume(build_ground_grid(changes, earlier, later, cell_size=cell))
            errors[cell] = abs(volume - truth)
            assert errors[cell] <= perimeter * cell * 6.0
        assert errors[0.25] < errors[1.0]

    def test_default_cell_size_is_the_voxel_edge(self):
        spec = BuildingSpec(width=10, length=10, height=6, density=200.0)
        box = RemovalBox(1, (2.0, 2.0, 0.0), (6.0, 8.0, 6.0))
        earlier, later, _ = demolish(spec, (box,))
        changes = hierarchical_detect(earlier, later)
        grid = build_ground_grid(changes, earlier, later)
        assert grid.cell_size == changes.voxel_edge
        with pytest.raises(ValueError, match="cell size"):
            build_ground_grid(changes, earlier, later, cell_size=0.0)
        for cell_size in (np.nan, np.inf):
            with pytest.raises(ValueError, match="cell size must be finite"):
                build_ground_grid(changes, earlier, later, cell_size=cell_size)


def contains_ground_grid(changes, earlier, later, cell_size):
    """Reference grid: members re-found with `contains`, reduced per cell
    with a dict and a loop over cells."""
    stride = 1 << 32

    def top_bottom(pts, origin):
        idx = np.floor((pts[:, :2] - origin) / cell_size).astype(np.int64)
        cells = {}
        for key, z in zip((idx[:, 0] * stride + idx[:, 1]).tolist(), pts[:, 2]):
            top, bottom = cells.get(key, (-np.inf, np.inf))
            cells[key] = (max(top, z), min(bottom, z))
        return cells

    in_e = earlier.xyz[contains(changes, earlier.xyz)]
    in_l = later.xyz[contains(changes, later.xyz)]
    if len(in_e) == 0 and len(in_l) == 0:
        return np.zeros(2), np.zeros((0, 2), dtype=np.int64), np.zeros(0), np.zeros(0, dtype=bool)
    corner = changes.cube.min_corner[:2]
    low = np.vstack([in_e[:, :2], in_l[:, :2]]).min(axis=0)
    origin = corner + np.floor((low - corner) / cell_size) * cell_size
    cells_e, cells_l = top_bottom(in_e, origin), top_bottom(in_l, origin)
    keys = sorted(set(cells_e) | set(cells_l))
    heights, fallback = [], []
    for key in keys:
        if key in cells_e and key in cells_l:
            heights.append(abs(cells_e[key][0] - cells_l[key][0]))
        else:
            top, bottom = cells_e[key] if key in cells_e else cells_l[key]
            heights.append(top - bottom)
        fallback.append(not (key in cells_e and key in cells_l))
    cells = np.array([[k // stride, k % stride] for k in keys], dtype=np.int64).reshape(-1, 2)
    return origin, cells, np.array(heights, dtype=np.float64), np.array(fallback, dtype=bool)


GRID_SCENES = {
    # boxes, rubble, cell size
    "full-height": ((RemovalBox(1, (2.0, 2.0, 0.0), (6.0, 8.0, 6.0)),), None, CELL),
    "rubble": (
        (RemovalBox(1, (2.0, 2.0, 0.0), (6.0, 8.0, 6.0)),),
        RubbleSpec(points_per_m3=30.0, height=0.4, seed=1),
        CELL,
    ),
    "disjoint": (
        (
            RemovalBox(1, (1.0, 1.0, 0.0), (3.5, 9.0, 6.0)),
            RemovalBox(1, (6.0, 2.0, 0.0), (8.5, 8.0, 6.0)),
        ),
        None,
        CELL,
    ),
    "unaligned-coarse": ((RemovalBox(1, (2.13, 2.21, 0.0), (6.37, 7.93, 6.0)),), None, 1.0),
    "unaligned-fine": ((RemovalBox(1, (2.13, 2.21, 0.0), (6.37, 7.93, 6.0)),), None, 0.25),
    "voxel-edge": ((RemovalBox(1, (2.0, 2.0, 0.0), (6.0, 8.0, 6.0)),), None, None),
}


class TestGroundGridMembers:
    """build_ground_grid reads the ChangeSet's members; the grid must equal
    the one built from points re-found with `contains`, bit for bit."""

    @pytest.mark.parametrize("scene", sorted(GRID_SCENES))
    def test_matches_contains_reference(self, scene):
        boxes, rubble, cell = GRID_SCENES[scene]
        spec = BuildingSpec(width=10, length=10, height=6, density=400.0)
        earlier, later, _ = demolish(spec, boxes, rubble=rubble)
        changes = hierarchical_detect(earlier, later)
        grid = build_ground_grid(changes, earlier, later, cell_size=cell)
        expected = contains_ground_grid(changes, earlier, later, grid.cell_size)
        assert grid.n_cells > 0
        for got, want in zip((grid.origin, grid.cells, grid.heights, grid.fallback), expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_identical_epochs_match_reference(self):
        cloud = generate_building(BuildingSpec(width=8, length=8, height=4, density=200.0))
        changes = hierarchical_detect(cloud, cloud)
        grid = build_ground_grid(changes, cloud, cloud, cell_size=CELL)
        expected = contains_ground_grid(changes, cloud, cloud, CELL)
        for got, want in zip((grid.origin, grid.cells, grid.heights, grid.fallback), expected):
            assert got.tobytes() == want.tobytes()

    def test_clouds_other_than_the_detected_ones_rejected(self):
        spec = BuildingSpec(width=10, length=10, height=6, density=100.0)
        box = RemovalBox(1, (2.0, 2.0, 0.0), (6.0, 8.0, 6.0))
        earlier, later, _ = demolish(spec, (box,))
        changes = hierarchical_detect(earlier, later)
        with pytest.raises(ValueError, match="do not match"):
            build_ground_grid(changes, earlier, PointCloud(later.xyz[:-1]), cell_size=CELL)
        with pytest.raises(ValueError, match="do not match"):
            build_ground_grid(changes, PointCloud(earlier.xyz[1:]), later, cell_size=CELL)
        with pytest.raises(ValueError, match="do not match"):
            build_ground_grid(changes, later, earlier, cell_size=CELL)


class TestTimeline:
    def test_running_totals_and_rates(self):
        report = timeline_report([0.0, 2.0, 5.0], [10.0, 30.0])
        assert report.interval_volumes == (10.0, 30.0)
        assert report.cumulative_volumes == (10.0, 40.0)
        assert report.daily_rates == (5.0, 10.0)
        assert report.to_dict()["total_volume_m3"] == 40.0

    def test_date_timestamps(self):
        report = timeline_report([date(2026, 1, 1), date(2026, 1, 11)], [25.0])
        assert report.daily_rates == (2.5,)

    def test_accepts_grids_and_plain_volumes(self):
        grid = GroundGrid(
            cell_size=1.0,
            origin=np.zeros(2),
            cells=np.array([[0, 0]]),
            heights=np.array([7.0]),
            fallback=np.array([False]),
        )
        report = timeline_report([0.0, 1.0, 2.0], [change_volume(grid), 3.0])
        assert report.interval_volumes == (7.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="two epochs"):
            timeline_report([0.0], [])
        with pytest.raises(ValueError, match="expected 2 volumes"):
            timeline_report([0.0, 1.0, 2.0], [5.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            timeline_report([0.0, 0.0], [5.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            timeline_report([3.0, 1.0], [5.0])
