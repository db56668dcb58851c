"""End-to-end acceptance checks, one test per guarantee.

Each test states its numeric tolerance and wall-clock budget in its
docstring and enforces both.  Oracles are independent of the code under
test: closed-form confusion arithmetic, brute-force neighbor search,
analytic volumes from scripted demolitions, finite-difference
derivatives, and exact floating-point identities.
"""
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.spatial.transform import Rotation

from cloudchange.adjustment import AdjustmentOptions, refine_progressive
from cloudchange.cameras import SelfCalibration, projection_jacobians
from cloudchange.cli import main
from cloudchange.cloud_io import load_cloud
from cloudchange.detection import DEFAULT_THRESHOLD, ChangeParams, hierarchical_detect
from cloudchange.evaluation import ConfusionCounts, change_metrics, confusion_counts
from cloudchange.geometry import ChangeLabel, PointCloud, bounding_cube
from cloudchange.neighbors import knn, radius_neighbors
from cloudchange.octree import cell_bounds, morton_codes
from cloudchange.registration import IcpParams, icp_align
from cloudchange.synth import (
    BuildingSpec,
    DemolitionScript,
    PoseScenarioConfig,
    RemovalBox,
    apply_demolition,
    generate_building,
    generate_demolition_series,
    generate_pose_scenario,
)
from cloudchange.volumetrics import build_ground_grid, change_volume

from scenes import hollow_box

RECOVERY_PARAMS = IcpParams(
    max_iterations=200,
    convergence_threshold=1e-14,
    rejection_distance=1e3,
    trim_fraction=0.0,
)


def _rotation_error(recovered, applied):
    """Angle of recovered @ applied, radians; zero for a perfect inverse."""
    combined = recovered @ applied
    return float(np.arccos(np.clip((np.trace(combined) - 1) / 2, -1.0, 1.0)))


def _rotation_gap(a, b):
    """Angle between two orientations given as rotation matrices, radians."""
    return float(np.linalg.norm(Rotation.from_matrix(a.T @ b).as_rotvec()))


def _max_rel(analytic, fd):
    """Largest entry-wise relative deviation, floored at unit scale."""
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)
    return float((np.abs(analytic - fd) / scale).max())


def _snap(value):
    """Round to the 0.5 m lattice shared by removal boxes and grid cells."""
    return round(value / 0.5) * 0.5


def test_criterion_01_metric_identities():
    """Confusion counts constructed to realize precision 0.9299 / recall
    0.9153 must yield F1 0.9225 and IoU 0.8563, and precision 0.9999 /
    recall 0.6440 must yield F1 0.7834 and IoU 0.6440, all within 1e-3.
    Budget: milliseconds (asserted under 0.25 s)."""
    start = time.perf_counter()
    roof = change_metrics(
        ConfusionCounts(tp=9299 * 9153, fp=701 * 9153, fn=847 * 9299, tn=0)
    )
    assert roof.precision == pytest.approx(0.9299, abs=1e-12)
    assert roof.recall == pytest.approx(0.9153, abs=1e-12)
    assert roof.f1 == pytest.approx(0.9225, abs=1e-3)
    assert roof.iou == pytest.approx(0.8563, abs=1e-3)
    facade = change_metrics(
        ConfusionCounts(tp=9999 * 6440, fp=1 * 6440, fn=3560 * 9999, tn=0)
    )
    assert facade.precision == pytest.approx(0.9999, abs=1e-12)
    assert facade.recall == pytest.approx(0.6440, abs=1e-12)
    assert facade.f1 == pytest.approx(0.7834, abs=1e-3)
    assert facade.iou == pytest.approx(0.6440, abs=1e-3)
    assert time.perf_counter() - start < 0.25


def test_criterion_02_octree_laws():
    """Partition laws on 100 randomized clouds (up to 1e5 points, depths up
    to 11): every point receives exactly the cell whose half-open bounds
    contain it (closed at the top face), codes nest across depths by bit
    truncation, and cell volume times 8**depth equals the root volume
    bit-exactly.  Budget: 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    for trial in range(100):
        n = 100_000 if trial == 0 else int(10 ** rng.uniform(2.0, 5.0))
        depth = 11 if trial == 0 else int(rng.integers(1, 12))
        scale = 10 ** rng.uniform(-1.0, 3.0)
        pts = rng.uniform(-0.5, 0.5, (n, 3)) * scale + rng.normal(0.0, 10.0, 3)
        cube = bounding_cube(PointCloud(pts))
        codes = morton_codes(pts, cube, depth)

        assert codes.shape == (n,)
        assert codes.min() >= 0 and codes.max() < 8**depth

        # Membership uniqueness: the assigned cell is the floor-index cell
        # of each point, clipped so the top faces close the partition.
        corners, edge = cell_bounds(cube, codes, depth)
        expected = np.floor((pts - cube.min_corner) / edge)
        np.clip(expected, 0, 2**depth - 1, out=expected)
        actual = np.rint((corners - cube.min_corner) / edge)
        np.testing.assert_array_equal(actual, expected)
        assert np.all(corners <= pts + 1e-9 * edge)
        assert np.all(pts <= corners + edge * (1 + 1e-9))

        # Nesting: truncating three bits per level gives the coarser code.
        coarser = int(rng.integers(1, depth + 1))
        np.testing.assert_array_equal(
            morton_codes(pts, cube, coarser), codes >> (3 * (depth - coarser))
        )

        # Volume law, exact in floating point: cells scale by powers of two.
        assert edge**3 * 8.0**depth == cube.edge**3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_03_neighbor_queries_match_brute_force():
    """knn and radius_neighbors agree with a brute-force distance matrix on
    1,000 queries over 1e4-point clouds: identical indices (ties broken by
    lower index, ascending distance) and inclusive radius membership.
    Budget: 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    for round_id in range(2):
        if round_id == 0:
            pts = rng.normal(0.0, 1.0, (10_000, 3))
        else:
            pts = rng.uniform(-20.0, 20.0, (10_000, 3))
        pts[9_900:] = pts[:100]  # exact duplicates exercise tie-breaking
        queries = np.vstack([rng.normal(0.0, 1.0, (300, 3)), pts[rng.integers(0, 10_000, 200)]])
        # One crafted pair sits at exactly the query radius.
        queries[0] = np.array([0.5, -1.25, 2.0])
        pts[500] = queries[0] + np.array([0.25, 0.0, 0.0])
        cloud = PointCloud(pts)

        dist_matrix = cdist(queries, pts)
        order = np.lexsort((np.tile(np.arange(10_000), (len(queries), 1)), dist_matrix), axis=1)

        for k in (1, 8, 25):
            idx, dist = knn(cloud, queries, k)
            np.testing.assert_array_equal(idx, order[:, :k])
            np.testing.assert_allclose(
                dist, np.take_along_axis(dist_matrix, order[:, :k], axis=1), rtol=1e-12
            )
        for radius in (0.25, 1.0):
            idx_lists, _ = radius_neighbors(cloud, queries, radius)
            for row, found in enumerate(idx_lists):
                expected = np.flatnonzero(dist_matrix[row] <= radius)
                np.testing.assert_array_equal(found, expected)
        assert 500 in radius_neighbors(cloud, queries[0], 0.25)[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_04_icp_recovery():
    """Randomized rigid transforms (up to 30 degrees rotation, up to 5 m
    translation) of a synthetic building shell are recovered to 1e-6 m and
    1e-6 rad at zero noise (14 trials); at 2 cm Gaussian noise the residual
    RMS matches sigma within 10% (6 trials).  20 trials total.
    Budget: 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    pts = hollow_box(rng, w=10.0, l=8.0, h=5.0, density=30.0)
    target = PointCloud(pts)

    for _ in range(14):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(np.deg2rad(5.0), np.deg2rad(30.0))
        rot = Rotation.from_rotvec(axis * angle).as_matrix()
        t = rng.normal(size=3)
        t *= rng.uniform(0.5, 5.0) / np.linalg.norm(t)
        result = icp_align(PointCloud(pts @ rot.T + t), target, RECOVERY_PARAMS)
        assert result.converged
        assert _rotation_error(result.transform.rotation, rot) <= 1e-6
        assert np.linalg.norm(result.transform.rotation @ t + result.transform.translation) <= 1e-6

    sigma = 0.02
    for _ in range(6):
        rot = Rotation.from_euler("y", rng.uniform(2.0, 8.0), degrees=True).as_matrix()
        t = rng.uniform(-0.5, 0.5, 3)
        noisy = PointCloud(pts @ rot.T + t + rng.normal(0.0, sigma, pts.shape))
        result = icp_align(noisy, target, RECOVERY_PARAMS)
        assert abs(result.rms - sigma) / sigma < 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_05_pose_refinement():
    """Zero-noise network of 20 anchored plus 20 free cameras over 500
    points: free centers recovered to 1e-6 m and rotations to 1e-8 rad,
    anchored parameters echoed bit-identically; analytic projection
    Jacobians match central differences to 1e-6 relative; at 0.5 px noise
    the final RMS lies within 15% of 0.5 px and every 50 px injected
    outlier is rejected.  Budget: 60 s."""
    start = time.perf_counter()
    scenario = generate_pose_scenario(PoseScenarioConfig())
    result = refine_progressive(
        scenario.fixed,
        scenario.new_initial,
        scenario.points_initial,
        scenario.observations,
        None,
    )
    assert result.converged
    for cam_id, truth in scenario.new_truth.cameras.items():
        estimate = result.new_cameras.cameras[cam_id]
        assert np.linalg.norm(estimate.center - truth.center) <= 1e-6
        assert _rotation_gap(truth.matrix, estimate.matrix) <= 1e-8
    echoed = result.fixed_cameras[0]
    for cam_id, cam in scenario.fixed.cameras.items():
        assert np.array_equal(echoed.cameras[cam_id].center, cam.center)
        assert np.array_equal(echoed.cameras[cam_id].rotation, cam.rotation)
    assert echoed.calibration == scenario.fixed.calibration

    # Analytic Jacobians against central differences at unit-floored scale.
    h = 1e-6
    pts = scenario.points_truth["position"][:20]
    worst = 0.0
    for cam_id in list(scenario.new_truth.cameras)[:5]:
        eo = scenario.new_truth.cameras[cam_id]
        sc = scenario.new_truth.calibration
        _, d_point, d_pose, d_cal = projection_jacobians(pts, eo, sc)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            hi, *_ = projection_jacobians(pts + step, eo, sc)
            lo, *_ = projection_jacobians(pts - step, eo, sc)
            worst = max(worst, _max_rel(d_point[:, :, axis], (hi - lo) / (2 * h)))
            hi, *_ = projection_jacobians(pts, eo.perturbed(step, np.zeros(3)), sc)
            lo, *_ = projection_jacobians(pts, eo.perturbed(-step, np.zeros(3)), sc)
            worst = max(worst, _max_rel(d_pose[:, :, axis], (hi - lo) / (2 * h)))
            hi, *_ = projection_jacobians(pts, eo.perturbed(np.zeros(3), step), sc)
            lo, *_ = projection_jacobians(pts, eo.perturbed(np.zeros(3), -step), sc)
            worst = max(worst, _max_rel(d_pose[:, :, 3 + axis], (hi - lo) / (2 * h)))
        cal = sc.as_array()
        for col in range(5):
            step = np.zeros(5)
            step[col] = h
            hi, *_ = projection_jacobians(pts, eo, SelfCalibration.from_array(cal + step))
            lo, *_ = projection_jacobians(pts, eo, SelfCalibration.from_array(cal - step))
            worst = max(worst, _max_rel(d_cal[:, :, col], (hi - lo) / (2 * h)))
    assert worst <= 1e-6, f"worst Jacobian deviation {worst:.2e}"

    noisy = generate_pose_scenario(
        PoseScenarioConfig(noise_sigma=0.5, outlier_fraction=0.01)
    )
    result = refine_progressive(
        noisy.fixed, noisy.new_initial, noisy.points_initial, noisy.observations, None
    )
    assert result.converged
    assert abs(result.rms - 0.5) <= 0.15 * 0.5
    assert set(noisy.outlier_indices) <= set(result.rejected_observations)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_06_exclusion_matches_prior_weight():
    """On a three-camera network (two anchored, one free), excluding the
    anchored parameters from the solve matches pinning them with a 1e12
    prior weight to 1e-4 relative in every free parameter.  Budget: 5 s."""
    start = time.perf_counter()
    scenario = generate_pose_scenario(
        PoseScenarioConfig(
            n_fixed_cameras=2, n_new_cameras=1, n_points=20, noise_sigma=0.1, seed=3
        )
    )

    def solve(handling):
        return refine_progressive(
            scenario.fixed,
            scenario.new_initial,
            scenario.points_initial,
            scenario.observations,
            AdjustmentOptions(fixed_handling=handling),
        )

    excluded = solve("exclude")
    weighted = solve("prior_weight")
    assert excluded.converged and weighted.converged
    for cam_id in scenario.new_truth.cameras:
        a = excluded.new_cameras.cameras[cam_id]
        b = weighted.new_cameras.cameras[cam_id]
        np.testing.assert_allclose(a.center, b.center, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(a.rotation, b.rotation, rtol=1e-4, atol=1e-8)
    np.testing.assert_allclose(
        excluded.new_cameras.calibration.as_array(),
        weighted.new_cameras.calibration.as_array(),
        rtol=1e-4,
        atol=1e-7,
    )
    assert excluded.points["track"].tolist() == weighted.points["track"].tolist()
    np.testing.assert_allclose(
        excluded.points["position"], weighted.points["position"], rtol=1e-4, atol=1e-7
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f} s"


def test_criterion_07_detection_quality_and_self_comparison():
    """Default detection parameters on a 5 x 5 x 3 m removal from a dense
    synthetic building reach precision >= 0.9 and recall >= 0.9 against
    constructed truth, and comparing any cloud with itself yields an empty
    change set (20 randomized clouds).  Budget: 60 s."""
    start = time.perf_counter()
    spec = BuildingSpec(width=20.0, length=20.0, height=10.0, density=400.0)
    earlier = generate_building(spec, seed=70)
    script = DemolitionScript(
        building=spec, boxes=(RemovalBox(1, (4.0, 6.0, 7.0), (9.0, 11.0, 10.0)),)
    )
    later, truth, _ = apply_demolition(earlier, script, 1)
    changes = hierarchical_detect(earlier, later)
    predicted = np.full(len(earlier), int(ChangeLabel.UNCHANGED))
    predicted[changes.changed_reference] = int(ChangeLabel.CHANGED)
    metrics = change_metrics(confusion_counts(predicted, truth))
    assert metrics.precision >= 0.9
    assert metrics.recall >= 0.9

    rng = np.random.default_rng(71)
    for trial in range(20):
        if trial < 3:
            cloud = generate_building(
                BuildingSpec(width=8.0, length=6.0, height=4.0, density=50.0),
                seed=trial,
            )
        else:
            n = int(rng.integers(2_000, 20_000))
            extent = rng.uniform(5.0, 50.0, 3)
            cloud = PointCloud(rng.uniform(0.0, 1.0, (n, 3)) * extent)
        result = hierarchical_detect(cloud, cloud)
        assert result.n_voxels == 0
        assert len(result.changed_reference) == 0
        assert len(result.changed_other) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_08_volume_oracle():
    """Ten randomized demolition scripts removing solid boxes of 10-100 m3
    at 400 points/m2 estimate volume within 5% of the analytic truth;
    volume is additive across disjoint removals and invariant under rigid
    translation of both clouds, both exactly.  Budget: 120 s."""
    start = time.perf_counter()

    def removal_scene(seed):
        rng = np.random.default_rng(100 + seed)
        side = _snap(rng.uniform(8.0, 14.0))
        while True:
            fx = _snap(rng.uniform(1.5, 4.5))
            fy = _snap(rng.uniform(1.5, 4.5))
            height = _snap(rng.uniform(4.0, min(8.0, side - 0.5)))
            if 10.0 <= fx * fy * height <= 100.0:
                break
        x0 = _snap(rng.uniform(0.5, side - fx - 0.5))
        y0 = _snap(rng.uniform(0.5, side - fy - 0.5))
        spec = BuildingSpec(width=side, length=side, height=height, density=400.0)
        box = RemovalBox(1, (x0, y0, 0.0), (x0 + fx, y0 + fy, height))
        return spec, box, fx * fy * height

    def estimate(earlier, later):
        changes = hierarchical_detect(earlier, later)
        return change_volume(build_ground_grid(changes, earlier, later, cell_size=0.5))

    for seed in range(10):
        spec, box, truth = removal_scene(seed)
        earlier = generate_building(spec, seed=seed)
        script = DemolitionScript(building=spec, boxes=(box,))
        later, _, analytic = apply_demolition(earlier, script, 1)
        assert analytic == pytest.approx(truth, rel=1e-12)
        assert abs(estimate(earlier, later) - truth) <= 0.05 * truth

    # Additivity: two disjoint removals measure exactly the sum of each
    # alone.  Heights are dyadic, so the per-cell products sum exactly.
    spec = BuildingSpec(width=12.0, length=12.0, height=6.0, density=400.0)
    earlier = generate_building(spec, seed=200)
    box_a = RemovalBox(1, (1.0, 1.0, 0.0), (3.5, 5.0, 6.0))
    box_b = RemovalBox(1, (7.0, 6.5, 0.0), (9.5, 10.5, 6.0))
    volumes = {}
    for name, boxes in (("a", (box_a,)), ("b", (box_b,)), ("ab", (box_a, box_b))):
        later, _, _ = apply_demolition(
            earlier, DemolitionScript(building=spec, boxes=boxes), 1
        )
        volumes[name] = estimate(earlier, later)
    assert volumes["ab"] == volumes["a"] + volumes["b"]

    # Translation invariance: shifting both clouds rigidly moves the grid
    # with the data, so the volume is reproduced exactly.
    spec, box, _ = removal_scene(0)
    earlier = generate_building(spec, seed=0)
    later, _, _ = apply_demolition(earlier, DemolitionScript(building=spec, boxes=(box,)), 1)
    offset = np.array([137.25, -41.5, 12.0])
    moved = estimate(PointCloud(earlier.xyz + offset), PointCloud(later.xyz + offset))
    assert moved == estimate(earlier, later)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_criterion_09_pipeline_determinism_and_scale(tmp_path):
    """A full pipeline run over a three-epoch series with at least one
    million points per epoch completes within 60 s, and a rerun with the
    same seed reproduces every data artifact byte for byte (the manifest
    is excluded: it records wall-clock timings).  Budget: 60 s for the
    timed run."""
    scene = tmp_path / "scene"
    assert (
        main(
            [
                "synth",
                "--output",
                str(scene),
                "--epochs",
                "3",
                "--width",
                "24",
                "--length",
                "24",
                "--height",
                "10",
                "--density",
                "400",
                "--seed",
                "11",
            ]
        )
        == 0
    )
    for epoch in range(3):
        assert len(load_cloud(scene / f"epoch_{epoch}.ply")) >= 1_000_000

    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["run", "--config", str(scene / "config.yaml"), "--output", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"

    compared = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert len(compared) >= 7
    first = {name: (out / name).read_bytes() for name in compared}
    assert main(["run", "--config", str(scene / "config.yaml"), "--output", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir() if p.name != "manifest.json") == compared
    for name in compared:
        assert (out / name).read_bytes() == first[name], name


def test_criterion_10_threshold_monotonicity():
    """Raising any single per-depth change threshold (or all of them) never
    enlarges the changed-voxel set: swept at factors 1, 3, and 10 on five
    synthetic demolition scenes, each scene exercising a different depth.
    Budget: 60 s."""
    start = time.perf_counter()
    spec = BuildingSpec(width=10.0, length=10.0, height=5.0, density=300.0)
    n_depths = ChangeParams().max_depth - ChangeParams().start_depth + 1
    for scene in range(5):
        clouds, _, _, _ = generate_demolition_series(spec, 2, seed=scene)
        earlier, later = clouds

        def changed_codes(thresholds):
            params = ChangeParams(thresholds=tuple(thresholds))
            return set(hierarchical_detect(earlier, later, params).voxel_codes.tolist())

        swept_depth = scene % n_depths
        sweep = {}
        for factor in (1.0, 3.0, 10.0):
            thresholds = [DEFAULT_THRESHOLD] * n_depths
            thresholds[swept_depth] = DEFAULT_THRESHOLD * factor
            sweep[factor] = changed_codes(thresholds)
        assert sweep[1.0], "sweep is vacuous without detected change"
        assert sweep[10.0] <= sweep[3.0] <= sweep[1.0]
        assert changed_codes([DEFAULT_THRESHOLD * 3.0] * n_depths) <= sweep[1.0]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
