"""Tests for the synthetic scene generators."""
import math

import numpy as np
import pytest

from cloudchange.geometry import ChangeLabel, PointCloud
from cloudchange.synth import (
    BuildingSpec,
    ColumnGrid,
    DemolitionScript,
    PoseScenarioConfig,
    RemovalBox,
    RubbleSpec,
    add_noise,
    apply_demolition,
    generate_building,
    generate_demolition_series,
    generate_pose_scenario,
)
import synth_reference as ref
from projection_reference import compute_residuals


class TestBuilding:
    def test_count_tracks_density_times_area(self):
        spec = BuildingSpec(width=10, length=10, height=3, story_height=3.0, density=400.0)
        cloud = generate_building(spec, seed=1)
        area = 2 * 10 * 10 + 4 * 10 * 3  # ground + roof + four walls
        assert abs(len(cloud) - 400.0 * area) <= 0.01 * 400.0 * area

    def test_stories_and_columns_add_surface(self):
        grid = ColumnGrid(count_x=2, count_y=2, side=0.4)
        spec = BuildingSpec(
            width=20, length=20, height=10, story_height=3.0, density=100.0, columns=grid
        )
        cloud = generate_building(spec, seed=2)
        slabs = 3 * 20 * 20  # interior floors at z = 3, 6, 9
        columns = 4 * 4 * 0.4 * 10  # four columns, four faces each
        area = 2 * 20 * 20 + 4 * 20 * 10 + slabs + columns
        assert abs(len(cloud) - 100.0 * area) <= 0.01 * 100.0 * area

    def test_density_scales_count(self):
        spec_lo = BuildingSpec(width=8, length=6, height=4, density=100.0)
        spec_hi = BuildingSpec(width=8, length=6, height=4, density=400.0)
        n_lo = len(generate_building(spec_lo, seed=3))
        n_hi = len(generate_building(spec_hi, seed=3))
        assert n_hi == pytest.approx(4 * n_lo, rel=0.02)

    def test_points_stay_inside_envelope(self):
        spec = BuildingSpec(width=7, length=5, height=4, density=150.0)
        cloud = generate_building(spec, seed=4)
        assert cloud.xyz.min() >= 0.0
        assert (cloud.xyz.max(axis=0) <= [7.0, 5.0, 4.0]).all()

    def test_deterministic_per_seed(self):
        spec = BuildingSpec(width=5, length=5, height=3, density=200.0)
        a = generate_building(spec, seed=9)
        b = generate_building(spec, seed=9)
        c = generate_building(spec, seed=10)
        np.testing.assert_array_equal(a.xyz, b.xyz)
        assert not np.array_equal(a.xyz, c.xyz)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="width"):
            BuildingSpec(width=0, length=5, height=3)
        with pytest.raises(ValueError, match="density"):
            BuildingSpec(width=5, length=5, height=3, density=-1)
        with pytest.raises(ValueError, match="side"):
            ColumnGrid(count_x=1, count_y=1, side=0.0)

    def test_from_dict_round_trip(self):
        spec = BuildingSpec(
            width=12,
            length=9,
            height=6,
            story_height=2.5,
            density=120.0,
            columns=ColumnGrid(2, 3, 0.5),
        )
        rebuilt = BuildingSpec.from_dict(
            {
                "width": 12,
                "length": 9,
                "height": 6,
                "story_height": 2.5,
                "density": 120.0,
                "columns": {"count_x": 2, "count_y": 3, "side": 0.5},
            }
        )
        assert rebuilt == spec


class TestDemolition:
    def _scene(self, density=400.0):
        spec = BuildingSpec(width=20, length=20, height=10, story_height=3.0, density=density)
        return spec, generate_building(spec, seed=7)

    def test_labels_match_brute_force_containment(self):
        spec, cloud = self._scene()
        box = RemovalBox(1, (4.0, 6.0, 7.0), (9.0, 11.0, 10.0))
        script = DemolitionScript(building=spec, boxes=(box,))
        later, labels, volume = apply_demolition(cloud, script, epoch=1)
        inside = ((cloud.xyz >= box.lo) & (cloud.xyz <= box.hi)).all(axis=1)
        np.testing.assert_array_equal(labels == ChangeLabel.CHANGED, inside)
        assert len(later) == len(cloud) - inside.sum()
        assert volume == pytest.approx(5 * 5 * 3)

    def test_volume_clipped_to_envelope(self):
        spec, cloud = self._scene(density=50.0)
        script = DemolitionScript(
            building=spec, boxes=(RemovalBox(1, (15.0, 15.0, 5.0), (30.0, 30.0, 30.0)),)
        )
        _, _, volume = apply_demolition(cloud, script, epoch=1)
        assert volume == pytest.approx(5 * 5 * 5)

    def test_whole_envelope_box_removes_everything(self):
        spec, cloud = self._scene(density=50.0)
        script = DemolitionScript(
            building=spec, boxes=(RemovalBox(1, (-1.0, -1.0, -1.0), (21.0, 21.0, 11.0)),)
        )
        later, labels, volume = apply_demolition(cloud, script, epoch=1)
        assert (labels == ChangeLabel.CHANGED).all()
        assert len(later) == 0
        assert volume == pytest.approx(spec.width * spec.length * spec.height)

    def test_missing_epoch_is_an_error(self):
        spec, cloud = self._scene(density=50.0)
        script = DemolitionScript(
            building=spec, boxes=(RemovalBox(1, (0.0, 0.0, 0.0), (5.0, 5.0, 5.0)),)
        )
        with pytest.raises(ValueError, match="epoch 2"):
            apply_demolition(cloud, script, epoch=2)

    def test_overlapping_boxes_rejected_across_epochs(self):
        spec, _ = self._scene(density=50.0)
        with pytest.raises(ValueError, match="overlap"):
            DemolitionScript(
                building=spec,
                boxes=(
                    RemovalBox(1, (0.0, 0.0, 0.0), (5.0, 5.0, 5.0)),
                    RemovalBox(2, (4.0, 4.0, 4.0), (6.0, 6.0, 6.0)),
                ),
            )

    def test_box_outside_envelope_rejected(self):
        spec, _ = self._scene(density=50.0)
        with pytest.raises(ValueError, match="envelope"):
            DemolitionScript(
                building=spec, boxes=(RemovalBox(1, (30.0, 30.0, 0.0), (35.0, 35.0, 5.0)),)
            )

    def test_volumes_add_over_boxes(self):
        spec, cloud = self._scene(density=50.0)
        script = DemolitionScript(
            building=spec,
            boxes=(
                RemovalBox(1, (1.0, 1.0, 0.0), (3.0, 4.0, 10.0)),
                RemovalBox(1, (10.0, 10.0, 0.0), (12.0, 15.0, 10.0)),
            ),
        )
        _, _, volume = apply_demolition(cloud, script, epoch=1)
        assert volume == pytest.approx(2 * 3 * 10 + 2 * 5 * 10)

    def test_rubble_scattered_under_removed_box(self):
        spec, cloud = self._scene()
        box = RemovalBox(1, (4.0, 6.0, 0.0), (9.0, 11.0, 10.0))
        script = DemolitionScript(
            building=spec,
            boxes=(box,),
            rubble=RubbleSpec(points_per_m3=20.0, height=0.5, seed=3),
        )
        later, labels, _ = apply_demolition(cloud, script, epoch=1)
        n_rubble = round(20.0 * 5 * 5 * 10)
        n_survivors = len(cloud) - int(np.sum(labels == ChangeLabel.CHANGED))
        assert len(later) == n_survivors + n_rubble
        debris = later.xyz[later.labels == ChangeLabel.CHANGED]
        assert len(debris) == n_rubble
        assert debris[:, 2].max() <= 0.5
        assert ((debris[:, :2] >= [4.0, 6.0]) & (debris[:, :2] <= [9.0, 11.0])).all()

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_rubble_rejected(self, value):
        with pytest.raises(ValueError, match="points_per_m3 must be finite and > 0"):
            RubbleSpec(points_per_m3=value, height=0.5)
        with pytest.raises(ValueError, match="rubble height must be finite and > 0"):
            RubbleSpec(points_per_m3=20.0, height=value)


class TestDemolitionSeries:
    def test_progressive_series_volumes_and_labels(self):
        spec = BuildingSpec(width=18, length=12, height=6, density=100.0)
        clouds, truth_labels, script, volumes = generate_demolition_series(spec, 4, seed=5)
        assert len(clouds) == 4 and len(truth_labels) == 3 and len(volumes) == 3
        for k in range(1, 4):
            assert volumes[k - 1] == pytest.approx(script.removed_volume(k))
            boxes = [b for b in script.boxes if b.epoch == k]
            inside = np.zeros(len(clouds[k - 1]), dtype=bool)
            for box in boxes:
                inside |= ((clouds[k - 1].xyz >= box.lo) & (clouds[k - 1].xyz <= box.hi)).all(
                    axis=1
                )
            np.testing.assert_array_equal(truth_labels[k - 1] == ChangeLabel.CHANGED, inside)
            assert len(clouds[k]) == len(clouds[k - 1]) - inside.sum()

    def test_alignment_snaps_box_edges(self):
        spec = BuildingSpec(width=20, length=20, height=8, density=100.0)
        _, _, script, _ = generate_demolition_series(spec, 3, seed=11, align=0.5)
        for box in script.boxes:
            for v in (*box.lo[:2], *box.hi[:2]):
                assert v == pytest.approx(round(v / 0.5) * 0.5, abs=1e-12)

    def test_noise_perturbs_every_epoch(self):
        spec = BuildingSpec(width=10, length=10, height=5, density=50.0)
        clean, _, _, _ = generate_demolition_series(spec, 3, seed=2)
        noisy, _, _, _ = generate_demolition_series(spec, 3, seed=2, noise_sigma=0.01)
        for a, b in zip(clean, noisy):
            assert len(a) == len(b)
            assert not np.array_equal(a.xyz, b.xyz)

    @pytest.mark.parametrize("sigma", [-0.1, np.nan, np.inf])
    def test_invalid_noise_sigma_rejected(self, sigma):
        spec = BuildingSpec(width=10, length=10, height=5, density=50.0)
        with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
            generate_demolition_series(spec, 3, seed=2, noise_sigma=sigma)


class TestNoise:
    def test_displacement_norm_statistics(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(0.0, 50.0, (200_000, 3)))
        sigma = 0.02
        noisy = add_noise(cloud, sigma, seed=5)
        norms = np.linalg.norm(noisy.xyz - cloud.xyz, axis=1)
        expected_mean = sigma * math.sqrt(8.0 / math.pi)
        expected_std = sigma * math.sqrt(3.0 - 8.0 / math.pi)
        assert norms.mean() == pytest.approx(expected_mean, rel=0.05)
        assert norms.std() == pytest.approx(expected_std, rel=0.05)

    def test_zero_sigma_is_identity(self):
        cloud = PointCloud(np.random.default_rng(1).uniform(0, 1, (10, 3)))
        assert add_noise(cloud, 0.0) is cloud

    def test_attributes_preserved(self):
        labels = np.array([0, 1, 2], dtype=np.uint8)
        cloud = PointCloud(np.eye(3), labels=labels)
        noisy = add_noise(cloud, 0.1, seed=2)
        np.testing.assert_array_equal(noisy.labels, labels)

    def test_deterministic_and_validated(self):
        cloud = PointCloud(np.zeros((5, 3)))
        a = add_noise(cloud, 0.3, seed=8)
        b = add_noise(cloud, 0.3, seed=8)
        np.testing.assert_array_equal(a.xyz, b.xyz)
        with pytest.raises(ValueError, match="sigma"):
            add_noise(cloud, -0.1)
        for sigma in (np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma must be finite"):
                add_noise(cloud, sigma)


def assert_clouds_identical(a, b):
    """Equal bits, shapes and attributes; -0.0 and 0.0 count as different."""
    assert a.xyz.shape == b.xyz.shape
    assert a.xyz.tobytes() == b.xyz.tobytes()
    for name in ("colors", "labels", "epochs"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


class TestMatchesReference:
    """The in-place synthesis equals the array-at-a-time reference bit for bit."""

    SPECS = (
        BuildingSpec(width=10.0, length=10.0, height=8.0, density=400.0),
        BuildingSpec(width=7.3, length=4.9, height=6.1, story_height=2.5, density=37.0),
        BuildingSpec(
            width=12.0, length=9.0, height=7.0, density=60.0, columns=ColumnGrid(3, 2, 0.45)
        ),
    )
    SEEDS = (0, 1, 7919, 2**40 + 3)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", SPECS, ids=("bench", "odd", "columns"))
    def test_building(self, spec, seed):
        assert_clouds_identical(generate_building(spec, seed), ref.generate_building(spec, seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_demolition_with_and_without_rubble(self, seed):
        spec = self.SPECS[2]
        cloud = generate_building(spec, seed)
        boxes = (
            RemovalBox(1, (1.0, -2.0, -1.0), (4.5, 5.0, 9.0)),
            RemovalBox(1, (6.0, 6.0, 2.0), (13.0, 8.5, 5.5)),
            RemovalBox(2, (8.0, 0.5, 0.0), (11.0, 4.0, 7.0)),
        )
        rubble = RubbleSpec(points_per_m3=3.0, height=0.4, seed=seed % 97)
        for script in (
            DemolitionScript(building=spec, boxes=boxes),
            DemolitionScript(building=spec, boxes=boxes, rubble=rubble),
        ):
            earlier = cloud
            for epoch in (1, 2):
                later, labels, volume = apply_demolition(earlier, script, epoch)
                want, want_labels, want_volume = ref.apply_demolition(earlier, script, epoch)
                assert_clouds_identical(later, want)
                assert labels.dtype == want_labels.dtype
                np.testing.assert_array_equal(labels, want_labels)
                assert volume == want_volume
                earlier = later

    def test_box_corners_on_samples(self):
        # Two samples at opposite corners of the box lie on its faces: the
        # bounds are inclusive on every axis, as in the reference.
        spec = self.SPECS[1]
        cloud = generate_building(spec, 3)
        a = 5
        b = int(np.flatnonzero((cloud.xyz != cloud.xyz[a]).all(axis=1))[-1])
        lo = np.minimum(cloud.xyz[a], cloud.xyz[b])
        hi = np.maximum(cloud.xyz[a], cloud.xyz[b])
        script = DemolitionScript(building=spec, boxes=(RemovalBox(1, lo, hi),))
        _, labels, _ = apply_demolition(cloud, script, 1)
        _, want, _ = ref.apply_demolition(cloud, script, 1)
        np.testing.assert_array_equal(labels, want)
        assert labels[a] == labels[b] == ChangeLabel.CHANGED

    @pytest.mark.parametrize("seed", SEEDS)
    def test_noise(self, seed):
        cloud = generate_building(self.SPECS[1], seed)
        cloud = cloud.with_attributes(labels=np.arange(len(cloud)) % 3)
        assert_clouds_identical(add_noise(cloud, 0.013, seed), ref.add_noise(cloud, 0.013, seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_series(self, seed):
        spec = self.SPECS[2]
        rubble = RubbleSpec(points_per_m3=2.0, height=0.3, seed=5)
        for kwargs in ({}, dict(noise_sigma=0.01, rubble=rubble, align=0.5)):
            clouds, labels, script, volumes = generate_demolition_series(spec, 4, seed, **kwargs)
            want = ref.generate_demolition_series(spec, 4, seed, **kwargs)
            assert len(clouds) == len(want[0]) == 4
            for a, b in zip(clouds, want[0]):
                assert_clouds_identical(a, b)
            for a, b in zip(labels, want[1]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert script == want[2]
            assert volumes == want[3]


class TestPoseScenario:
    def _small(self, **kwargs):
        defaults = dict(n_fixed_cameras=5, n_new_cameras=4, n_points=60, seed=3)
        defaults.update(kwargs)
        return PoseScenarioConfig(**defaults)

    def test_observations_consistent_with_truth(self):
        scenario = generate_pose_scenario(self._small())
        cameras = dict(scenario.fixed.cameras)
        cameras.update(scenario.new_truth.cameras)
        calibrations = {c: scenario.fixed.calibration for c in scenario.fixed.cameras}
        calibrations.update(
            {c: scenario.new_truth.calibration for c in scenario.new_truth.cameras}
        )
        _, rms = compute_residuals(
            scenario.observations, cameras, calibrations, scenario.points_truth
        )
        assert rms < 1e-9

    def test_camera_ids_partition_epochs(self):
        scenario = generate_pose_scenario(self._small())
        assert sorted(scenario.fixed.cameras) == list(range(5))
        assert sorted(scenario.new_truth.cameras) == list(range(5, 9))
        assert sorted(scenario.new_initial.cameras) == list(range(5, 9))
        assert scenario.fixed.epoch == 0 and scenario.new_truth.epoch == 1

    def test_every_point_observed_by_every_camera(self):
        config = self._small()
        scenario = generate_pose_scenario(config)
        assert len(scenario.observations) == 9 * 60
        observations = scenario.observations
        seen = set(zip(observations["camera"].tolist(), observations["track"].tolist()))
        assert len(seen) == 9 * 60

    def test_exact_outlier_count_and_magnitude(self):
        config = self._small(outlier_fraction=0.02)
        scenario = generate_pose_scenario(config)
        clean = generate_pose_scenario(self._small())
        m = len(scenario.observations)
        assert len(scenario.outlier_indices) == math.floor(0.02 * m)
        for i in scenario.outlier_indices:
            shift = math.hypot(
                scenario.observations[i]["x"] - clean.observations[i]["x"],
                scenario.observations[i]["y"] - clean.observations[i]["y"],
            )
            assert config.outlier_shift <= shift <= 2 * config.outlier_shift
        untouched = np.ones(m, dtype=bool)
        untouched[scenario.outlier_indices] = False
        np.testing.assert_array_equal(
            scenario.observations[untouched], clean.observations[untouched]
        )

    def test_initial_perturbation_magnitudes(self):
        config = self._small(initial_center_offset=0.5, initial_rotation_deg=1.0)
        scenario = generate_pose_scenario(config)
        for cam_id, truth in scenario.new_truth.cameras.items():
            initial = scenario.new_initial.cameras[cam_id]
            assert np.linalg.norm(initial.center - truth.center) == pytest.approx(0.5)

    def test_deterministic_per_seed(self):
        a = generate_pose_scenario(self._small(noise_sigma=0.5, outlier_fraction=0.01))
        b = generate_pose_scenario(self._small(noise_sigma=0.5, outlier_fraction=0.01))
        assert a.outlier_indices == b.outlier_indices
        assert a.observations.tobytes() == b.observations.tobytes()

    def test_blind_geometry_rejected(self):
        config = self._small(point_extent=(10.0, 10.0, 40.0), overhead_height=16.0)
        with pytest.raises(ValueError, match="cannot see"):
            generate_pose_scenario(config)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="outlier_fraction"):
            self._small(outlier_fraction=1.0)
        with pytest.raises(ValueError, match="noise_sigma"):
            self._small(noise_sigma=-0.5)
        with pytest.raises(ValueError, match="camera"):
            self._small(n_fixed_cameras=0)

    @pytest.mark.parametrize("setting", [
        "point_extent", "ring_radius", "ring_height", "overhead_height", "overhead_span",
        "overhead_fraction", "noise_sigma", "outlier_fraction", "outlier_shift",
        "initial_center_offset", "initial_rotation_deg", "initial_point_sigma",
    ])
    def test_non_finite_settings_rejected(self, setting):
        # NaN passes every ordered comparison check: noise_sigma=nan gave
        # noise-free observations and outlier_shift=nan an OverflowError.
        for value in (np.nan, np.inf, -np.inf):
            given = (10.0, value, 4.0) if setting == "point_extent" else value
            with pytest.raises(ValueError, match="must be finite"):
                self._small(**{setting: given})

    def test_to_scenario_carries_truth(self):
        scenario = generate_pose_scenario(self._small(outlier_fraction=0.02))
        packed = scenario.to_scenario()
        assert packed.new_epoch is scenario.new_initial
        assert len(packed.fixed_epochs) == 1
        assert packed.truth["outlier_observations"] == scenario.outlier_indices
        assert len(packed.truth["points"]) == 60
