"""Tests for progressive constrained bundle adjustment."""
import dataclasses
import logging

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial.transform import Rotation

from cloudchange.adjustment import (
    AdjustmentOptions,
    _BlockLayout,
    _Problem,
    _group_width,
    _solve_reduced,
    load_scenario,
    refine_progressive,
    save_scenario,
)
from cloudchange.cameras import (
    EpochCameras,
    ExteriorOrientation,
    ImageObservation,
    ObjectPoint,
    SelfCalibration,
    project_points,
)
from cloudchange.synth import PoseScenarioConfig, generate_pose_scenario
from projection_reference import LinearizedSystem, compute_residuals, linearize, prior_rows


def rotation_gap(a: ExteriorOrientation, b: ExteriorOrientation) -> float:
    """Angle of the relative rotation between two poses, radians."""
    rel = a.matrix.T @ b.matrix
    return float(np.linalg.norm(Rotation.from_matrix(rel).as_rotvec()))


def small_scenario(**kwargs):
    defaults = dict(n_fixed_cameras=6, n_new_cameras=5, n_points=80, seed=4)
    defaults.update(kwargs)
    return generate_pose_scenario(PoseScenarioConfig(**defaults))


def split_fixed_epoch(scenario):
    """The reference cameras split into two epochs with their own
    calibrations, so three calibration slots are in use."""
    fixed_ids = sorted(scenario.fixed.cameras)
    other_calibration = SelfCalibration(1300.0, 25.0, -10.0, -0.02, 0.004)
    return [
        EpochCameras(
            epoch=0,
            calibration=scenario.fixed.calibration,
            cameras={c: scenario.fixed.cameras[c] for c in fixed_ids[:3]},
        ),
        EpochCameras(
            epoch=1,
            calibration=other_calibration,
            cameras={c: scenario.fixed.cameras[c] for c in fixed_ids[3:]},
        ),
    ]


def skewed_observations(scenario, n_points):
    """Two cameras (one new, one reference) see every track; each other
    camera sees a window of a fifth of them, so the cameras' row counts
    differ fivefold. Weights vary per observation."""
    wide = {min(scenario.new_initial.cameras), min(scenario.fixed.cameras)}
    narrow = sorted({o.camera_id for o in scenario.observations} - wide)
    rank = {c: k for k, c in enumerate(narrow)}
    return [
        dataclasses.replace(o, weight=0.5 + 0.25 * (i % 5))
        for i, o in enumerate(scenario.observations)
        if o.camera_id in wide or (o.track_id + 5 * rank[o.camera_id]) % n_points < n_points // 5
    ]


def solve(scenario, **options):
    return refine_progressive(
        scenario.fixed,
        scenario.new_initial,
        scenario.points_initial,
        scenario.observations,
        AdjustmentOptions(**options) if options else None,
    )


class TestZeroNoiseRecovery:
    def test_recovers_cameras_points_and_calibration(self):
        scenario = small_scenario(
            initial_calibration=SelfCalibration(1150.0, 0.0, 0.0, 0.0, 0.0)
        )
        result = solve(scenario)
        assert result.converged
        assert result.rms < 1e-9
        assert result.rejected_observations == []
        for cam_id, truth in scenario.new_truth.cameras.items():
            estimate = result.new_cameras.cameras[cam_id]
            assert np.linalg.norm(estimate.center - truth.center) < 1e-9
            assert rotation_gap(estimate, truth) < 1e-10
        cal = result.new_cameras.calibration
        truth_cal = scenario.new_truth.calibration
        assert cal.focal_length == pytest.approx(truth_cal.focal_length, abs=1e-6)
        assert cal.k1 == pytest.approx(truth_cal.k1, abs=1e-9)
        for track, truth_point in scenario.points_truth.items():
            gap = np.linalg.norm(result.points[track].position - truth_point.position)
            assert gap < 1e-9

    def test_fixed_parameters_echo_unchanged(self):
        scenario = small_scenario()
        result = solve(scenario)
        assert len(result.fixed_cameras) == 1
        echoed = result.fixed_cameras[0]
        assert echoed.calibration == scenario.fixed.calibration
        for cam_id, eo in scenario.fixed.cameras.items():
            np.testing.assert_array_equal(echoed.cameras[cam_id].center, eo.center)
            np.testing.assert_array_equal(echoed.cameras[cam_id].rotation, eo.rotation)

    def test_residuals_cover_all_observations(self):
        scenario = small_scenario()
        result = solve(scenario)
        assert result.residuals.shape == (2 * len(scenario.observations),)
        assert np.isfinite(result.residuals).all()
        assert result.rms == pytest.approx(
            float(np.sqrt((result.residuals**2).mean())), rel=1e-9
        )


class TestNoiseAndOutliers:
    def test_rms_tracks_injected_noise(self):
        scenario = generate_pose_scenario(
            PoseScenarioConfig(
                n_fixed_cameras=10, n_new_cameras=10, n_points=150, noise_sigma=0.5, seed=1
            )
        )
        result = solve(scenario)
        assert result.converged
        assert result.rms == pytest.approx(0.5, rel=0.15)

    def test_injected_outliers_are_rejected(self):
        scenario = generate_pose_scenario(
            PoseScenarioConfig(
                n_fixed_cameras=8,
                n_new_cameras=8,
                n_points=100,
                noise_sigma=0.5,
                outlier_fraction=0.02,
                seed=6,
            )
        )
        result = solve(scenario)
        assert scenario.outlier_indices  # the scenario really injected some
        assert set(scenario.outlier_indices) <= set(result.rejected_observations)

    def test_iteration_budget_reports_non_convergence(self):
        scenario = small_scenario(noise_sigma=0.5)
        result = solve(scenario, max_iterations=1)
        assert result.converged is False
        assert result.iteration_log


class TestFixedHandling:
    def test_exclude_and_prior_weight_agree(self):
        scenario = small_scenario(noise_sigma=0.3, seed=9)
        excluded = solve(scenario, fixed_handling="exclude")
        prior = solve(scenario, fixed_handling="prior_weight", prior_weight=1e12)
        for cam_id in scenario.new_truth.cameras:
            a = excluded.new_cameras.cameras[cam_id]
            b = prior.new_cameras.cameras[cam_id]
            assert np.linalg.norm(a.center - b.center) < 1e-4
            assert rotation_gap(a, b) < 1e-4
        assert excluded.new_cameras.calibration.focal_length == pytest.approx(
            prior.new_cameras.calibration.focal_length, rel=1e-4
        )

    def test_prior_weight_mode_still_echoes_fixed_inputs(self):
        scenario = small_scenario(noise_sigma=0.3, seed=2)
        result = solve(scenario, fixed_handling="prior_weight")
        echoed = result.fixed_cameras[0]
        for cam_id, eo in scenario.fixed.cameras.items():
            np.testing.assert_array_equal(echoed.cameras[cam_id].center, eo.center)


class TestTrackSupport:
    def _with_extra_track(self, n_observations: int):
        scenario = small_scenario()
        track_id = 999
        position = np.array([0.3, -0.2, 1.0])
        points = dict(scenario.points_initial)
        points[track_id] = ObjectPoint(position=position, track_id=track_id)
        observations = list(scenario.observations)
        for cam_id in sorted(scenario.fixed.cameras)[:n_observations]:
            pixel = project_points(
                position[None, :],
                scenario.fixed.cameras[cam_id],
                scenario.fixed.calibration,
            )[0]
            observations.append(
                ImageObservation(cam_id, track_id, float(pixel[0]), float(pixel[1]))
            )
        return scenario, points, observations, track_id, position

    def test_short_track_dropped_with_warning(self, caplog):
        scenario, points, observations, track_id, position = self._with_extra_track(1)
        with caplog.at_level(logging.WARNING, logger="cloudchange.adjustment"):
            result = refine_progressive(
                scenario.fixed, scenario.new_initial, points, observations
            )
        assert any("fewer than" in rec.getMessage() for rec in caplog.records)
        assert len(observations) - 1 in result.rejected_observations
        np.testing.assert_array_equal(result.points[track_id].position, position)
        assert result.rms < 1e-9

    def test_unobserved_track_carried_through(self, caplog):
        scenario, points, observations, track_id, position = self._with_extra_track(0)
        with caplog.at_level(logging.WARNING, logger="cloudchange.adjustment"):
            result = refine_progressive(
                scenario.fixed, scenario.new_initial, points, observations
            )
        assert any("no observations" in rec.getMessage() for rec in caplog.records)
        np.testing.assert_array_equal(result.points[track_id].position, position)

    def test_two_observation_track_survives(self):
        scenario, points, observations, track_id, _ = self._with_extra_track(2)
        result = refine_progressive(
            scenario.fixed, scenario.new_initial, points, observations
        )
        assert not result.rejected_observations
        assert result.rms < 1e-9


class TestObservationOrder:
    def test_shuffled_observations_give_the_same_solution(self):
        scenario = generate_pose_scenario(
            PoseScenarioConfig(
                n_fixed_cameras=6,
                n_new_cameras=5,
                n_points=60,
                noise_sigma=0.5,
                outlier_fraction=0.03,
                seed=13,
            )
        )
        # Partial visibility: the k-th camera misses tracks 4k..5k-1, so the
        # cameras' groups have different lengths.
        camera_ids = sorted({o.camera_id for o in scenario.observations})
        rank = {c: k for k, c in enumerate(camera_ids)}
        observations = [
            o
            for o in scenario.observations
            if not 4 * rank[o.camera_id] <= o.track_id < 5 * rank[o.camera_id]
        ]
        perm = np.random.default_rng(3).permutation(len(observations))
        shuffled = [observations[i] for i in perm]
        args = (scenario.fixed, scenario.new_initial, scenario.points_initial)
        plain = refine_progressive(*args, observations)
        mixed = refine_progressive(*args, shuffled)
        assert plain.converged and mixed.converged
        assert plain.rejected_observations
        assert sorted(perm[mixed.rejected_observations].tolist()) == plain.rejected_observations
        for cam_id, eo in plain.new_cameras.cameras.items():
            assert np.linalg.norm(mixed.new_cameras.cameras[cam_id].center - eo.center) <= 1e-9
        np.testing.assert_allclose(
            mixed.residuals.reshape(-1, 2), plain.residuals.reshape(-1, 2)[perm], atol=1e-9
        )


class TestGroupLayout:
    def test_uniform_visibility_gives_one_unpadded_group_per_camera(self):
        assert _group_width(np.full(7, 250)) == 250

    def test_ragged_visibility_cuts_long_cameras_instead_of_padding(self):
        # Padding every camera to the longest would take 60 * 1000 rows for
        # 7800 real ones.
        counts = np.array([1000, 1000] + [100] * 58)
        width = _group_width(counts)
        groups = -(-counts // width)
        assert width * groups.sum() <= 1.1 * counts.sum()

    @pytest.mark.parametrize("include_fixed", [False, True])
    def test_groups_hold_each_retained_row_once_in_input_order(self, include_fixed):
        scenario = small_scenario(n_fixed_cameras=6, n_new_cameras=5, n_points=40, seed=8)
        observations = skewed_observations(scenario, 40)
        perm = np.random.default_rng(2).permutation(len(observations))
        observations = [observations[i] for i in perm]
        problem = _Problem(
            [scenario.fixed],
            scenario.new_initial,
            scenario.points_initial,
            observations,
            include_fixed=include_fixed,
        )
        mask = np.ones(len(observations), dtype=bool)
        mask[::6] = False
        layout = _BlockLayout(problem, mask)
        counts = np.bincount(problem.obs_cam[mask])
        assert len(layout.cams) > np.count_nonzero(counts)
        assert layout.real.size < 1.5 * mask.sum()
        assert sorted(layout.obs[layout.real].tolist()) == np.flatnonzero(mask).tolist()
        # Every row of a group, padding included, is an observation of the
        # group's camera; a camera's rows run through its groups in input order.
        assert (problem.obs_cam[layout.obs] == layout.cams[:, None]).all()
        assert (layout.weight[~layout.real] == 0).all()
        for cam in np.unique(layout.cams):
            rows = layout.obs[layout.cams == cam][layout.real[layout.cams == cam]]
            assert (np.diff(rows) > 0).all()
        assert (np.diff(layout.cams) >= 0).all()
        in_system = problem.cam_col[layout.cams] >= 0
        assert in_system[: layout.n_system].all() and not in_system[layout.n_system :].any()


class TestValidation:
    def test_dangling_references(self):
        scenario = small_scenario()
        bad_camera = scenario.observations + [ImageObservation(999, 0, 0.0, 0.0)]
        with pytest.raises(ValueError, match="unknown camera 999"):
            refine_progressive(
                scenario.fixed, scenario.new_initial, scenario.points_initial, bad_camera
            )
        bad_track = scenario.observations + [
            ImageObservation(next(iter(scenario.fixed.cameras)), 777, 0.0, 0.0)
        ]
        with pytest.raises(ValueError, match="unknown track 777"):
            refine_progressive(
                scenario.fixed, scenario.new_initial, scenario.points_initial, bad_track
            )

    def test_duplicate_camera_id_across_epochs(self):
        scenario = small_scenario()
        clashing = EpochCameras(
            epoch=1,
            calibration=scenario.new_initial.calibration,
            cameras={0: next(iter(scenario.new_initial.cameras.values()))},
        )
        observations = [o for o in scenario.observations if o.camera_id == 0]
        with pytest.raises(ValueError, match="more than one epoch"):
            refine_progressive(
                scenario.fixed, clashing, scenario.points_initial, observations
            )

    def test_new_camera_without_observations(self):
        scenario = small_scenario()
        victim = sorted(scenario.new_initial.cameras)[0]
        observations = [o for o in scenario.observations if o.camera_id != victim]
        with pytest.raises(ValueError, match="no retained observations"):
            refine_progressive(
                scenario.fixed, scenario.new_initial, scenario.points_initial, observations
            )

    def test_initial_values_behind_camera(self):
        scenario = small_scenario()
        blind = EpochCameras(
            epoch=1,
            calibration=scenario.new_initial.calibration,
            cameras={
                cam_id: ExteriorOrientation(
                    center=np.array([0.0, 0.0, 100.0]), rotation=np.zeros(3)
                )
                for cam_id in scenario.new_initial.cameras
            },
        )
        with pytest.raises(ValueError, match="at or behind"):
            refine_progressive(
                scenario.fixed, blind, scenario.points_initial, scenario.observations
            )

    def test_unobservable_point_direction_is_rank_deficient(self):
        # Track 0 is seen only by the reference camera, twice, exactly on its
        # optical axis: the derivative along the viewing ray vanishes, so the
        # normal matrix has an unsupported column.
        cal = SelfCalibration(1000.0, 0.0, 0.0, 0.0, 0.0)
        fixed_eo = ExteriorOrientation(center=np.zeros(3), rotation=np.zeros(3))
        fixed = EpochCameras(epoch=0, calibration=cal, cameras={100: fixed_eo})
        new_eo = ExteriorOrientation(
            center=np.array([0.5, 0.2, 0.0]), rotation=np.array([0.01, 0.0, 0.0])
        )
        new = EpochCameras(epoch=1, calibration=cal, cameras={0: new_eo})
        points = {
            0: ObjectPoint(np.array([0.0, 0.0, 5.0]), 0),
            1: ObjectPoint(np.array([1.0, 0.0, 5.0]), 1),
            2: ObjectPoint(np.array([0.0, 1.0, 5.0]), 2),
            3: ObjectPoint(np.array([1.0, 1.0, 6.0]), 3),
        }
        observations = []
        for cam_id, eo, tracks in ((100, fixed_eo, (0, 0, 1, 2, 3)), (0, new_eo, (1, 2, 3))):
            for t in tracks:
                pixel = project_points(points[t].position[None, :], eo, cal)[0]
                observations.append(
                    ImageObservation(cam_id, t, float(pixel[0]), float(pixel[1]))
                )
        with pytest.raises(ValueError, match="rank-deficient"):
            refine_progressive(fixed, new, points, observations)

    def test_options_validation(self):
        with pytest.raises(ValueError, match="fixed_handling"):
            AdjustmentOptions(fixed_handling="freeze")
        with pytest.raises(ValueError, match="min_track_length"):
            AdjustmentOptions(min_track_length=1)
        with pytest.raises(ValueError, match="max_iterations"):
            AdjustmentOptions(max_iterations=0)
        with pytest.raises(ValueError, match="step_tolerance"):
            AdjustmentOptions(step_tolerance=1.5)


class TestLinearizedSystem:
    def _blocks(self, rows=4):
        return (
            sparse.csr_matrix((rows, 6)),
            sparse.csr_matrix((rows, 11)),
            np.zeros(rows),
            np.ones(rows),
        )

    def test_accepts_consistent_blocks(self):
        points, new, residuals, weights = self._blocks()
        system = LinearizedSystem(points, new, None, residuals, weights)
        assert system.jac_fixed is None

    def test_rejects_odd_row_count(self):
        points, new, _, _ = self._blocks(3)
        with pytest.raises(ValueError, match="two rows per observation"):
            LinearizedSystem(points, new, None, np.zeros(3), np.ones(3))

    def test_rejects_mismatched_blocks(self):
        points, _, residuals, weights = self._blocks(4)
        with pytest.raises(ValueError, match="row count"):
            LinearizedSystem(points, sparse.csr_matrix((6, 11)), None, residuals, weights)
        with pytest.raises(ValueError, match="length"):
            LinearizedSystem(
                points, sparse.csr_matrix((4, 11)), None, np.zeros(2), np.ones(4)
            )


class TestSolverOracles:
    @staticmethod
    def _problem(scenario, fixed_epochs, include_fixed):
        return _Problem(
            fixed_epochs,
            scenario.new_initial,
            scenario.points_initial,
            scenario.observations,
            include_fixed=include_fixed,
        )

    @pytest.mark.parametrize("lam", [1e-3, 1.0])
    @pytest.mark.parametrize("fixed_handling", ["exclude", "prior_weight"])
    def test_reduced_step_solves_full_damped_normal_equations(self, fixed_handling, lam):
        scenario = small_scenario(
            n_fixed_cameras=2, n_new_cameras=2, n_points=12, noise_sigma=0.5, seed=5
        )
        include_fixed = fixed_handling == "prior_weight"
        problem = self._problem(scenario, [scenario.fixed], include_fixed)
        if include_fixed:
            # Move the fixed parameters off their inputs so the prior rows
            # carry nonzero residuals.
            problem.cam_rot[problem.n_new_cams :] += 1e-3
            problem.cam_cen[problem.n_new_cams :] -= 2e-3
            problem.cal_values[1:] += 0.5
        mask = np.ones(len(scenario.observations), dtype=bool)
        track_active = np.ones(len(problem.track_ids), dtype=bool)
        system = linearize(problem, mask, track_active)
        # A moderate prior weight: at the default 1e12 the full system's
        # condition number leaves no 1e-9 agreement for any solver to meet.
        prior = prior_rows(problem, 1e4) if include_fixed else None

        blocks = [system.jac_new] + ([system.jac_fixed] if include_fixed else [])
        jac = sparse.hstack(blocks + [system.jac_points]).toarray()
        residuals, weights = system.residuals, system.weights
        if include_fixed:
            prior_jac, prior_res, prior_w = prior
            pad = np.zeros((prior_jac.shape[0], jac.shape[1] - prior_jac.shape[1]))
            jac = np.vstack([jac, np.hstack([prior_jac.toarray(), pad])])
            residuals = np.concatenate([residuals, prior_res])
            weights = np.concatenate([weights, prior_w])
        hess = jac.T @ (weights[:, None] * jac)
        expected = np.linalg.solve(
            hess + lam * np.diag(np.diag(hess)), jac.T @ (weights * residuals)
        )

        equations = problem.normal_equations(mask, track_active, 1e4 if include_fixed else None)
        step = _solve_reduced(*equations, lam)
        assert np.linalg.norm(step - expected) <= 1e-9 * np.linalg.norm(expected)

    @staticmethod
    def _dense_normal_equations(problem, mask, track_active, prior_weight):
        """J^T W J and J^T W r from the sparse Jacobian of linearize (and the
        prior rows), split as _NormalEquations."""
        system = linearize(problem, mask, track_active)
        blocks = [system.jac_new] + ([system.jac_fixed] if problem.include_fixed else [])
        jac_c = sparse.hstack(blocks).toarray()
        jac_p = system.jac_points.toarray()
        weights, residuals = system.weights, system.residuals
        h_cc = jac_c.T @ (weights[:, None] * jac_c)
        grad_c = jac_c.T @ (weights * residuals)
        if prior_weight is not None:
            prior_jac, prior_res, prior_w = prior_rows(problem, prior_weight)
            prior_jac = prior_jac.toarray()
            h_cc += prior_jac.T @ (prior_w[:, None] * prior_jac)
            grad_c += prior_jac.T @ (prior_w * prior_res)
        n = jac_p.shape[1] // 3
        h_pp = (jac_p.T @ (weights[:, None] * jac_p)).reshape(n, 3, n, 3)
        v = h_pp[np.arange(n), :, np.arange(n), :]
        off_block = h_pp.copy()
        off_block[np.arange(n), :, np.arange(n), :] = 0.0
        assert not off_block.any()
        return (
            h_cc,
            jac_c.T @ (weights[:, None] * jac_p),
            v,
            grad_c,
            jac_p.T @ (weights * residuals),
        )

    @pytest.mark.parametrize("fixed_handling", ["exclude", "prior_weight"])
    def test_normal_equations_equal_dense_jacobian_products(self, fixed_handling):
        scenario = small_scenario(
            n_fixed_cameras=6, n_new_cameras=5, n_points=40, noise_sigma=0.5, seed=8
        )
        # Partial visibility: the k-th camera misses tracks 3k..4k-1, so
        # every camera has its own observation count. Weights vary per
        # observation. One new and one reference camera observe a track a
        # second time.
        camera_ids = sorted({o.camera_id for o in scenario.observations})
        rank = {c: k for k, c in enumerate(camera_ids)}
        observations = [
            dataclasses.replace(o, weight=0.5 + 0.25 * (i % 5))
            for i, o in enumerate(scenario.observations)
            if not 3 * rank[o.camera_id] <= o.track_id < 4 * rank[o.camera_id]
        ]
        for camera_id in (min(scenario.new_initial.cameras), max(scenario.fixed.cameras)):
            first = next(o for o in observations if o.camera_id == camera_id)
            observations.append(dataclasses.replace(first, x=first.x + 0.3, weight=2.0))
        fixed_epochs = split_fixed_epoch(scenario)
        include_fixed = fixed_handling == "prior_weight"
        problem = _Problem(
            fixed_epochs,
            scenario.new_initial,
            scenario.points_initial,
            observations,
            include_fixed=include_fixed,
        )
        if include_fixed:
            problem.cam_rot[problem.n_new_cams :] += 1e-3
            problem.cam_cen[problem.n_new_cams :] -= 2e-3
            problem.cal_values[1:] += 0.5
        prior_weight = 1e4 if include_fixed else None

        full = np.ones(len(observations), dtype=bool)
        all_tracks = np.ones(len(problem.track_ids), dtype=bool)
        # Masked rows and a dropped track, then the full set again: the same
        # problem must not serve one mask's layout for another.
        masked = full.copy()
        masked[::7] = False
        dropped_track = all_tracks.copy()
        dropped_track[5] = False
        masked &= dropped_track[problem.obs_track]
        for mask, track_active in ((full, all_tracks), (masked, dropped_track), (full, all_tracks)):
            got = problem.normal_equations(mask, track_active, prior_weight)
            want = self._dense_normal_equations(problem, mask, track_active, prior_weight)
            for name, block, expected in zip(got._fields, got, want):
                assert block.shape == expected.shape, name
                gap = np.linalg.norm(block - expected)
                assert gap <= 1e-12 * np.linalg.norm(expected), name

    @pytest.mark.parametrize("fixed_handling", ["exclude", "prior_weight"])
    def test_normal_equations_on_cameras_cut_into_several_groups(self, fixed_handling):
        scenario = small_scenario(
            n_fixed_cameras=6, n_new_cameras=5, n_points=40, noise_sigma=0.5, seed=8
        )
        observations = skewed_observations(scenario, 40)
        include_fixed = fixed_handling == "prior_weight"
        problem = _Problem(
            [scenario.fixed],
            scenario.new_initial,
            scenario.points_initial,
            observations,
            include_fixed=include_fixed,
        )
        prior_weight = 1e4 if include_fixed else None
        mask = np.ones(len(observations), dtype=bool)
        mask[::7] = False
        track_active = np.ones(len(problem.track_ids), dtype=bool)
        got = problem.normal_equations(mask, track_active, prior_weight)
        # The wide cameras' rows span several groups each.
        assert len(problem._layout.cams) > len(np.unique(problem._layout.cams))
        want = self._dense_normal_equations(problem, mask, track_active, prior_weight)
        for name, block, expected in zip(got._fields, got, want):
            assert block.shape == expected.shape, name
            gap = np.linalg.norm(block - expected)
            assert gap <= 1e-12 * np.linalg.norm(expected), name

    def test_residuals_use_each_observation_calibration(self):
        scenario = small_scenario(
            n_fixed_cameras=6,
            n_new_cameras=5,
            n_points=40,
            initial_calibration=SelfCalibration(1100.0, -20.0, 15.0, 0.05, 0.0),
        )
        fixed_epochs = split_fixed_epoch(scenario)
        problem = self._problem(scenario, fixed_epochs, include_fixed=False)
        cameras, calibrations = {}, {}
        for epoch in fixed_epochs + [scenario.new_initial]:
            cameras.update(epoch.cameras)
            calibrations.update(dict.fromkeys(epoch.cameras, epoch.calibration))
        expected, _ = compute_residuals(
            scenario.observations, cameras, calibrations, scenario.points_initial
        )

        mask = np.ones(len(scenario.observations), dtype=bool)
        mask[::7] = False
        res, behind = problem.residuals(mask)
        assert not behind.any()
        assert np.isnan(res[~mask]).all()
        np.testing.assert_allclose(
            res[mask], expected.reshape(-1, 2)[mask], rtol=0.0, atol=1e-9
        )


class TestScenarioFiles:
    def test_round_trip_preserves_everything(self, tmp_path):
        scenario = small_scenario(noise_sigma=0.4, outlier_fraction=0.02, seed=12)
        packed = scenario.to_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(packed, path)
        loaded = load_scenario(path)
        assert len(loaded.fixed_epochs) == 1
        for cam_id, eo in packed.fixed_epochs[0].cameras.items():
            np.testing.assert_array_equal(
                loaded.fixed_epochs[0].cameras[cam_id].center, eo.center
            )
        assert loaded.new_epoch.calibration == packed.new_epoch.calibration
        for track, point in packed.points.items():
            np.testing.assert_array_equal(loaded.points[track].position, point.position)
        assert [(o.camera_id, o.track_id, o.x, o.y) for o in loaded.observations] == [
            (o.camera_id, o.track_id, o.x, o.y) for o in packed.observations
        ]
        assert loaded.truth["outlier_observations"] == scenario.outlier_indices

    def test_exactly_one_new_epoch_required(self, tmp_path):
        scenario = small_scenario().to_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        text = path.read_text().replace('"fixed": false', '"fixed": true')
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        with pytest.raises(ValueError, match="exactly one non-fixed epoch"):
            load_scenario(broken)

    def test_solve_after_round_trip_matches_direct_solve(self, tmp_path):
        scenario = small_scenario(noise_sigma=0.2, seed=3)
        packed = scenario.to_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(packed, path)
        loaded = load_scenario(path)
        direct = solve(scenario)
        reloaded = refine_progressive(
            loaded.fixed_epochs, loaded.new_epoch, loaded.points, loaded.observations
        )
        assert reloaded.rms == pytest.approx(direct.rms, rel=1e-9)
        for cam_id in scenario.new_truth.cameras:
            np.testing.assert_allclose(
                reloaded.new_cameras.cameras[cam_id].center,
                direct.new_cameras.cameras[cam_id].center,
                atol=1e-9,
            )
