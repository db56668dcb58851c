"""Tests for the camera model: projection, analytic Jacobians, residuals."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from cloudchange.cameras import (
    ExteriorOrientation,
    ImageObservation,
    ObjectPoint,
    SelfCalibration,
    project_points,
    _projection,
    projection_jacobians,
)
from projection_reference import compute_residuals, project_rows


def rodrigues_matrix(rotvec):
    """Rotation matrix from an axis-angle vector, written out longhand."""
    theta = np.linalg.norm(rotvec)
    if theta < 1e-15:
        return np.eye(3)
    k = rotvec / theta
    skew = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(theta) * skew + (1.0 - np.cos(theta)) * (skew @ skew)


def project_reference(point, eo, sc):
    """Scalar reimplementation of the projection, used as an oracle."""
    rot = rodrigues_matrix(np.array(eo.rotation))
    cam = rot @ (np.asarray(point, dtype=float) - eo.center)
    u = cam[0] / cam[2]
    v = cam[1] / cam[2]
    r2 = u * u + v * v
    factor = 1.0 + sc.k1 * r2 + sc.k2 * r2 * r2
    return np.array([sc.focal_length * u * factor + sc.cx, sc.focal_length * v * factor + sc.cy])


def random_setup(rng, n_points=40):
    """A random posed camera, calibration, and points in front of it."""
    eo = ExteriorOrientation(
        center=rng.normal(0.0, 3.0, 3),
        rotation=Rotation.random(random_state=rng).as_rotvec() * rng.uniform(0.05, 0.8),
    )
    sc = SelfCalibration(
        focal_length=rng.uniform(500.0, 2000.0),
        cx=rng.normal(0.0, 20.0),
        cy=rng.normal(0.0, 20.0),
        k1=rng.uniform(-0.05, 0.05),
        k2=rng.uniform(-0.01, 0.01),
    )
    cam_pts = np.column_stack(
        [
            rng.uniform(-0.3, 0.3, n_points),
            rng.uniform(-0.3, 0.3, n_points),
            rng.uniform(4.0, 40.0, n_points),
        ]
    )
    # cam = R (X - C)  =>  X = R^T cam + C, as rows: cam_pts @ R + C.
    points = cam_pts @ eo.matrix + eo.center
    return eo, sc, points


class TestProjection:
    def test_on_axis_point_hits_principal_point(self):
        rng = np.random.default_rng(11)
        eo = ExteriorOrientation(
            center=rng.normal(0.0, 5.0, 3),
            rotation=Rotation.random(random_state=rng).as_rotvec() * 0.5,
        )
        sc = SelfCalibration(focal_length=870.0, cx=123.4, cy=-56.7, k1=0.3, k2=-0.2)
        for depth in (0.5, 1.0, 7.3, 250.0):
            point = eo.matrix.T @ np.array([0.0, 0.0, depth]) + eo.center
            pixel = project_points(point, eo, sc)[0]
            np.testing.assert_allclose(pixel, [123.4, -56.7], atol=1e-9)

    def test_unit_depth_example(self):
        eo = ExteriorOrientation(center=np.zeros(3), rotation=np.zeros(3))
        sc = SelfCalibration(focal_length=1000.0, cx=0.0, cy=0.0, k1=0.0, k2=0.0)
        pixel = project_points(np.array([0.1, 0.0, 1.0]), eo, sc)[0]
        np.testing.assert_allclose(pixel, [100.0, 0.0], atol=1e-12)

    def test_matches_reference_implementation(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            eo, sc, points = random_setup(rng)
            batch = project_points(points, eo, sc)
            oracle = np.array([project_reference(p, eo, sc) for p in points])
            np.testing.assert_allclose(batch, oracle, rtol=1e-12, atol=1e-10)

    def test_positive_k1_pushes_points_outward(self):
        eo = ExteriorOrientation(center=np.zeros(3), rotation=np.zeros(3))
        plain = SelfCalibration(focal_length=1000.0, cx=0.0, cy=0.0, k1=0.0, k2=0.0)
        barrel = SelfCalibration(focal_length=1000.0, cx=0.0, cy=0.0, k1=0.1, k2=0.0)
        point = np.array([0.2, 0.1, 1.0])
        r_plain = np.linalg.norm(project_points(point, eo, plain)[0])
        r_barrel = np.linalg.norm(project_points(point, eo, barrel)[0])
        assert r_barrel > r_plain

    def test_behind_camera_rejected(self):
        eo = ExteriorOrientation(center=np.zeros(3), rotation=np.zeros(3))
        sc = SelfCalibration(focal_length=1000.0, cx=0.0, cy=0.0, k1=0.0, k2=0.0)
        for z in (-1.0, 0.0):
            with pytest.raises(ValueError, match="behind"):
                project_points(np.array([[0.1, 0.2, z], [0.0, 0.0, 5.0]]), eo, sc)

    def test_project_point_matches_batch(self):
        rng = np.random.default_rng(7)
        eo, sc, points = random_setup(rng, n_points=5)
        batch = project_points(points, eo, sc)
        for i, point in enumerate(points):
            # Single-row matmuls may take a different BLAS path, so agreement
            # is to rounding, not bit-exact.
            np.testing.assert_allclose(project_points(point, eo, sc)[0], batch[i], rtol=1e-12)

    def test_rotation_magnitude_validated(self):
        axis = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="magnitude"):
            ExteriorOrientation(center=np.zeros(3), rotation=axis * np.pi)
        ExteriorOrientation(center=np.zeros(3), rotation=axis * (np.pi - 1e-6))

    def test_calibration_validated(self):
        for bad_f in (0.0, -10.0, np.nan):
            with pytest.raises(ValueError):
                SelfCalibration(focal_length=bad_f, cx=0.0, cy=0.0, k1=0.0, k2=0.0)
        with pytest.raises(ValueError):
            SelfCalibration(focal_length=100.0, cx=np.inf, cy=0.0, k1=0.0, k2=0.0)

    def test_calibration_array_round_trip(self):
        sc = SelfCalibration(focal_length=875.5, cx=3.25, cy=-1.5, k1=0.125, k2=-0.0625)
        again = SelfCalibration.from_array(sc.as_array())
        assert again == sc

    def test_observation_validated(self):
        with pytest.raises(ValueError, match="finite"):
            ImageObservation(camera_id=0, track_id=0, x=np.nan, y=0.0)
        with pytest.raises(ValueError, match="weight"):
            ImageObservation(camera_id=0, track_id=0, x=0.0, y=0.0, weight=0.0)

    def test_object_point_validated(self):
        with pytest.raises(ValueError, match="finite"):
            ObjectPoint(position=np.array([0.0, np.inf, 0.0]), track_id=3)

    def test_perturbed_applies_local_rotation_on_the_right(self):
        rng = np.random.default_rng(21)
        eo = ExteriorOrientation(
            center=rng.normal(0.0, 2.0, 3),
            rotation=Rotation.random(random_state=rng).as_rotvec() * 0.4,
        )
        delta_rot = rng.normal(0.0, 0.01, 3)
        delta_center = rng.normal(0.0, 0.5, 3)
        moved = eo.perturbed(delta_rot, delta_center)
        np.testing.assert_allclose(
            moved.matrix, eo.matrix @ rodrigues_matrix(delta_rot), atol=1e-12
        )
        np.testing.assert_allclose(moved.center, eo.center + delta_center, atol=1e-15)

    def test_perturbed_zero_is_identity(self):
        eo = ExteriorOrientation(center=np.array([1.0, 2.0, 3.0]), rotation=np.array([0.1, 0.0, 0.2]))
        moved = eo.perturbed(np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(moved.matrix, eo.matrix, atol=1e-15)
        np.testing.assert_array_equal(moved.center, eo.center)


class TestJacobians:
    REL_TOL = 1e-6
    STEP = 1e-6

    @staticmethod
    def _fd_check(analytic, plus_fn, step):
        """Worst relative error of `analytic` against central differences."""
        worst = 0.0
        for j in range(analytic.shape[2]):
            fd = (plus_fn(j, step) - plus_fn(j, -step)) / (2.0 * step)
            column = analytic[:, :, j]
            denom = np.maximum(np.maximum(np.abs(column), np.abs(fd)), 1.0)
            worst = max(worst, float(np.abs((fd - column) / denom).max()))
        return worst

    def test_point_jacobian_matches_finite_differences(self):
        for seed in range(3):
            rng = np.random.default_rng(300 + seed)
            eo, sc, points = random_setup(rng)
            _, d_point, _, _ = projection_jacobians(points, eo, sc)
            worst = self._fd_check(
                d_point,
                lambda j, e: project_points(points + e * np.eye(3)[j], eo, sc),
                self.STEP,
            )
            assert worst < self.REL_TOL

    def test_pose_jacobian_matches_finite_differences(self):
        for seed in range(3):
            rng = np.random.default_rng(400 + seed)
            eo, sc, points = random_setup(rng)
            _, _, d_pose, _ = projection_jacobians(points, eo, sc)

            def plus(j, e):
                delta = np.zeros(6)
                delta[j] = e
                return project_points(points, eo.perturbed(delta[:3], delta[3:]), sc)

            assert self._fd_check(d_pose, plus, self.STEP) < self.REL_TOL

    def test_calibration_jacobian_matches_finite_differences(self):
        for seed in range(3):
            rng = np.random.default_rng(500 + seed)
            eo, sc, points = random_setup(rng)
            _, _, _, d_cal = projection_jacobians(points, eo, sc)

            def plus(j, e):
                values = sc.as_array()
                values[j] += e
                return project_points(points, eo, SelfCalibration.from_array(values))

            assert self._fd_check(d_cal, plus, self.STEP) < self.REL_TOL

    def test_jacobian_pixels_match_projection(self):
        rng = np.random.default_rng(33)
        eo, sc, points = random_setup(rng)
        pixels, _, _, _ = projection_jacobians(points, eo, sc)
        np.testing.assert_allclose(pixels, project_points(points, eo, sc), rtol=1e-12)

    def test_on_axis_point_jacobian_closed_form(self):
        # Identity pose, point on the optical axis: the point block is
        # diag(f/z, f/z) with a zero depth column, distortion inactive at r = 0.
        eo = ExteriorOrientation(center=np.zeros(3), rotation=np.zeros(3))
        sc = SelfCalibration(focal_length=1250.0, cx=10.0, cy=20.0, k1=0.2, k2=0.1)
        z = 4.0
        _, d_point, d_pose, _ = projection_jacobians(np.array([[0.0, 0.0, z]]), eo, sc)
        expected = np.array([[1250.0 / z, 0.0, 0.0], [0.0, 1250.0 / z, 0.0]])
        np.testing.assert_allclose(d_point[0], expected, atol=1e-12)
        np.testing.assert_allclose(d_pose[0, :, 3:], -expected, atol=1e-12)

    def test_center_columns_negate_point_block(self):
        rng = np.random.default_rng(44)
        eo, sc, points = random_setup(rng)
        _, d_point, d_pose, _ = projection_jacobians(points, eo, sc)
        np.testing.assert_array_equal(d_pose[:, :, 3:], -d_point)

    def test_behind_camera_rejected(self):
        eo = ExteriorOrientation(center=np.zeros(3), rotation=np.zeros(3))
        sc = SelfCalibration(focal_length=1000.0, cx=0.0, cy=0.0, k1=0.0, k2=0.0)
        with pytest.raises(ValueError, match="behind"):
            projection_jacobians(np.array([[0.0, 0.0, -2.0]]), eo, sc)


class TestGroupedKernel:
    """The camera-grouped kernel against the row-wise reference formula."""

    @staticmethod
    def _groups():
        """Four cameras, three calibrations, groups of 6, 1, 4 and 3 rows.

        Camera 0 sees one point twice, camera 1 has a single observation,
        camera 2 has a row behind it, and camera 3 (identity pose) a row
        exactly on its camera plane."""
        rng = np.random.default_rng(71)
        cameras, rows = [], []
        for n in (5, 1, 4):
            eo, sc, points = random_setup(rng, n_points=n)
            cameras.append((eo, sc))
            rows.append(points)
        rows[0] = np.vstack([rows[0], rows[0][2]])
        eo, _ = cameras[2]
        rows[2][1] = eo.matrix.T @ np.array([0.1, -0.2, -3.0]) + eo.center
        identity = ExteriorOrientation(center=np.zeros(3), rotation=np.zeros(3))
        cameras.append((identity, cameras[0][1]))
        rows.append(np.array([[0.2, 0.1, 5.0], [1.0, 1.0, 0.0], [-0.3, 0.4, 2.0]]))
        return cameras, rows

    def test_matches_row_wise_reference(self):
        cameras, rows = self._groups()
        assert len({sc for _, sc in cameras}) == 3
        width = max(len(r) for r in rows)
        # Padding repeats a group's first row, as the adjustment pads.
        points = np.stack(
            [np.vstack([r, np.repeat(r[:1], width - len(r), axis=0)]).T for r in rows]
        )
        proj = _projection(
            points,
            np.stack([eo.matrix for eo, _ in cameras]),
            np.stack([eo.center for eo, _ in cameras]),
            np.stack([sc.as_array() for _, sc in cameras]),
            jacobians=True,
        )
        assert proj.pixels.shape == (4, 2, width) and proj.depth.shape == (4, width)
        assert proj.jac.shape == (4, 9, 2, width)

        group = np.repeat(np.arange(4), [len(r) for r in rows])
        slot = np.concatenate([np.arange(len(r)) for r in rows])
        pixels, depth, d_point, d_pose, d_cal = project_rows(
            np.vstack(rows),
            np.stack([cameras[i][0].matrix for i in group]),
            np.stack([cameras[i][0].center for i in group]),
            np.stack([cameras[i][1].as_array() for i in group]),
            jacobians=True,
        )
        got_depth = proj.depth[group, slot]
        np.testing.assert_allclose(got_depth, depth, rtol=1e-12, atol=1e-12)
        assert (got_depth < 0).sum() == 1 and (got_depth == 0).sum() == 1
        # The row on the camera plane has no finite projection to compare.
        keep = depth != 0
        jac = proj.jac[group, :, :, slot].transpose(0, 2, 1)[keep]  # (n, 2, 9)
        blocks = {
            "pixels": (proj.pixels[group, :, slot][keep], pixels[keep]),
            "d_point": (-jac[:, :, 3:6], d_point[keep]),
            "d_pose": (jac[:, :, :6], d_pose[keep]),
            "d_cal f, k1, k2": (jac[:, :, 6:], d_cal[keep][:, :, [0, 3, 4]]),
        }
        for name, (got, want) in blocks.items():
            assert np.isfinite(got).all(), name
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        # cx and cy have unit slope on their own axis, as the kernel leaves implicit.
        np.testing.assert_array_equal(d_cal[:, :, 1:3], np.broadcast_to(np.eye(2), (len(depth), 2, 2)))

    def test_no_points(self):
        eo, sc, _ = random_setup(np.random.default_rng(90), n_points=1)
        assert project_points(np.empty((0, 3)), eo, sc).shape == (0, 2)
        shapes = [block.shape for block in projection_jacobians(np.empty((0, 3)), eo, sc)]
        assert shapes == [(0, 2), (0, 2, 3), (0, 2, 6), (0, 2, 5)]

    def test_one_group_calls_match_reference(self):
        for seed in range(3):
            eo, sc, points = random_setup(np.random.default_rng(800 + seed))
            pixels, _, *jacobians = project_rows(
                points, eo.matrix, eo.center, sc.as_array(), jacobians=True
            )
            got = (project_points(points, eo, sc),) + projection_jacobians(points, eo, sc)
            for block, want in zip(got, [pixels, pixels] + jacobians):
                assert block.shape == want.shape
                assert np.linalg.norm(block - want) <= 1e-12 * np.linalg.norm(want)


class TestComputeResiduals:
    @staticmethod
    def _scene(rng, n_cameras=3, n_points=60):
        calibrations = {}
        cameras = {}
        for cam_id in range(n_cameras):
            eo, sc, _ = random_setup(rng, n_points=1)
            cameras[cam_id] = eo
            calibrations[cam_id] = sc
        points = {}
        observations = []
        for track in range(n_points):
            cam_id = int(rng.integers(n_cameras))
            eo = cameras[cam_id]
            cam_pt = np.array(
                [rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(5.0, 30.0)]
            )
            position = eo.matrix.T @ cam_pt + eo.center
            points[track] = ObjectPoint(position=position, track_id=track)
            x, y = project_points(position, eo, calibrations[cam_id])[0]
            observations.append(ImageObservation(camera_id=cam_id, track_id=track, x=x, y=y))
        return observations, cameras, calibrations, points

    def test_exact_observations_give_zero(self):
        rng = np.random.default_rng(60)
        observations, cameras, calibrations, points = self._scene(rng)
        residuals, rms = compute_residuals(observations, cameras, calibrations, points)
        assert residuals.shape == (2 * len(observations),)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-9)
        assert rms < 1e-9

    def test_single_perturbation_rms(self):
        rng = np.random.default_rng(61)
        observations, cameras, calibrations, points = self._scene(rng)
        m = len(observations)
        bumped = observations[5]
        observations[5] = ImageObservation(
            camera_id=bumped.camera_id, track_id=bumped.track_id, x=bumped.x + 3.0, y=bumped.y - 4.0
        )
        residuals, rms = compute_residuals(observations, cameras, calibrations, points)
        np.testing.assert_allclose(residuals[10:12], [3.0, -4.0], atol=1e-9)
        np.testing.assert_allclose(rms, 5.0 / np.sqrt(2.0 * m), rtol=1e-9)

    def test_residual_order_follows_observations(self):
        rng = np.random.default_rng(62)
        observations, cameras, calibrations, points = self._scene(rng, n_points=20)
        noisy = [
            ImageObservation(
                camera_id=obs.camera_id,
                track_id=obs.track_id,
                x=obs.x + rng.normal(),
                y=obs.y + rng.normal(),
            )
            for obs in observations
        ]
        rng.shuffle(noisy)
        residuals, _ = compute_residuals(noisy, cameras, calibrations, points)
        for i, obs in enumerate(noisy):
            projected = project_points(
                points[obs.track_id].position, cameras[obs.camera_id], calibrations[obs.camera_id]
            )[0]
            np.testing.assert_allclose(
                residuals[2 * i : 2 * i + 2], [obs.x - projected[0], obs.y - projected[1]], atol=1e-9
            )

    def test_noise_rms_matches_sigma(self):
        rng = np.random.default_rng(63)
        sigma = 0.5
        observations, cameras, calibrations, points = self._scene(rng, n_points=2000)
        noisy = [
            ImageObservation(
                camera_id=obs.camera_id,
                track_id=obs.track_id,
                x=obs.x + rng.normal(0.0, sigma),
                y=obs.y + rng.normal(0.0, sigma),
            )
            for obs in observations
        ]
        _, rms = compute_residuals(noisy, cameras, calibrations, points)
        assert abs(rms - sigma) < 0.1 * sigma

    def test_unknown_camera_raises(self):
        rng = np.random.default_rng(64)
        observations, cameras, calibrations, points = self._scene(rng, n_points=5)
        observations.append(ImageObservation(camera_id=99, track_id=0, x=0.0, y=0.0))
        with pytest.raises(ValueError, match="camera 99"):
            compute_residuals(observations, cameras, calibrations, points)

    def test_unknown_track_raises(self):
        rng = np.random.default_rng(65)
        observations, cameras, calibrations, points = self._scene(rng, n_points=5)
        observations.append(ImageObservation(camera_id=0, track_id=777, x=0.0, y=0.0))
        with pytest.raises(ValueError, match="track 777"):
            compute_residuals(observations, cameras, calibrations, points)

    def test_points_may_be_plain_arrays(self):
        rng = np.random.default_rng(66)
        observations, cameras, calibrations, points = self._scene(rng, n_points=8)
        as_arrays = {track: point.position for track, point in points.items()}
        residuals, rms = compute_residuals(observations, cameras, calibrations, as_arrays)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-9)
        assert rms < 1e-9

    def test_empty_observations(self):
        residuals, rms = compute_residuals([], {}, {}, {})
        assert residuals.shape == (0,)
        assert rms == 0.0
