import numpy as np
import pytest

from cloudchange.geometry import (
    BoundingCube,
    ChangeLabel,
    PointCloud,
    RigidTransform,
    apply_transform,
    axis_bounds,
    bounding_box,
    bounding_cube,
)


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestPointCloud:
    def test_immutable(self):
        cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            cloud.xyz[0, 0] = 5.0
        with pytest.raises(AttributeError):
            cloud.xyz = np.zeros((2, 3))

    def test_attribute_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud([[0.0, 0.0, 0.0]], labels=[1, 0])
        with pytest.raises(ValueError):
            PointCloud([[0.0, 0.0, 0.0]], colors=[[1, 2, 3], [4, 5, 6]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud([[0.0, np.nan, 0.0]])

    def test_select_carries_attributes(self):
        cloud = PointCloud(
            np.arange(12, dtype=float).reshape(4, 3),
            colors=np.arange(12, dtype=np.uint8).reshape(4, 3),
            labels=[0, 1, 0, 1],
            epochs=[0, 0, 1, 1],
        )
        sub = cloud.select([1, 3])
        np.testing.assert_array_equal(sub.xyz, cloud.xyz[[1, 3]])
        np.testing.assert_array_equal(sub.labels, [1, 1])
        np.testing.assert_array_equal(sub.epochs, [0, 1])
        np.testing.assert_array_equal(sub.colors, cloud.colors[[1, 3]])

    def test_change_label_values(self):
        assert ChangeLabel.UNCHANGED == 0
        assert ChangeLabel.CHANGED == 1
        assert ChangeLabel.UNKNOWN == 2


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(flip, np.zeros(3))

    def test_quarter_turn_example(self):
        # 90 degrees about z plus a unit x shift: (1, 0, 0) -> (1, 1, 0).
        t = RigidTransform(rotation_z(np.pi / 2.0), np.array([1.0, 0.0, 0.0]))
        moved = t.apply([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(moved, [[1.0, 1.0, 0.0]], atol=1e-15)


class TestApplyTransform:
    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.uniform(-50.0, 50.0, (300, 3)))
        angle = rng.uniform(0, np.pi)
        t = RigidTransform(rotation_z(angle), rng.normal(scale=100.0, size=3))
        moved = apply_transform(cloud, t)
        i = rng.integers(0, 300, 500)
        j = rng.integers(0, 300, 500)
        before = np.linalg.norm(cloud.xyz[i] - cloud.xyz[j], axis=1)
        after = np.linalg.norm(moved.xyz[i] - moved.xyz[j], axis=1)
        np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-12)

    def test_keeps_attributes(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]], labels=[1], colors=[[9, 8, 7]])
        moved = apply_transform(cloud, RigidTransform.identity())
        np.testing.assert_array_equal(moved.labels, [1])
        np.testing.assert_array_equal(moved.colors, [[9, 8, 7]])


class TestBoundingCube:
    def test_single_point_with_padding(self):
        cube = bounding_cube(PointCloud([[2.0, 3.0, 4.0]]), padding=0.5)
        assert cube.edge == pytest.approx(1.0)
        np.testing.assert_allclose(cube.center, [2.0, 3.0, 4.0])

    def test_unit_cube_corners(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        cube = bounding_cube(PointCloud(corners))
        assert cube.edge == pytest.approx(1.0)
        np.testing.assert_allclose(cube.min_corner, [0.0, 0.0, 0.0])

    def test_contains_all_points(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = rng.normal(scale=rng.uniform(0.1, 20.0), size=(200, 3))
            pad = rng.uniform(0.0, 2.0)
            cube = bounding_cube(PointCloud(pts), padding=pad)
            assert cube.contains(pts).all()
            assert cube.edge >= (pts.max(0) - pts.min(0)).max()

    def test_degenerate_cloud_rejected(self):
        with pytest.raises(ValueError):
            bounding_cube(PointCloud([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]))

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            bounding_cube(PointCloud(np.empty((0, 3))))

    def test_several_clouds_match_stacked_cloud(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            clouds = [
                PointCloud(rng.normal(rng.uniform(-50.0, 50.0, 3), rng.uniform(0.1, 20.0), (n, 3)))
                for n in rng.integers(1, 300, rng.integers(1, 5))
            ]
            if trial % 2:
                # The last cloud's first point alone sets the largest extent,
                # so it lies on the cube's max face (to rounding).
                xyz = np.vstack([c.xyz for c in clouds])
                axis = int(np.argmax(xyz.max(axis=0) - xyz.min(axis=0)))
                top = clouds[-1].xyz.copy()
                top[0, axis] = xyz[:, axis].max() + 1.0
                clouds[-1] = PointCloud(top)
            stacked = PointCloud(np.vstack([c.xyz for c in clouds]))
            lo, hi = bounding_box(*clouds)
            np.testing.assert_array_equal(lo, stacked.xyz.min(axis=0))
            np.testing.assert_array_equal(hi, stacked.xyz.max(axis=0))
            for pad in (0.0, 0.25):
                cube = bounding_cube(*clouds, padding=pad)
                expected = bounding_cube(stacked, padding=pad)
                np.testing.assert_array_equal(cube.min_corner, expected.min_corner)
                assert cube.edge == expected.edge
                assert cube.contains(stacked.xyz).all()

    def test_empty_clouds_skipped(self):
        pts = PointCloud([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        empty = PointCloud(np.empty((0, 3)))
        cube = bounding_cube(empty, pts, empty)
        assert cube.edge == bounding_cube(pts).edge
        with pytest.raises(ValueError, match="empty"):
            bounding_cube(empty, empty)
        with pytest.raises(ValueError, match="empty"):
            bounding_cube()


def column_bounds(xyz):
    """Each axis's minimum and maximum, one column reduction each."""
    return (
        np.array([xyz[:, k].min() for k in range(3)]),
        np.array([xyz[:, k].max() for k in range(3)]),
    )


class TestAxisBounds:
    """Lines of 256 rows reduced in one contiguous pass, then folded with
    the leftover rows, give each axis's minimum and maximum bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 511, 512, 513, 767, 768, 769, 5389])
    def test_matches_column_reductions(self, n):
        rng = np.random.default_rng(n)
        xyz = rng.normal(rng.uniform(-1e3, 1e3, 3), rng.uniform(0.1, 50.0, 3), (n, 3))
        full = n - n % 256
        # The extremes in turn at the first row, at either side of the edge
        # between the lines and the leftover rows, and at the last row.
        for row in sorted({0, full - 1, full, n - 1} & set(range(n))):
            trial = xyz.copy()
            trial[row] = [-1e6, 1e6, -1e6]
            trial[(row + 1) % n, 2] = 1e6
            lo, hi = axis_bounds(trial)
            want_lo, want_hi = column_bounds(trial)
            assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()

    @pytest.mark.parametrize("n", [255, 256, 257, 1000])
    def test_signed_zero_and_subnormals(self, n):
        rng = np.random.default_rng(n)
        tiny = np.nextafter(0.0, 1.0)
        xyz = np.empty((n, 3))
        # x: positive subnormals above a single -0.0; y: negative subnormals
        # below a single -0.0; z: subnormals of both signs.
        xyz[:, 0] = tiny * rng.integers(1, 1 << 40, n)
        xyz[:, 1] = -tiny * rng.integers(1, 1 << 40, n)
        xyz[:, 2] = tiny * rng.integers(-(1 << 40), 1 << 40, n)
        xyz[rng.integers(n), 0] = -0.0
        xyz[rng.integers(n), 1] = -0.0
        lo, hi = axis_bounds(xyz)
        want_lo, want_hi = column_bounds(xyz)
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()
        assert np.signbit(lo[0]) and np.signbit(hi[1])
        assert 0 < hi[0] < np.finfo(np.float64).tiny
        # Ties of -0.0 with 0.0 are equal values, whichever sign is kept.
        zeros = np.zeros((n, 3))
        zeros[rng.integers(n, size=n // 2)] = -0.0
        lo, hi = axis_bounds(zeros)
        assert (lo == 0.0).all() and (hi == 0.0).all()

    def test_unequal_clouds_match_stacked(self):
        rng = np.random.default_rng(12)
        for lengths in [(1, 255, 256, 257), (513, 2), (767, 769, 1)]:
            clouds = [PointCloud(rng.uniform(-10.0, 10.0, (n, 3)) * rng.uniform(0.5, 3.0)) for n in lengths]
            lo, hi = bounding_box(*clouds)
            want_lo, want_hi = column_bounds(np.vstack([cloud.xyz for cloud in clouds]))
            assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()

    def test_non_contiguous_and_empty(self):
        wide = np.random.default_rng(13).normal(size=(1030, 6))
        view = wide[::2, ::2]
        lo, hi = axis_bounds(view)
        want_lo, want_hi = column_bounds(view)
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()
        with pytest.raises(ValueError, match="empty"):
            axis_bounds(np.empty((0, 3)))
