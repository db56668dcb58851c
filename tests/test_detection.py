"""Tests for coarse-to-fine change detection."""
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from cloudchange import detection
from cloudchange.detection import (
    DEFAULT_THRESHOLD,
    ChangeParams,
    DetectionStats,
    Lattice,
    component_filter,
    hierarchical_detect,
)
from cloudchange.geometry import BoundingCube, PointCloud, bounding_cube
from cloudchange.neighbors import kdtree
from cloudchange.octree import cell_bounds, decode_cell, morton_codes
from detection_reference import (
    contains,
    dense_component_filter,
    density_feature,
    feature_distance,
)
from scenes import hollow_box, removal_scene


class TestDensityFeature:
    def test_one_point_per_octant(self):
        cube = BoundingCube(np.zeros(3), 1.0)
        centers = np.array(
            [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.float64
        ) * 0.5 + 0.25
        feat = density_feature(cube, PointCloud(centers), 2)
        assert feat.subvoxels_per_axis == 2
        np.testing.assert_allclose(feat.densities, 8.0)

    def test_single_cell_is_plain_density(self):
        cube = BoundingCube(np.zeros(3), 2.0)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 2.0, (40, 3))
        feat = density_feature(cube, pts, 1)
        assert feat.densities.shape == (1,)
        assert feat.densities[0] == pytest.approx(40 / 8.0)

    def test_outside_points_ignored(self):
        cube = BoundingCube(np.zeros(3), 1.0)
        pts = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [-0.1, 0.5, 0.5]])
        feat = density_feature(cube, pts, 1)
        assert feat.densities[0] == pytest.approx(1.0)

    def test_max_corner_point_lands_in_last_subvoxel(self):
        cube = BoundingCube(np.zeros(3), 1.0)
        feat = density_feature(cube, np.array([[1.0, 1.0, 1.0]]), 2)
        assert feat.densities[-1] == pytest.approx(8.0)
        assert feat.densities[:-1].sum() == 0.0

    def test_matches_direct_binning(self):
        rng = np.random.default_rng(7)
        cube = BoundingCube(np.array([-1.0, 2.0, 0.5]), 3.0)
        pts = cube.min_corner + rng.uniform(0.0, 1.0, (500, 3)) * cube.edge
        m = 3
        feat = density_feature(cube, pts, m)
        idx = np.floor((pts - cube.min_corner) / (cube.edge / m)).astype(int)
        idx = np.clip(idx, 0, m - 1)
        counts = np.zeros(m**3)
        for i, j, k in idx:
            counts[(i * m + j) * m + k] += 1
        np.testing.assert_allclose(feat.densities, counts / (cube.edge / m) ** 3)

    def test_distance_normalization(self):
        cube = BoundingCube(np.zeros(3), 1.0)
        centers = np.array(
            [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.float64
        ) * 0.5 + 0.25
        full = density_feature(cube, centers, 2)
        half = density_feature(cube, centers[:4], 2)
        # Four octants emptied, each contributing 8^2.
        assert feature_distance(full, half) == pytest.approx(4 * 64 / 8)
        assert feature_distance(full, half, normalized=False) == pytest.approx(4 * 64)
        assert feature_distance(full, full) == 0.0

    def test_mismatched_m_rejected(self):
        cube = BoundingCube(np.zeros(3), 1.0)
        pts = np.array([[0.5, 0.5, 0.5]])
        with pytest.raises(ValueError, match="feature sizes differ"):
            feature_distance(density_feature(cube, pts, 2), density_feature(cube, pts, 3))

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError, match="m must be"):
            density_feature(BoundingCube(np.zeros(3), 1.0), np.zeros((1, 3)), 0)


class TestChangeParams:
    def test_defaults_valid(self):
        params = ChangeParams()
        assert params.start_depth == 7
        assert params.max_depth == 11
        assert params.threshold_at(7) == DEFAULT_THRESHOLD
        assert params.threshold_at(11) == DEFAULT_THRESHOLD

    def test_per_depth_thresholds(self):
        params = ChangeParams(start_depth=3, max_depth=5, thresholds=[10.0, 20.0, 30.0])
        assert params.threshold_at(3) == 10.0
        assert params.threshold_at(4) == 20.0
        assert params.threshold_at(5) == 30.0

    def test_depth_order_rejected(self):
        with pytest.raises(ValueError, match="start_depth"):
            ChangeParams(start_depth=8, max_depth=7)

    def test_excessive_depth_rejected(self):
        # The octants of a depth-20 cell use the last 3 of the 63 code bits.
        for max_depth in (21, 22):
            with pytest.raises(ValueError, match="max_depth <= 20"):
                ChangeParams(max_depth=max_depth)

    def test_threshold_count_rejected(self):
        with pytest.raises(ValueError, match="thresholds"):
            ChangeParams(start_depth=3, max_depth=5, thresholds=[1.0, 2.0])

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="thresholds"):
            ChangeParams(thresholds=0.0)

    @pytest.mark.parametrize("taus", [float("nan"), float("inf"), [1.0, float("nan"), 2.0, 3.0, 4.0]])
    def test_non_finite_threshold_rejected(self, taus):
        with pytest.raises(ValueError, match="thresholds must be finite"):
            ChangeParams(thresholds=taus)

    def test_component_params_rejected(self):
        with pytest.raises(ValueError, match="component_radius"):
            ChangeParams(component_radius=-1.0)
        for radius in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="component_radius must be finite"):
                ChangeParams(component_radius=radius)
        with pytest.raises(ValueError, match="component_min_size"):
            ChangeParams(component_min_size=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("component_min_size", 2.5),
            ("component_min_size", True),
            ("start_depth", 3.0),
            ("start_depth", True),
            ("max_depth", 5.0),
        ],
    )
    def test_counts_must_be_integers(self, name, value):
        # A float depth passed the order check and then failed in the walk's
        # range(); a bool counted as 0 or 1.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ChangeParams(**{"start_depth": 3, "max_depth": 5, name: value})
        assert ChangeParams(start_depth=np.int64(3), max_depth=np.int64(5)).max_depth == 5


def brute_force_components(points, radius, min_size):
    """Union-find single linkage at `radius`, labelled as the library
    labels its clusters. Each of these clusters lies inside one cluster of
    the library's grid rule."""
    n = len(points)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(points[i] - points[j]) <= radius:
                parent[find(i)] = find(j)
    roots = np.array([find(i) for i in range(n)])
    sizes = {r: int((roots == r).sum()) for r in set(roots)}
    kept = np.array([i for i in range(n) if sizes[roots[i]] >= min_size], dtype=np.int64)
    if not len(kept):
        return kept, np.empty(0, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((points[:, 2], points[:, 1], points[:, 0]))] = np.arange(n)
    first = {}
    for i in kept:
        r = roots[i]
        if r not in first or rank[i] < first[r]:
            first[r] = rank[i]
    order = {r: pos for pos, (r, _) in enumerate(sorted(first.items(), key=lambda kv: kv[1]))}
    return kept, np.array([order[roots[i]] for i in kept], dtype=np.int64)


def lattice_clusters(rng):
    """Tie-heavy input on the integer lattice (radius 1 links face
    neighbours): random subsets of 3x3x3 blocks whose least x is 0 or 1, so
    that many clusters share their least x and most hold several points at
    it; a fifth of the points duplicated; shuffled."""
    cells = np.argwhere(np.ones((3, 3, 3), dtype=bool))
    blocks = []
    for i in range(12):
        origin = np.array([rng.integers(0, 2), 6 * (i % 4), 6 * (i // 4)])
        blocks.append(origin + cells[rng.random(len(cells)) < 0.6])
    pts = np.vstack(blocks).astype(np.float64)
    pts = np.vstack([pts, pts[rng.random(len(pts)) < 0.2]])
    return pts[rng.permutation(len(pts))]


def assert_contains_single_linkage(pts, radius, min_size, kept, labels):
    """Every point single linkage keeps is kept, and none of its clusters
    is split."""
    kept_bf, labels_bf = brute_force_components(pts, radius, min_size)
    assert np.isin(kept_bf, kept).all()
    label_of = dict(zip(kept.tolist(), labels.tolist()))
    for cluster in np.unique(labels_bf):
        assert len({label_of[i] for i in kept_bf[labels_bf == cluster].tolist()}) == 1


class TestComponentFilter:
    def test_matches_brute_force(self):
        # Gaussian blobs, then uniform points spaced near the radius, where
        # the grid rule links more than single linkage does: it may merge
        # single-linkage clusters but never split one.
        rng = np.random.default_rng(11)
        for trial in range(9):
            if trial < 5:
                centers = rng.uniform(0.0, 10.0, (4, 3))
                pts = np.vstack([c + rng.normal(0.0, 0.2, (rng.integers(3, 40), 3)) for c in centers])
                radius = float(rng.uniform(0.3, 1.5))
            else:
                pts = rng.uniform(0.0, 4.0, (150, 3))
                radius = float(rng.uniform(0.3, 0.8))
            min_size = int(rng.integers(1, 10))
            kept, labels = component_filter(pts, radius, min_size)
            expected = dense_component_filter(pts, radius, min_size)
            np.testing.assert_array_equal(kept, expected[0])
            np.testing.assert_array_equal(labels, expected[1])
            assert_contains_single_linkage(pts, radius, min_size, kept, labels)

    def test_links_span_at_most_two_sqrt3_radius(self):
        # Two points are one cluster when within the radius and never when
        # more than 2 * sqrt(3) * radius apart, whatever the grid's anchor.
        rng = np.random.default_rng(17)
        radius = 0.25
        limit = 2.0 * np.sqrt(3.0) * radius
        directions = rng.normal(size=(400, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        directions[:8] = np.array(list(itertools.product((-1.0, 1.0), repeat=3))) / np.sqrt(3.0)
        for direction in directions:
            start = rng.uniform(-5.0, 5.0, 3)
            near = np.vstack([start, start + direction * rng.uniform(0.0, radius)])
            assert len(component_filter(near, radius, 2)[0]) == 2
            far = np.vstack([start, start + direction * limit * (1.0 + 1e-9) * rng.uniform(1.0, 1.5)])
            assert len(component_filter(far, radius, 2)[0]) == 0
        # Cells that touch only at a corner are linked, so the bound is
        # approached.
        corner = np.array([[0.0, 0.0, 0.0], [2 * radius - 1e-9] * 3])
        assert np.linalg.norm(corner[1] - corner[0]) > 0.99 * limit
        assert len(component_filter(corner, radius, 2)[0]) == 2

    def test_small_cluster_dropped(self):
        rng = np.random.default_rng(12)
        pts = np.vstack(
            [rng.normal(0.0, 0.1, (100, 3)), rng.normal(10.0, 0.1, (10, 3))]
        )
        kept, labels = component_filter(pts, radius=1.0, min_size=50)
        assert (kept < 100).all() and len(kept) == 100
        assert (labels == 0).all()
        kept, labels = component_filter(pts, radius=1.0, min_size=5)
        assert len(kept) == 110
        assert set(labels[kept < 100]) == {0} and set(labels[kept >= 100]) == {1}

    def test_order_invariant(self):
        rng = np.random.default_rng(13)
        pts = np.vstack([rng.normal(0.0, 0.3, (60, 3)), rng.normal(5.0, 0.3, (60, 3))])
        kept, labels = component_filter(pts, 1.0, 10)
        perm = rng.permutation(len(pts))
        kept_p, labels_p = component_filter(pts[perm], 1.0, 10)
        back = {int(perm[i]): int(labels_p[pos]) for pos, i in enumerate(kept_p)}
        assert sorted(back) == sorted(int(i) for i in kept)
        assert all(back[int(i)] == int(l) for i, l in zip(kept, labels))

    def test_zero_radius_gives_singletons(self):
        pts = np.arange(12, dtype=np.float64).reshape(4, 3)
        kept, labels = component_filter(pts, 0.0, 1)
        assert len(kept) == 4
        kept, _ = component_filter(pts, 0.0, 2)
        assert len(kept) == 0

    def test_zero_radius_links_coincident_points(self):
        rng = np.random.default_rng(18)
        pts = rng.integers(0, 3, (60, 3)).astype(np.float64)
        pts[0] = [-0.0, 0.0, 0.0]
        for min_size in (1, 2, 3):
            kept, labels = component_filter(pts, 0.0, min_size)
            expected = dense_component_filter(pts, 0.0, min_size)
            np.testing.assert_array_equal(kept, expected[0])
            np.testing.assert_array_equal(labels, expected[1])
            for label in np.unique(labels):
                assert len(np.unique(pts[kept[labels == label]], axis=0)) == 1

    def test_empty_input(self):
        kept, labels = component_filter(np.empty((0, 3)), 1.0, 1)
        assert len(kept) == 0 and len(labels) == 0

    def test_lattice_ties_match_oracles(self):
        rng = np.random.default_rng(14)
        for trial in range(6):
            pts = lattice_clusters(rng)
            _, labels = dense_component_filter(pts, 1.0, 1)
            sizes = np.sort(np.bincount(labels))
            # min_size 1, then exactly some clusters' sizes: those clusters
            # are kept and any smaller one is dropped.
            for min_size in (1, int(sizes[len(sizes) // 2]), int(sizes[-1])):
                expected = dense_component_filter(pts, 1.0, min_size)
                kept, labels = component_filter(pts, 1.0, min_size)
                np.testing.assert_array_equal(kept, expected[0])
                np.testing.assert_array_equal(labels, expected[1])
                if trial < 2:
                    assert_contains_single_linkage(pts, 1.0, min_size, kept, labels)

    def test_smallest_point_found_among_tied_least_x(self):
        # Cluster A's first point at its least x is not its smallest point:
        # (0, 0, 0) < B's (0, 1, 10) < A's (0, 2, 0).
        pts = np.array(
            [[0.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 0.0],
             [0.0, 1.0, 10.0], [1.0, 1.0, 10.0], [0.0, 1.0, 10.0]]
        )
        kept, labels = component_filter(pts, 1.0, 1)
        np.testing.assert_array_equal(kept, np.arange(7))
        np.testing.assert_array_equal(labels, [0, 0, 0, 0, 1, 1, 1])
        expected = dense_component_filter(pts, 1.0, 1)
        np.testing.assert_array_equal(labels, expected[1])

    @pytest.mark.parametrize("case", ["lattice", "surface"])
    def test_scene_matches_dense_oracle(self, case):
        rng = np.random.default_rng(15)
        if case == "lattice":
            pts, radius, min_size = lattice_clusters(rng), 1.0, 3
        else:
            pts, radius, min_size = hollow_box(rng, w=2.0, l=1.5, h=1.0, density=100.0), 0.12, 5
        kept, labels = component_filter(pts, radius, min_size)
        expected = dense_component_filter(pts, radius, min_size)
        np.testing.assert_array_equal(kept, expected[0])
        np.testing.assert_array_equal(labels, expected[1])

    def test_wide_extent_does_not_alias(self):
        # 1e7 m at a radius of 1e-3 is 1e10 cells per axis, and 1e30 cells
        # do not pack into an int64 key. Each axis's occupied cells are
        # renumbered instead, so neighbouring cells stay linked and far
        # ones unlinked.
        rng = np.random.default_rng(19)
        radius = 1e-3
        anchors = rng.uniform(0.0, 1e7, (6, 3))
        anchors[1] = anchors[0] + [1.5e-3, -0.5e-3, 0.0]
        pts = np.vstack([a + rng.uniform(0.0, 2e-3, (5, 3)) for a in anchors])
        pts = np.vstack([pts, [[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]]])
        for min_size in (1, 5, 6):
            kept, labels = component_filter(pts, radius, min_size)
            expected = dense_component_filter(pts, radius, min_size)
            np.testing.assert_array_equal(kept, expected[0])
            np.testing.assert_array_equal(labels, expected[1])
            assert_contains_single_linkage(pts, radius, min_size, kept, labels)
        kept, _ = component_filter(np.array([[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]]), radius, 2)
        assert len(kept) == 0
        # Cells (0, 0, 0) and (2^20, 0, 1) of a 2^21 x (2^22 - 1)^2 grid:
        # packed with strides 2^44 and 2^22, the second key is 2^64 + 1,
        # which an int64 wraps onto the first cell's neighbour along z.
        aliased = np.array(
            [[0.5, 0.5, 0.5], [2.0 ** 20 + 0.5, 0.5, 1.5], [2.0 ** 21 - 0.5, 2.0 ** 22 - 1.5, 2.0 ** 22 - 1.5]]
        )
        assert len(component_filter(aliased, 1.0, 2)[0]) == 0
        with pytest.raises(ValueError, match="too small for the points' extent"):
            component_filter(np.array([[0.0, 0.0, 0.0], [1e7, 0.0, 0.0]]), 1e-12, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_points_rejected(self, bad):
        pts = np.zeros((5, 3))
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="points contains non-finite coordinates"):
            component_filter(pts, 1.0, 1)
        with pytest.raises(ValueError, match="points contains non-finite coordinates"):
            component_filter(pts, 0.0, 1)

    def test_bad_args_rejected(self):
        pts = np.zeros((2, 3))
        with pytest.raises(ValueError, match="radius"):
            component_filter(pts, -0.5, 1)
        for radius in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="radius must be finite and >= 0"):
                component_filter(pts, radius, 5)
        with pytest.raises(ValueError, match="min_size"):
            component_filter(pts, 1.0, 0)
        with pytest.raises(ValueError, match=r"points must have shape \(n, 3\)"):
            component_filter(np.zeros((2, 2)), 1.0, 1)


class TestHierarchicalDetect:
    def test_identical_clouds_unchanged(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            cloud = PointCloud(rng.uniform(-50.0, 50.0, (rng.integers(100, 3000), 3)))
            result = hierarchical_detect(cloud, cloud)
            assert result.n_voxels == 0
            assert len(result.changed_reference) == 0
            assert len(result.changed_other) == 0

    def test_removed_patch_found(self):
        rng = np.random.default_rng(22)
        ref, oth, removed = removal_scene(rng, density=400.0)
        params = ChangeParams(thresholds=1e4, component_min_size=1)
        result = hierarchical_detect(ref, oth, params)
        pred = np.zeros(len(ref), dtype=bool)
        pred[result.raw_changed_reference] = True
        tp = (pred & removed).sum()
        assert tp / max(pred.sum(), 1) > 0.99
        assert tp / removed.sum() > 0.99
        assert len(result.raw_changed_other) < 0.01 * len(oth)

    @pytest.mark.parametrize("radius", [None, 0.3])
    def test_one_kdtree_per_filtered_epoch(self, monkeypatch, radius):
        # Only the spacing sample of the automatic radius builds a kd-tree,
        # on all of an epoch's flagged points; the component filter builds
        # none.
        built = []

        def counting_kdtree(points):
            built.append(len(points))
            return kdtree(points)

        monkeypatch.setattr(detection, "kdtree", counting_kdtree)
        rng = np.random.default_rng(23)
        ref, oth, _ = removal_scene(rng, density=400.0)
        result = hierarchical_detect(ref, oth, ChangeParams(component_radius=radius))
        raw = [len(result.raw_changed_reference), len(result.raw_changed_other)]
        assert any(raw)
        assert built == ([n for n in raw if n] if radius is None else [])

    def test_default_params_on_removal_scene(self):
        rng = np.random.default_rng(23)
        ref, oth, removed = removal_scene(rng, density=400.0)
        result = hierarchical_detect(ref, oth)
        pred = np.zeros(len(ref), dtype=bool)
        pred[result.changed_reference] = True
        tp = (pred & removed).sum()
        assert tp / max(pred.sum(), 1) > 0.9
        assert tp / removed.sum() > 0.9

    def test_added_material_in_empty_space_found(self):
        rng = np.random.default_rng(24)
        corners = np.vstack(
            [rng.uniform(0.0, 2.0, (500, 3)), rng.uniform(18.0, 20.0, (500, 3))]
        )
        added = rng.uniform(12.6, 14.6, (300, 3))
        ref = PointCloud(corners)
        oth = PointCloud(np.vstack([corners, added]))
        # Empty-space cells are scored once at their own, coarse bounds, so
        # tau must sit below the added cluster's density diluted over a
        # coarse cell (300 points in a ~15 m^3 sub-voxel score about 46).
        params = ChangeParams(
            start_depth=6, max_depth=8, thresholds=0.1, component_min_size=10
        )
        result = hierarchical_detect(ref, oth, params)
        assert len(result.changed_reference) == 0
        flagged = np.zeros(len(oth), dtype=bool)
        flagged[result.changed_other] = True
        assert flagged[1000:].all()
        assert not flagged[:1000].any()

    def test_other_points_above_reference_box_flagged(self):
        # The lattice bounds both epochs, so a dense later-epoch block just
        # above the earlier epoch's bounding box is scored like any other
        # reference-empty space. A reference-only cube would drop it.
        rng = np.random.default_rng(25)
        base = rng.uniform(0.0, 10.0, (800, 3))
        block = rng.uniform([4.0, 4.0, 10.1], [6.0, 6.0, 10.6], (200, 3))
        other = PointCloud(np.vstack([base, block]))
        result = hierarchical_detect(
            PointCloud(base), other, ChangeParams(thresholds=10.0, component_min_size=1),
        )
        assert result.cube.contains(other.xyz).all()
        assert result.n_voxels > 0
        assert len(result.raw_changed_reference) == 0
        np.testing.assert_array_equal(result.raw_changed_other, np.arange(800, 1000))

    def test_reference_point_on_max_face_indexed(self):
        rng = np.random.default_rng(27)
        ref = rng.uniform(0.0, 3.0, (800, 3))
        # The 4 m x extent is the cube edge, so ref[1] lies on the max x face.
        ref[0, 0] = 0.0
        ref[1, 0] = 4.0
        reference = PointCloud(ref)
        other = PointCloud(np.delete(ref, 1, axis=0))
        lattice = Lattice((reference, other))
        cube = lattice.cube
        assert ref[1, 0] == cube.min_corner[0] + cube.edge
        codes = lattice.codes(reference, 12)
        assert len(codes) == len(ref)
        np.testing.assert_array_equal(codes, morton_codes(ref, cube, 12))
        # The max-face point sits in the last cell along x.
        assert decode_cell(codes[1:2], 12)[0, 0] == 2**12 - 1
        result = hierarchical_detect(
            reference, other, ChangeParams(thresholds=10.0, component_min_size=1), lattice=lattice
        )
        assert 1 in result.raw_changed_reference

    def test_coarse_start_contained_in_direct_start(self):
        rng = np.random.default_rng(26)
        ref, oth, _ = removal_scene(rng, density=400.0)
        coarse = ChangeParams(start_depth=5, max_depth=9, thresholds=1e4, component_min_size=1)
        direct = ChangeParams(start_depth=9, max_depth=9, thresholds=1e4, component_min_size=1)
        k_coarse = hierarchical_detect(ref, oth, coarse).voxel_codes
        k_direct = hierarchical_detect(ref, oth, direct).voxel_codes
        assert np.isin(k_coarse, k_direct).all()

    def test_monotone_pruning(self):
        rng = np.random.default_rng(27)
        for trial in range(2):
            ref, oth, _ = removal_scene(rng, density=float(rng.uniform(300, 900)))
            previous = None
            for tau in [1e3, 1e4, 1e5, 1e6, 1e8]:
                params = ChangeParams(
                    start_depth=5, max_depth=9, thresholds=tau, component_min_size=1
                )
                codes = set(hierarchical_detect(ref, oth, params).voxel_codes.tolist())
                if previous is not None:
                    assert codes <= previous
                previous = codes

    @pytest.mark.parametrize("draw", [1, 2, 3])
    def test_matches_per_cell_scoring(self, draw):
        # With a reference occupying every cell, the walk degenerates to
        # scoring all cells at max_depth, so the survivor set must equal
        # direct per-cell feature comparison, on each of three draws.
        rng = np.random.default_rng(28 + draw)
        ref_pts = rng.uniform(0.0, 8.0, (6000, 3))
        keep = ~((ref_pts >= [2.0, 2.0, 2.0]) & (ref_pts <= [4.0, 3.0, 4.0])).all(axis=1)
        oth_pts = np.vstack([ref_pts[keep], rng.uniform(5.0, 7.0, (200, 3))])
        ref, oth = PointCloud(ref_pts), PointCloud(oth_pts)
        depth, tau = 2, 50.0
        params = ChangeParams(
            start_depth=depth, max_depth=depth, thresholds=tau, component_min_size=1
        )
        result = hierarchical_detect(ref, oth, params)
        cube = bounding_cube(ref)
        expected = []
        for code in range(8**depth):
            corners, edge = cell_bounds(cube, np.array([code], dtype=np.uint64), depth)
            cell = BoundingCube(corners[0], edge)
            score = feature_distance(
                density_feature(cell, ref, 2), density_feature(cell, oth, 2)
            )
            if score >= tau:
                expected.append(code)
        np.testing.assert_array_equal(result.voxel_codes, np.array(expected, dtype=np.uint64))

    def test_contains_matches_raw_indices(self):
        rng = np.random.default_rng(30)
        ref, oth, _ = removal_scene(rng, density=400.0)
        params = ChangeParams(thresholds=1e4, component_min_size=1)
        result = hierarchical_detect(ref, oth, params)
        np.testing.assert_array_equal(
            np.flatnonzero(contains(result, ref.xyz)), result.raw_changed_reference
        )
        np.testing.assert_array_equal(
            np.flatnonzero(contains(result, oth.xyz)), result.raw_changed_other
        )

    def test_voxel_geometry(self):
        rng = np.random.default_rng(31)
        ref, oth, _ = removal_scene(rng, density=400.0)
        params = ChangeParams(start_depth=5, max_depth=7, thresholds=1e4, component_min_size=1)
        result = hierarchical_detect(ref, oth, params)
        assert result.voxel_edge == pytest.approx(result.cube.edge / 2**7)
        corners, edge = cell_bounds(result.cube, result.voxel_codes, result.depth)
        assert len(corners) == result.n_voxels
        assert edge == pytest.approx(result.voxel_edge)
        # Every raw changed point lies inside the bounds of its own voxel.
        pts = ref.xyz[result.raw_changed_reference]
        assert len(pts) > 0
        codes = morton_codes(pts, result.cube, result.depth)
        rows = np.searchsorted(result.voxel_codes, codes)
        np.testing.assert_array_equal(result.voxel_codes[rows], codes)
        assert (corners[rows] <= pts).all() and (pts <= corners[rows] + edge).all()

    def test_empty_cloud_rejected(self):
        cloud = PointCloud(np.zeros((5, 3)))
        empty = PointCloud(np.empty((0, 3)))
        with pytest.raises(ValueError, match="nonempty"):
            hierarchical_detect(cloud, empty)
        with pytest.raises(ValueError, match="nonempty"):
            hierarchical_detect(empty, cloud)

    def test_provenance_fields(self):
        rng = np.random.default_rng(32)
        cloud = PointCloud(rng.uniform(0.0, 5.0, (200, 3)))
        result = hierarchical_detect(cloud, cloud, epoch_pair=(3, 4))
        assert result.epoch_pair == (3, 4)
        assert result.reference_size == 200
        assert result.other_size == 200
        assert result.params.max_depth == 11


class TestLattice:
    def clouds(self, n=3):
        rng = np.random.default_rng(33)
        return [PointCloud(rng.uniform(-k, 5.0 + k, (300 + 50 * k, 3))) for k in range(n)]

    def test_cube_is_union_cube(self):
        clouds = self.clouds()
        cube = Lattice(clouds).cube
        union = bounding_cube(PointCloud(np.vstack([c.xyz for c in clouds])))
        np.testing.assert_array_equal(cube.min_corner, union.min_corner)
        assert cube.edge == union.edge

    def test_foreign_cloud_rejected(self):
        a, b, _ = self.clouds()
        lattice = Lattice((a, b))
        # Equal points, but not a cloud the lattice bounds by construction.
        with pytest.raises(ValueError, match="lattice was built from"):
            lattice.codes(PointCloud(a.xyz.copy()), 8)
        with pytest.raises(ValueError, match="lattice was built from"):
            hierarchical_detect(a, PointCloud(b.xyz.copy()), lattice=lattice)

    def test_encodes_once_and_keeps_one(self, monkeypatch):
        encoded = []
        morton = detection.morton_codes

        def counting(points, *args):
            encoded.append(len(points))
            return morton(points, *args)

        monkeypatch.setattr(detection, "morton_codes", counting)
        a, b, c = self.clouds()
        lattice = Lattice((a, b, b, c))
        # Consecutive intervals request a, b, then b, c: each cloud once.
        first = lattice.codes(a, 8)
        assert lattice.codes(a, 8) is first
        shared = lattice.codes(b, 8)
        assert lattice.codes(b, 8) is shared
        assert encoded == [len(a), len(b)]
        freed = weakref.ref(shared)
        del shared
        lattice.codes(c, 8)
        assert encoded == [len(a), len(b), len(c)]
        # Only the last requested cloud's codes are kept: b's are gone, and
        # a cloud requested again after another one is encoded again.
        assert freed() is None
        again = lattice.codes(a, 8)
        assert again is not first
        np.testing.assert_array_equal(again, first)
        assert encoded == [len(a), len(b), len(c), len(a)]
        # A different code depth is a different encoding.
        lattice.codes(a, 9)
        assert encoded[-1] == len(a)
        assert len(encoded) == 5

    def test_library_call_uses_union_cube(self):
        a, b, _ = self.clouds()
        result = hierarchical_detect(a, b, ChangeParams(start_depth=3, max_depth=5))
        union = bounding_cube(a, b)
        np.testing.assert_array_equal(result.cube.min_corner, union.min_corner)
        assert result.cube.edge == union.edge
        assert union.edge > bounding_cube(a).edge

    def test_shared_lattice_matches_pairwise_union(self):
        # Detection on a lattice built from more clouds equals detection on
        # the same cube; the codes are the same cells.
        a, b, c = self.clouds()
        params = ChangeParams(start_depth=2, max_depth=4, thresholds=5.0, component_min_size=1)
        lattice = Lattice((a, b, c))
        shared = hierarchical_detect(a, b, params, lattice=lattice)
        expected, _ = walk_oracle(a, b, params, cube=lattice.cube)
        assert len(expected) > 0
        np.testing.assert_array_equal(shared.voxel_codes, expected)
        np.testing.assert_array_equal(shared.raw_changed_other, np.flatnonzero(contains(shared, b.xyz)))


def walk_oracle(ref, oth, params, cube=None):
    """Coarse-to-fine walk scored cell by cell with density_feature.

    Every reference-empty seed leaf and every child of every surviving cell
    is scored, including cells that hold no point of either epoch.
    Returns (sorted survivor codes at max_depth, number of scored cells
    empty in both epochs).
    """
    survivors, empty_scored, _, _ = walk_funnel(ref, oth, params, cube)
    return survivors, empty_scored


def walk_funnel(ref, oth, params, cube=None):
    """walk_oracle plus its per-depth funnel: (survivors, empty_scored,
    scored, kept), where scored[d - 1] counts the cells scored at depth d
    that hold a point of either epoch and kept[d - 1] the cells that
    survived at depth d. The lattice is `cube`, by default the union cube
    of both epochs. Each cell is scored on its octants."""
    cube = bounding_cube(ref, oth) if cube is None else cube

    def bounds(code, depth):
        corners, edge = cell_bounds(cube, np.array([code], dtype=np.uint64), depth)
        return BoundingCube(corners[0], edge)

    def count(cloud, code, depth):
        return density_feature(bounds(code, depth), cloud, 1).densities[0]

    candidates = {depth: [] for depth in range(1, params.max_depth + 1)}
    walk = [0]
    for depth in range(1, params.start_depth + 1):
        children = [8 * code + j for code in walk for j in range(8)]
        if depth == params.start_depth:
            candidates[depth] += children
        else:
            walk = [c for c in children if count(ref, c, depth) > 0]
            candidates[depth] += [c for c in children if count(ref, c, depth) == 0]
    empty_scored = 0
    scored, kept = [], []
    for depth in range(1, params.max_depth + 1):
        survivors = []
        empty_here = 0
        for code in candidates[depth]:
            cell = bounds(code, depth)
            a, b = density_feature(cell, ref, 2), density_feature(cell, oth, 2)
            empty_here += int(a.densities.sum() == 0 and b.densities.sum() == 0)
            if feature_distance(a, b) >= params.threshold_at(depth):
                survivors.append(code)
        empty_scored += empty_here
        scored.append(len(candidates[depth]) - empty_here)
        kept.append(len(survivors))
        if depth < params.max_depth:
            candidates[depth + 1] += [8 * code + j for code in survivors for j in range(8)]
    return np.array(sorted(survivors), dtype=np.uint64), empty_scored, scored, kept


def removal_and_addition_scene(rng):
    """Uniform block with a box removed and a cluster added inside it."""
    ref_pts = rng.uniform(0.0, 8.0, (3000, 3))
    keep = ~((ref_pts >= [2.0, 2.0, 2.0]) & (ref_pts <= [4.0, 3.0, 4.0])).all(axis=1)
    oth_pts = np.vstack([ref_pts[keep], rng.uniform(5.0, 7.0, (200, 3))])
    return PointCloud(ref_pts), PointCloud(oth_pts)


def added_in_empty_space_scene(rng):
    """Two occupied corners; the later epoch adds clusters in reference-empty
    cells at depths 1 and 2, at both ends of the code order."""
    corners = np.vstack([rng.uniform(0.0, 2.0, (400, 3)), rng.uniform(18.0, 20.0, (400, 3))])
    added = np.vstack([
        rng.uniform(12.6, 14.6, (300, 3)),
        rng.uniform(6.0, 8.0, (300, 3)),
        rng.uniform([12.0, 3.0, 3.0], [14.0, 5.0, 5.0], (300, 3)),
    ])
    return PointCloud(corners), PointCloud(np.vstack([corners, added]))


def noisy_shell_scene(rng):
    """Sparse box shell off the lattice faces, with one wall patch removed."""
    pts = hollow_box(rng, density=4.0)
    pts = pts + rng.normal(0.0, 0.02, pts.shape)
    removed = ((pts >= (5.0, -0.5, 2.0)) & (pts <= (10.0, 0.5, 5.0))).all(axis=1)
    return PointCloud(pts), PointCloud(pts[~removed])


def outside_cube_scene(rng):
    """removal_and_addition_scene whose later epoch also gains points
    outside the reference cube, on both sides of it: the union cube is
    larger than the reference cube."""
    ref, oth = removal_and_addition_scene(rng)
    beyond = np.vstack([
        rng.uniform([1.0, 1.0, 8.5], [7.0, 7.0, 10.0], (300, 3)),
        rng.uniform([-2.0, 1.0, 1.0], [-0.5, 7.0, 7.0], (300, 3)),
    ])
    return ref, PointCloud(np.vstack([oth.xyz, beyond]))


def finest_depth_scene(rng):
    """A few dozen points in the unit cube, pinned by its corners so that
    cell bounds are exact at depth 21; some points removed, some added."""
    pts = np.vstack([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], rng.uniform(0.0, 1.0, (20, 3))])
    added = rng.uniform(0.0, 1.0, (3, 3))
    return PointCloud(pts), PointCloud(np.vstack([pts[:-4], added]))


def sparse_cluster_scene(rng):
    """Two occupied corners of a 20 m cube; the later epoch adds a dense
    cluster in a reference-empty depth-2 cell and 20 points within 1 m in a
    reference-empty octant. Spread over the octant the 20 points fail any
    threshold that their own depth-3 cell passes."""
    corners = np.vstack([rng.uniform(0.0, 2.0, (400, 3)), rng.uniform(18.0, 20.0, (400, 3))])
    added = np.vstack([
        rng.uniform(6.0, 8.0, (300, 3)),
        rng.uniform([10.5, 5.5, 5.5], [11.5, 6.5, 6.5], (20, 3)),
    ])
    return PointCloud(corners), PointCloud(np.vstack([corners, added]))


def blocked_start_cells(ref, oth, params):
    """Codes of the start_depth cells the later epoch occupies and the
    reference does not, whose score passes at start_depth but whose first
    reference-empty ancestor fails at its own depth, so the walk never
    reaches them."""
    cube = bounding_cube(ref, oth)
    start = params.start_depth

    def passes(code, depth):
        corners, edge = cell_bounds(cube, np.array([code], dtype=np.uint64), depth)
        cell = BoundingCube(corners[0], edge)
        a, b = density_feature(cell, ref, 2), density_feature(cell, oth, 2)
        return feature_distance(a, b) >= params.threshold_at(depth)

    def occupied(cloud, depth):
        return set(np.unique(morton_codes(cloud.xyz, cube, depth)).tolist())

    ref_cells = {depth: occupied(ref, depth) for depth in range(1, start + 1)}
    blocked = []
    for code in sorted(occupied(oth, start) - ref_cells[start]):
        first_empty = next(
            depth for depth in range(1, start + 1) if code >> 3 * (start - depth) not in ref_cells[depth]
        )
        if first_empty < start and passes(code, start) and not passes(code >> 3 * (start - first_empty), first_empty):
            blocked.append(code)
    return np.array(blocked, dtype=np.uint64)


ORACLE_CASES = {
    # scene, start_depth, max_depth, thresholds
    "removal-scalar": (removal_and_addition_scene, 2, 4, 5.0),
    "removal-per-depth": (removal_and_addition_scene, 1, 4, [0.5, 4.0, 30.0, 200.0]),
    "empty-space": (added_in_empty_space_scene, 3, 5, 0.1),
    "empty-space-per-depth": (added_in_empty_space_scene, 2, 5, [0.01, 0.1, 1.0, 5.0]),
    "shell": (noisy_shell_scene, 2, 5, [0.05, 0.5, 5.0, 40.0]),
    "empty-space-start-1": (added_in_empty_space_scene, 1, 4, 0.01),
    "start-equals-max": (added_in_empty_space_scene, 4, 4, 0.1),
    "other-outside-cube": (outside_cube_scene, 2, 4, 5.0),
    # The deepest max_depth: at code depth 21 the octants of a depth-20
    # cell are the code's last three bits, and nothing is binned by
    # coordinates.
    "max-depth-20": (finest_depth_scene, 17, 20, 1.0),
    # A sparse cluster fails at its first reference-empty depth above
    # start_depth, though its start_depth cell would pass if scored.
    "sparse-cluster-above-start": (sparse_cluster_scene, 3, 5, 1.0),
}

# Each oracle case is drawn from default_rng(50 + draw).
DRAWS = [1, 2, 3, 4]


class TestWalkOracle:
    """hierarchical_detect against the cell-by-cell walk, on four
    independent draws of each scene."""

    @pytest.mark.parametrize("draw", DRAWS)
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_walk(self, case, draw):
        scene, start, stop, taus = ORACLE_CASES[case]
        ref, oth = scene(np.random.default_rng(50 + draw))
        params = ChangeParams(
            start_depth=start, max_depth=stop, thresholds=taus, component_min_size=1
        )
        expected, empty_scored = walk_oracle(ref, oth, params)
        assert len(expected) > 0
        # Pruning empty cells must be exercised, not just permitted.
        assert empty_scored > 0
        result = hierarchical_detect(ref, oth, params)
        np.testing.assert_array_equal(result.voxel_codes, expected)

    @pytest.mark.parametrize("draw", DRAWS)
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_members_and_funnel_match_walk(self, case, draw):
        scene, start, stop, taus = ORACLE_CASES[case]
        ref, oth = scene(np.random.default_rng(50 + draw))
        params = ChangeParams(
            start_depth=start, max_depth=stop, thresholds=taus, component_min_size=1
        )
        _, _, scored, kept = walk_funnel(ref, oth, params)
        result = hierarchical_detect(ref, oth, params)
        # Members are read off the survivors' spans; contains re-encodes.
        np.testing.assert_array_equal(result.raw_changed_reference, np.flatnonzero(contains(result, ref.xyz)))
        np.testing.assert_array_equal(result.raw_changed_other, np.flatnonzero(contains(result, oth.xyz)))
        assert len(result.raw_changed_reference) + len(result.raw_changed_other) > 0
        assert result.stats.scored == tuple(scored)
        assert result.stats.kept == tuple(kept)

    @pytest.mark.parametrize("draw", DRAWS)
    def test_failed_empty_ancestor_blocks_start_cell(self, draw):
        # Scoring every start_depth cell the later epoch occupies would flag
        # the sparse cluster; the walk scores it only where it enters.
        scene, start, stop, taus = ORACLE_CASES["sparse-cluster-above-start"]
        ref, oth = scene(np.random.default_rng(50 + draw))
        params = ChangeParams(
            start_depth=start, max_depth=stop, thresholds=taus, component_min_size=1
        )
        blocked = blocked_start_cells(ref, oth, params)
        assert len(blocked) > 0
        result = hierarchical_detect(ref, oth, params)
        assert result.n_voxels > 0
        assert not np.isin(result.voxel_codes >> np.uint64(3 * (stop - start)), blocked).any()


BLOCKED_FIELDS = (
    "voxel_codes",
    "raw_changed_reference",
    "raw_changed_other",
    "changed_reference",
    "changed_other",
    "component_labels_reference",
    "component_labels_other",
)


class TestBlockedWalk:
    """The walk below start_depth, one block of start cells at a time,
    gives what one walk over every cell gives."""

    @pytest.mark.parametrize("draw", DRAWS)
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_blocks_match_one_walk_and_oracle(self, case, draw, monkeypatch):
        scene, start, stop, taus = ORACLE_CASES[case]
        ref, oth = scene(np.random.default_rng(50 + draw))
        params = ChangeParams(
            start_depth=start, max_depth=stop, thresholds=taus, component_min_size=1
        )
        expected, _, scored, kept = walk_funnel(ref, oth, params)
        descend = detection._descend
        calls = []

        def counting(*args):
            calls.append(len(args[1]))
            return descend(*args)

        monkeypatch.setattr(detection, "_descend", counting)
        results, blocks = [], []
        # The whole frontier in one block, a few cells per block, one cell
        # per block.
        for entries in (1 << 62, 100, 1):
            monkeypatch.setattr(detection, "_BLOCK_ENTRIES", entries)
            calls.clear()
            results.append(hierarchical_detect(ref, oth, params))
            blocks.append(list(calls))
        whole, *blocked = results
        assert len(blocks[0]) == 1
        # One cell per block: as many blocks as start cells in play.
        assert set(blocks[2]) == {1} and len(blocks[2]) == blocks[0][0]
        assert len(blocks[0]) <= len(blocks[1]) <= len(blocks[2])
        np.testing.assert_array_equal(whole.voxel_codes, expected)
        assert whole.stats == DetectionStats(tuple(scored), tuple(kept))
        for result in blocked:
            for name in BLOCKED_FIELDS:
                np.testing.assert_array_equal(getattr(result, name), getattr(whole, name), err_msg=name)
            assert result.stats == whole.stats

    def test_blocks_tile_the_cells(self, monkeypatch):
        monkeypatch.setattr(detection, "_BLOCK_ENTRIES", 50)
        rng = np.random.default_rng(8)
        lengths = rng.integers(1, 40, 300)
        lengths[[7, 8, 100, 299]] = [50, 120, 75, 60]
        gaps = rng.integers(0, 5, 300)
        lo = np.cumsum(gaps + lengths) - lengths
        spans = np.stack([lo, lo + lengths], axis=1)
        blocks = detection._blocks(spans)
        np.testing.assert_array_equal(np.concatenate(blocks), spans)
        for block in blocks:
            held = int((block[:, 1] - block[:, 0]).sum())
            assert held < 2 * 50 or len(block) == 1
        # A cell of a block's worth of entries or more is a block of its own.
        alone = {tuple(block[0]) for block in blocks if len(block) == 1}
        assert {tuple(spans[k]) for k in (7, 8, 100, 299)} <= alone
        assert len(detection._blocks(np.empty((0, 2), dtype=np.int64))) == 1

    def test_transient_peak_bounded_by_block(self, monkeypatch):
        # tracemalloc sees numpy's buffers. Each block's transient peak, net
        # of what was live when the block began, is bounded by the block,
        # so a pair four times larger walks more blocks, no larger ones.
        monkeypatch.setattr(detection, "_BLOCK_ENTRIES", 1 << 12)
        descend = detection._descend
        peaks = []

        def measured(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = descend(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(detection, "_descend", measured)
        params = ChangeParams(start_depth=4, max_depth=6, thresholds=1.0, component_min_size=1)

        def walk(n):
            pts = np.random.default_rng(5).uniform(0.0, 10.0, (n, 3))
            removed = ((pts >= 2.0) & (pts <= 4.5)).all(axis=1)
            peaks.clear()
            result = hierarchical_detect(PointCloud(pts), PointCloud(pts[~removed]), params)
            assert result.n_voxels > 0
            return max(peaks), len(peaks)

        tracemalloc.start()
        try:
            small, small_blocks = walk(20_000)
            large, large_blocks = walk(80_000)
        finally:
            tracemalloc.stop()
        assert large <= 1.25 * small
        assert small_blocks >= 5
        assert large_blocks >= 3 * small_blocks


class TestSquareSums:
    """A cell's score sums its 8 squared octant densities column by column;
    each sum equals numpy's row sum bit for bit."""

    @staticmethod
    def in_turn(diff):
        """Each row's squares added left to right: an order that rounds
        differently from the pairwise one on these inputs."""
        sq = np.square(diff)
        total = sq[:, 0].copy()
        for k in range(1, 8):
            total += sq[:, k]
        return total

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e144])
    @pytest.mark.parametrize("n", [0, 1, 7, 1000, 30_001])
    def test_matches_row_sum_bit_for_bit(self, n, scale):
        # 1e-150 pushes the squares into the subnormals, and 1e144 the sums
        # of the largest to within a decade of the largest double.
        rng = np.random.default_rng(200 + n)
        for _ in range(5):
            # Magnitudes 16 decades apart in one row, exact zeros for empty
            # octants and count differences over an octant's volume.
            mags = 10.0 ** rng.integers(-8, 9, (n, 8))
            diff = rng.normal(size=(n, 8)) * mags * scale
            diff[rng.random((n, 8)) < 0.2] = 0.0
            counts = rng.random(n) < 0.3
            diff[counts] = rng.integers(-300, 301, (counts.sum(), 8)) / 0.37 ** 3
            want = np.square(diff).sum(axis=1)
            got = detection._square_sums(diff.copy())
            assert got.dtype == np.float64 and got.shape == (n,)
            np.testing.assert_array_equal(got, want)
            if n >= 1000 and scale == 1.0:
                assert (self.in_turn(diff) != want).any()


class TestThresholdDefault:
    """Empirical placement of DEFAULT_THRESHOLD.

    With consistent sampling of unchanged surfaces the score of an unchanged
    cell is exactly zero, so the default only has to sit well below the score
    of genuinely emptied cells at the coarsest scored depth, across the
    density range the volume tests use (400..1600 pts/m^2).
    """

    @pytest.mark.parametrize("density", [400.0, 1600.0])
    def test_emptied_cells_score_far_above_default(self, density):
        rng = np.random.default_rng(41)
        box_lo, box_hi = np.array([5.0, -0.1, 2.0]), np.array([10.0, 0.1, 5.0])
        ref, oth, removed = removal_scene(rng, density, box_lo, box_hi)
        cube = bounding_cube(ref)
        depth = ChangeParams().start_depth
        # Fully emptied cells: every reference point they held was removed,
        # so the later epoch contributes an all-zero feature there.
        all_codes = np.sort(morton_codes(ref.xyz, cube, depth))
        removed_codes = np.sort(morton_codes(ref.xyz[removed], cube, depth))
        candidates = np.unique(removed_codes)
        n_total = np.searchsorted(all_codes, candidates + 1) - np.searchsorted(all_codes, candidates)
        n_removed = np.searchsorted(removed_codes, candidates + 1) - np.searchsorted(
            removed_codes, candidates
        )
        emptied = candidates[n_total == n_removed]
        corners, edge = cell_bounds(cube, emptied, depth)
        gone = ref.xyz[removed]
        empty = np.empty((0, 3))
        scores = []
        for corner in corners:
            cell = BoundingCube(corner, edge)
            scores.append(
                feature_distance(density_feature(cell, gone, 2), density_feature(cell, empty, 2))
            )
        scores = np.array(scores)
        assert len(scores) >= 100
        assert scores.min() >= DEFAULT_THRESHOLD
        assert np.median(scores) >= 10 * DEFAULT_THRESHOLD

    def test_unchanged_cells_score_zero(self):
        rng = np.random.default_rng(42)
        pts = hollow_box(rng, density=1600.0)
        cloud = PointCloud(pts)
        tiny = ChangeParams(thresholds=DEFAULT_THRESHOLD / 1000.0)
        assert hierarchical_detect(cloud, cloud, tiny).n_voxels == 0

    def test_default_detects_removal_at_both_densities(self):
        rng = np.random.default_rng(43)
        for density in (400.0, 1600.0):
            ref, oth, removed = removal_scene(rng, density)
            result = hierarchical_detect(ref, oth)
            pred = np.zeros(len(ref), dtype=bool)
            pred[result.changed_reference] = True
            tp = (pred & removed).sum()
            assert tp / max(pred.sum(), 1) > 0.9
            assert tp / removed.sum() > 0.9
