"""Tests for ICP alignment and point-to-plane accuracy measurement."""
import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from cloudchange import registration
from cloudchange.geometry import PointCloud
from cloudchange.neighbors import kdtree
from cloudchange.registration import (
    DistanceReport,
    IcpParams,
    icp_align,
    point_to_plane_distances,
)
from scenes import hollow_box, jittered_patch, EX, EY

RECOVERY_PARAMS = IcpParams(
    max_iterations=200,
    convergence_threshold=1e-14,
    rejection_distance=1e3,
    trim_fraction=0.0,
)


def rotation_error(recovered, applied):
    """Angle of recovered @ applied, radians; zero for a perfect inverse."""
    combined = recovered @ applied
    return float(np.arccos(np.clip((np.trace(combined) - 1) / 2, -1.0, 1.0)))


class TestIcpParams:
    def test_defaults(self):
        params = IcpParams()
        assert params.rejection_distance == 1.0
        assert params.trim_fraction == 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="max_iterations"):
            IcpParams(max_iterations=0)
        with pytest.raises(ValueError, match="convergence_threshold"):
            IcpParams(convergence_threshold=0.0)
        with pytest.raises(ValueError, match="rejection_distance"):
            IcpParams(rejection_distance=-1.0)
        with pytest.raises(ValueError, match="trim_fraction"):
            IcpParams(trim_fraction=1.0)
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match="convergence_threshold must be finite"):
                IcpParams(convergence_threshold=value)
            with pytest.raises(ValueError, match="rejection_distance must be finite"):
                IcpParams(rejection_distance=value)
        for value in (2.5, 3.0, np.inf, True, False):
            with pytest.raises(ValueError, match="max_iterations must be a finite integer"):
                IcpParams(max_iterations=value)
        assert IcpParams(max_iterations=np.int64(3)).max_iterations == 3


class TestIcpAlign:
    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(50)
        cloud = PointCloud(rng.uniform(0.0, 10.0, (500, 3)))
        result = icp_align(cloud, cloud)
        assert np.abs(result.transform.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(result.transform.translation).max() < 1e-9
        assert result.rms < 1e-9
        assert result.converged

    def test_known_transform_recovered(self):
        rng = np.random.default_rng(51)
        pts = hollow_box(rng, w=10.0, l=8.0, h=5.0, density=30.0)
        rot = Rotation.from_euler("z", 10, degrees=True).as_matrix()
        t = np.array([1.0, 0.5, 0.2])
        moved = PointCloud(pts @ rot.T + t)
        result = icp_align(moved, PointCloud(pts), RECOVERY_PARAMS)
        assert rotation_error(result.transform.rotation, rot) <= 1e-6
        assert np.linalg.norm(result.transform.rotation @ t + result.transform.translation) <= 1e-6
        assert result.converged

    def test_wide_pose_recovered(self):
        rng = np.random.default_rng(52)
        for trial in range(3):
            pts = hollow_box(rng, w=10.0, l=8.0, h=5.0, density=30.0)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(np.deg2rad(15), np.deg2rad(30))
            rot = Rotation.from_rotvec(axis * angle).as_matrix()
            t = rng.normal(size=3)
            t *= rng.uniform(3.0, 5.0) / np.linalg.norm(t)
            moved = PointCloud(pts @ rot.T + t)
            result = icp_align(moved, PointCloud(pts), RECOVERY_PARAMS)
            assert rotation_error(result.transform.rotation, rot) <= 1e-6
            assert (
                np.linalg.norm(result.transform.rotation @ t + result.transform.translation)
                <= 1e-6
            )

    def test_noisy_rms_tracks_sigma(self):
        # Noise on the probe side only, sparse cloud so nearest neighbours
        # stay the true counterparts, no trimming so the RMS is unbiased.
        rng = np.random.default_rng(53)
        sigma = 0.02
        pts = hollow_box(rng, w=10.0, l=8.0, h=5.0, density=30.0)
        rot = Rotation.from_euler("y", 5, degrees=True).as_matrix()
        noisy = PointCloud(pts @ rot.T + [0.3, -0.2, 0.1] + rng.normal(0.0, sigma, pts.shape))
        result = icp_align(noisy, PointCloud(pts), RECOVERY_PARAMS)
        assert abs(result.rms - sigma) / sigma < 0.1

    def test_rms_history_monotone(self):
        rng = np.random.default_rng(54)
        pts = hollow_box(rng, w=10.0, l=8.0, h=5.0, density=30.0)
        rot = Rotation.from_euler("x", 20, degrees=True).as_matrix()
        moved = PointCloud(pts @ rot.T + [1.0, 2.0, -0.5])
        params = IcpParams(
            max_iterations=100,
            convergence_threshold=1e-14,
            rejection_distance=1e3,
            trim_fraction=0.1,
        )
        result = icp_align(moved, PointCloud(pts), params)
        assert (np.diff(result.rms_history) <= 1e-12).all()
        assert result.rms == result.rms_history.min()

    def test_report_record_fields(self):
        rng = np.random.default_rng(57)
        cloud = PointCloud(rng.uniform(0.0, 5.0, (300, 3)))
        result = icp_align(cloud, cloud, RECOVERY_PARAMS)
        record = result.to_dict()
        # The report carries these six keys only; rms_history would change its bytes.
        assert sorted(record) == [
            "converged", "iterations", "n_pairs", "rms_m", "rotation", "translation"
        ]
        np.testing.assert_array_equal(record["rotation"], result.transform.rotation)
        np.testing.assert_array_equal(record["translation"], result.transform.translation)
        assert (record["rms_m"], record["n_pairs"]) == (result.rms, result.n_pairs)

    def test_transform_never_worse_than_identity(self):
        rng = np.random.default_rng(55)
        cloud = PointCloud(rng.uniform(0.0, 5.0, (400, 3)))
        other = PointCloud(rng.uniform(0.0, 5.0, (400, 3)))
        params = IcpParams(max_iterations=3, rejection_distance=10.0, trim_fraction=0.0)
        result = icp_align(cloud, other, params)
        assert result.rms <= result.rms_history[0]

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(56)
        pts = hollow_box(rng, w=10.0, l=8.0, h=5.0, density=30.0)
        rot = Rotation.from_euler("z", 25, degrees=True).as_matrix()
        moved = PointCloud(pts @ rot.T + [2.0, 1.0, 0.0])
        params = IcpParams(
            max_iterations=2,
            convergence_threshold=1e-14,
            rejection_distance=1e3,
            trim_fraction=0.0,
        )
        result = icp_align(moved, PointCloud(pts), params)
        assert not result.converged
        assert result.iterations == 2

    def test_all_pairs_rejected_raises(self):
        near = PointCloud(np.random.default_rng(57).uniform(0.0, 1.0, (50, 3)))
        far = PointCloud(near.xyz + 100.0)
        with pytest.raises(ValueError, match="degenerate correspondence"):
            icp_align(near, far, IcpParams(rejection_distance=0.5))

    def test_collinear_clouds_raise(self):
        line = np.zeros((30, 3))
        line[:, 0] = np.linspace(0.0, 10.0, 30)
        cloud = PointCloud(line)
        with pytest.raises(ValueError, match="non-collinear"):
            icp_align(cloud, cloud, IcpParams(rejection_distance=1e3, trim_fraction=0.0))

    def test_empty_cloud_rejected(self):
        cloud = PointCloud(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="nonempty"):
            icp_align(cloud, PointCloud(np.empty((0, 3))))


def resurvey_pair(rng, density=60.0, sigma=0.005, yaw_deg=0.5, offset=(0.05, -0.03, 0.02)):
    """Two independently sampled, noisy epochs of one box shell, the later
    one rotated about z and shifted: (later, earlier)."""
    earlier = hollow_box(rng, w=8.0, l=8.0, h=5.0, density=density)
    later = hollow_box(rng, w=8.0, l=8.0, h=5.0, density=density)
    earlier = earlier + rng.normal(0.0, sigma, earlier.shape)
    later = later + rng.normal(0.0, sigma, later.shape)
    rot = Rotation.from_euler("z", yaw_deg, degrees=True).as_matrix()
    return later @ rot.T + offset, earlier


def wide_pose_scenes():
    """The three (source, target) scenes of test_wide_pose_recovered."""
    rng = np.random.default_rng(52)
    scenes = []
    for _ in range(3):
        pts = hollow_box(rng, w=10.0, l=8.0, h=5.0, density=30.0)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(np.deg2rad(15), np.deg2rad(30))
        rot = Rotation.from_rotvec(axis * angle).as_matrix()
        t = rng.normal(size=3)
        t *= rng.uniform(3.0, 5.0) / np.linalg.norm(t)
        scenes.append((pts @ rot.T + t, pts))
    return scenes


def cache_case(name):
    """(source, target, params) of one correspondence-cache oracle case."""
    rng = np.random.default_rng(80)
    if name == "resurvey":
        return (*resurvey_pair(rng), IcpParams())
    if name.startswith("wide"):
        return (*wide_pose_scenes()[int(name[-1])], RECOVERY_PARAMS)
    if name == "duplicated_target":
        # Every third target point appears twice: exact distance ties.
        pts = hollow_box(rng, w=6.0, l=5.0, h=3.0, density=40.0)
        rot = Rotation.from_euler("z", 2.0, degrees=True).as_matrix()
        return pts @ rot.T + [0.1, -0.05, 0.0], np.vstack([pts, pts[::3]]), RECOVERY_PARAMS
    if name == "rejection_drops_most":
        later, earlier = resurvey_pair(rng, density=30.0, sigma=0.03)
        return later, earlier, IcpParams(rejection_distance=0.04)
    if name == "resurvey_wide":
        # Independently placed targets, so a point can sit between two of
        # them while the pose is still far off.
        later, earlier = resurvey_pair(rng, yaw_deg=20.0, offset=(2.0, -2.0, 1.0))
        return later, earlier, RECOVERY_PARAMS
    if name == "no_trim":
        later, earlier = resurvey_pair(rng)
        return later, earlier, IcpParams(trim_fraction=0.0)
    if name == "three_point_target":
        target = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.2]])
        return rng.uniform(-0.5, 1.5, (40, 3)), target, RECOVERY_PARAMS
    raise KeyError(name)


CACHE_CASES = [
    "resurvey", "wide0", "wide1", "wide2", "duplicated_target",
    "rejection_drops_most", "no_trim", "three_point_target", "resurvey_wide",
]


def check_cache_state(cache):
    """Assert what the cache keeps for every source point, bit for bit: the
    distance from its anchor to its cached index is the first distance of a
    fresh k=2 query at the anchor, and `second` is that query's second one.
    So the cached target is a nearest one and every other target is at least
    `second` from the anchor (cKDTree's distances equal the computed ones bit
    for bit, see below).
    """
    fresh_dist, _ = cache.tree.query(cache.anchor, k=2)
    cached = np.sqrt(((cache.anchor - cache.target_pts[cache.idx]) ** 2).sum(axis=-1))
    np.testing.assert_array_equal(cached, fresh_dist[:, 0])
    np.testing.assert_array_equal(cache.second, fresh_dist[:, 1])


class TestCorrespondenceCache:
    @pytest.mark.parametrize("name", CACHE_CASES)
    def test_matches_fresh_query_every_iteration(self, monkeypatch, name):
        source, target, params = cache_case(name)
        trees = []

        def counting_kdtree(cloud):
            trees.append(kdtree(cloud))
            return trees[-1]

        cached_query = registration._NeighbourCache.query
        pairs = []

        def checked_query(cache, moved):
            dist, idx = cached_query(cache, moved)
            fresh_dist, fresh_idx = cache.tree.query(moved)
            np.testing.assert_array_equal(idx, fresh_idx)
            np.testing.assert_array_equal(dist, fresh_dist)
            pairs.append(np.count_nonzero(dist <= params.rejection_distance))
            return dist, idx

        monkeypatch.setattr(registration, "kdtree", counting_kdtree)
        monkeypatch.setattr(registration._NeighbourCache, "query", checked_query)
        result = icp_align(PointCloud(source), PointCloud(target), params)
        assert len(trees) == 1
        assert len(pairs) == len(result.rms_history)
        if name == "rejection_drops_most":
            assert max(pairs) < 0.5 * len(source)

    @pytest.mark.parametrize("name", CACHE_CASES)
    def test_cached_state_holds_after_every_query(self, monkeypatch, name):
        # Checked against every target: the proofs of the next query rest
        # on these facts about each anchor, re-anchored points included.
        source, target, params = cache_case(name)
        cached_query = registration._NeighbourCache.query
        checks = []

        def checked_query(cache, moved):
            answer = cached_query(cache, moved)
            # Every point is anchored at the first query, and re-anchored
            # whenever it fails the proof.
            check_cache_state(cache)
            checks.append(len(moved))
            return answer

        monkeypatch.setattr(registration._NeighbourCache, "query", checked_query)
        result = icp_align(PointCloud(source), PointCloud(target), params)
        assert len(checks) == len(result.rms_history)

    def test_distances_match_kdtree_bit_for_bit(self):
        rng = np.random.default_rng(81)
        target = rng.uniform(-3.0, 3.0, (2000, 3))
        query = rng.uniform(-4.0, 4.0, (5000, 3))
        dist, idx = kdtree(target).query(query, k=4)
        near = target[idx]
        computed = registration._distances(query[:, None, :], near)
        np.testing.assert_array_equal(computed, dist)
        np.testing.assert_array_equal(
            computed, np.sqrt(((query[:, None, :] - near) ** 2).sum(axis=-1))
        )


class TestWorkerCount:
    def test_results_bit_equal_across_thread_counts(self):
        source, target, params = cache_case("resurvey")
        source, target = PointCloud(source), PointCloud(target)
        one = icp_align(source, target, params, threads=1)
        two = icp_align(source, target, params, threads=2)
        np.testing.assert_array_equal(one.transform.rotation, two.transform.rotation)
        np.testing.assert_array_equal(one.transform.translation, two.transform.translation)
        np.testing.assert_array_equal(one.rms_history, two.rms_history)
        assert (one.rms, one.iterations, one.converged, one.n_pairs) == (
            two.rms, two.iterations, two.converged, two.n_pairs
        )
        near = point_to_plane_distances(source, target, threads=1)
        far = point_to_plane_distances(source, target, threads=2)
        np.testing.assert_array_equal(near.distances, far.distances)
        np.testing.assert_array_equal(near.degenerate, far.degenerate)
        assert (near.mean, near.std) == (far.mean, far.std)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_count_below_one_refused(self, threads):
        cloud = PointCloud(np.random.default_rng(82).uniform(0.0, 1.0, (50, 3)))
        with pytest.raises(ValueError, match="threads: must be >= 1"):
            icp_align(cloud, cloud, threads=threads)
        with pytest.raises(ValueError, match="threads: must be >= 1"):
            point_to_plane_distances(cloud, cloud, threads=threads)


class TestTreeConstruction:
    def test_median_split_tree_gives_bit_identical_results(self, monkeypatch):
        # kd-tree queries are exact whatever the split rule, and the cache
        # answers ties with a plain query of the same tree.
        source, target, params = cache_case("resurvey")
        source, target = PointCloud(source), PointCloud(target)
        ours = icp_align(source, target, params)
        ours_dist = point_to_plane_distances(source, target)
        built = []

        def median_kdtree(cloud):
            built.append(cKDTree(getattr(cloud, "xyz", cloud)))
            return built[-1]

        monkeypatch.setattr(registration, "kdtree", median_kdtree)
        median = icp_align(source, target, params)
        median_dist = point_to_plane_distances(source, target)
        assert len(built) == 2
        np.testing.assert_array_equal(ours.transform.rotation, median.transform.rotation)
        np.testing.assert_array_equal(ours.transform.translation, median.transform.translation)
        np.testing.assert_array_equal(ours.rms_history, median.rms_history)
        assert (ours.rms, ours.iterations, ours.converged, ours.n_pairs) == (
            median.rms, median.iterations, median.converged, median.n_pairs
        )
        np.testing.assert_array_equal(ours_dist.distances, median_dist.distances)
        np.testing.assert_array_equal(ours_dist.degenerate, median_dist.degenerate)


class _FixedQuery:
    """Stands in for the cache: every source row matches target row i."""

    def __init__(self, dist):
        self.dist = dist

    def query(self, moved):
        return self.dist, np.arange(len(self.dist))


def argsort_trim(dist, keep, n_keep):
    return keep[np.sort(np.argsort(dist[keep], kind="stable")[:n_keep])]


class TestTrim:
    def test_matches_stable_argsort_with_ties(self):
        rng = np.random.default_rng(90)
        # Quarter-metre steps: runs of exact ties, every n_keep below hits
        # each tie boundary and the inside of each run.
        dist = rng.integers(0, 8, 300) / 4.0
        keep = np.flatnonzero(dist <= 1.5)
        for n_keep in range(1, len(keep) + 1):
            np.testing.assert_array_equal(
                registration._trim(dist, keep, n_keep), argsort_trim(dist, keep, n_keep)
            )

    @pytest.mark.parametrize("n_within", [3, 4, 5, 40])
    def test_correspondences_floor_matches_argsort(self, n_within):
        rng = np.random.default_rng(91)
        dist = np.concatenate([np.full(n_within, 0.5), rng.integers(0, 3, n_within) / 4.0, [5.0, 7.0]])
        rng.shuffle(dist)
        moved = rng.uniform(0.0, 1.0, (len(dist), 3))
        params = IcpParams(rejection_distance=1.0, trim_fraction=0.9)
        keep = np.flatnonzero(dist <= 1.0)
        n_keep = max(int(np.ceil(len(keep) * 0.1)), min(3, len(keep)))
        # Target point i is (i, i, i), so each matched point names its index.
        target = np.repeat(np.arange(len(dist), dtype=np.float64)[:, None], 3, axis=1)
        rows, matched, _ = registration._correspondences(moved, target, _FixedQuery(dist), params)
        np.testing.assert_array_equal(rows, argsort_trim(dist, keep, n_keep))
        idx = matched[:, 0].astype(np.intp)
        np.testing.assert_array_equal(idx, rows)


def mean_svd_step(src, dst):
    """The Kabsch step with centroids from mean(axis=0): the reference that
    _svd_step's einsum centroids must equal bit for bit."""
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    h = (src - c_src).T @ (dst - c_dst)
    u, s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return rotation, c_dst - rotation @ c_src


class TestSvdStep:
    @pytest.mark.parametrize("offset", [0.0, 5e5])
    @pytest.mark.parametrize("n", [3, 4, 17, 1000, 27_001])
    def test_matches_mean_reference_bit_for_bit(self, n, offset):
        # 5e5 m is a map-grid easting: large centroids, small spread.
        rng = np.random.default_rng(100 + n)
        rot = Rotation.from_rotvec(rng.normal(size=3) * 0.1).as_matrix()
        for _ in range(5):
            src = rng.uniform(-20.0, 20.0, (n, 3)) + offset
            dst = src @ rot.T + rng.normal(0.0, 0.5, 3) + rng.normal(0.0, 0.01, (n, 3))
            got = registration._svd_step(src, dst)
            want = mean_svd_step(src, dst)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


class TestPointToPlane:
    def test_probe_on_reference_plane(self):
        rng = np.random.default_rng(60)
        ref = jittered_patch(rng, (0, 0, 0), EX, EY, 10.0, 10.0, 200.0)
        probe = rng.uniform(2.0, 8.0, (20, 2))
        probe = np.column_stack([probe, np.zeros(20)])
        report = point_to_plane_distances(PointCloud(probe), PointCloud(ref), k=8)
        assert report.distances.max() < 1e-9
        assert not report.degenerate.any()

    def test_parallel_plane_offset(self):
        rng = np.random.default_rng(61)
        ref = jittered_patch(rng, (0, 0, 0), EX, EY, 10.0, 10.0, 200.0)
        probe = jittered_patch(rng, (2, 2, 0.1), EX, EY, 6.0, 6.0, 50.0)
        report = point_to_plane_distances(PointCloud(probe), PointCloud(ref), k=8)
        assert report.mean == pytest.approx(0.1, abs=1e-9)
        assert report.std < 1e-9

    def test_matches_brute_force(self):
        rng = np.random.default_rng(62)
        ref = rng.uniform(0.0, 4.0, (400, 3))
        probe = rng.uniform(0.5, 3.5, (40, 3))
        k = 6
        report = point_to_plane_distances(PointCloud(probe), PointCloud(ref), k=k)
        for row, p in enumerate(probe):
            dist = np.linalg.norm(ref - p, axis=1)
            nearest = np.lexsort((np.arange(len(ref)), dist))[:k]
            nb = ref[nearest]
            centroid = nb.mean(axis=0)
            w, v = np.linalg.eigh((nb - centroid).T @ (nb - centroid))
            expected = abs(np.dot(p - centroid, v[:, 0]))
            assert report.distances[row] == pytest.approx(expected, abs=1e-9)
        assert report.mean == pytest.approx(report.distances.mean(), rel=1e-12)
        assert report.std == pytest.approx(report.distances.std(), rel=1e-12)

    def test_noisy_probe_mean_near_sigma(self):
        rng = np.random.default_rng(72)
        sigma = 0.02
        flat = jittered_patch(rng, (0, 0, 0), EX, EY, 12.0, 12.0, 150.0)
        noisy = flat + rng.normal(0.0, sigma, flat.shape)
        report = point_to_plane_distances(PointCloud(noisy), PointCloud(flat), k=8)
        assert 0.5 * sigma <= report.mean <= 2 * sigma

    def test_collinear_neighbours_fall_back_flagged(self):
        line = np.zeros((30, 3))
        line[:, 0] = np.linspace(0.0, 3.0, 30)
        probe = np.array([[1.0, 2.0, 0.0]])
        report = point_to_plane_distances(PointCloud(probe), PointCloud(line), k=5)
        assert report.degenerate.all()
        nn = np.linalg.norm(line - probe[0], axis=1).min()
        assert report.distances[0] == pytest.approx(nn, abs=1e-12)

    def test_argument_validation(self):
        cloud = PointCloud(np.random.default_rng(63).uniform(0.0, 1.0, (10, 3)))
        with pytest.raises(ValueError, match="k must be"):
            point_to_plane_distances(cloud, cloud, k=2)
        with pytest.raises(ValueError, match="need >= k"):
            point_to_plane_distances(cloud, cloud, k=11)

    def test_misaligned_degenerate_flags_rejected(self):
        with pytest.raises(ValueError, match="must align"):
            DistanceReport(np.array([1.0, 2.0]), np.zeros(3, dtype=bool))

    def test_report_export(self):
        report = DistanceReport(np.linspace(0.0, 1.0, 100), np.zeros(100, dtype=bool))
        payload = report.to_dict(bins=10)
        assert payload["count"] == 100
        assert sum(payload["histogram_counts"]) == 100
        assert len(payload["histogram_edges_m"]) == 11
