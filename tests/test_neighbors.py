import numpy as np
import pytest

from cloudchange.neighbors import knn, query_workers, radius_neighbors


def brute_knn(pts, q, k):
    d = np.sqrt(((pts - q) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(len(pts)), d))[:k]
    return order, d[order]


def brute_radius(pts, q, r):
    d = np.sqrt(((pts - q) ** 2).sum(axis=1))
    idx = np.flatnonzero(d <= r)
    return idx, d[idx]


class TestKnn:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            pts = rng.uniform(-10.0, 10.0, (1500, 3))
            for _ in range(40):
                q = rng.uniform(-12.0, 12.0, 3)
                k = int(rng.integers(1, 20))
                idx, dist = knn(pts, q, k)
                ref_idx, ref_dist = brute_knn(pts, q, k)
                np.testing.assert_array_equal(idx, ref_idx)
                np.testing.assert_array_equal(dist, ref_dist)

    def test_tie_prefers_lower_index(self):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        idx, dist = knn(pts, [0.0, 0.0, 0.0], 1)
        np.testing.assert_array_equal(idx, [0])
        np.testing.assert_array_equal(dist, [1.0])
        idx, _ = knn(pts, [0.0, 0.0, 0.0], 2)
        np.testing.assert_array_equal(idx, [0, 1])

    def test_duplicate_points(self):
        pts = np.array([[5.0, 5.0, 5.0]] * 4 + [[0.0, 0.0, 0.0]])
        idx, dist = knn(pts, [5.0, 5.0, 5.0], 2)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_array_equal(dist, [0.0, 0.0])

    def test_batch_queries(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(300, 3))
        qs = rng.normal(size=(7, 3))
        idx, dist = knn(pts, qs, 5)
        assert idx.shape == (7, 5)
        for row, q in enumerate(qs):
            ref_idx, ref_dist = brute_knn(pts, q, 5)
            np.testing.assert_array_equal(idx[row], ref_idx)
            np.testing.assert_array_equal(dist[row], ref_dist)

    def test_validation(self):
        pts = np.zeros((3, 3))
        with pytest.raises(ValueError):
            knn(pts, [0.0, 0.0, 0.0], 0)
        with pytest.raises(ValueError):
            knn(pts, [0.0, 0.0, 0.0], 4)


class TestRadius:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0.0, 5.0, (2000, 3))
        for _ in range(50):
            q = rng.uniform(0.0, 5.0, 3)
            r = float(rng.uniform(0.05, 1.5))
            idx, dist = radius_neighbors(pts, q, r)
            ref_idx, ref_dist = brute_radius(pts, q, r)
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(dist, ref_dist)

    def test_boundary_inclusive(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [3.0, 0.0, 0.0]])
        idx, dist = radius_neighbors(pts, [0.0, 0.0, 0.0], 2.0)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_array_equal(dist, [1.0, 2.0])

    def test_empty_result(self):
        pts = np.array([[10.0, 10.0, 10.0]])
        idx, dist = radius_neighbors(pts, [0.0, 0.0, 0.0], 1.0)
        assert len(idx) == 0
        assert len(dist) == 0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            radius_neighbors(np.zeros((1, 3)), [0.0, 0.0, 0.0], -0.5)


class TestQueryWorkers:
    def test_configured_count_to_workers(self):
        assert query_workers() == 1
        assert query_workers(None) == 1
        assert query_workers(1) == 1
        assert query_workers(3) == 3
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads: must be >= 1"):
                query_workers(threads)

    def test_non_integral_count_refused(self):
        assert query_workers(np.int64(2)) == 2
        assert type(query_workers(np.int64(2))) is int
        for threads in (1.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="threads: expected an integer"):
                query_workers(threads)
