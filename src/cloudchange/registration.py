"""Cloud-to-cloud alignment and geometric accuracy measurement.

icp_align removes small systematic offsets between epochs with point-to-point
ICP (closed-form SVD step, distance rejection plus trimming). Its
correspondences come from a per-call cache (_NeighbourCache) in the spirit of
Nuechter, Lingemann & Hertzberg's cached k-d tree search, but exact: each
source point keeps an anchor, its nearest target there and the distance to
its second-nearest. The cached nearest target is reused only while the
triangle inequality proves it is still the nearest, so the results equal a
fresh kd-tree query bit for bit; every point that fails the proof is
re-queried and re-anchored where it now is.
point_to_plane_distances measures residual accuracy of a probe cloud against
locally fitted planes of a reference cloud.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .geometry import PointCloud, RigidTransform
from .neighbors import kdtree, query_workers

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IcpParams:
    """Knobs of icp_align.

    Attributes:
        max_iterations: iteration cap.
        convergence_threshold: stop once the correspondence RMS changes by
            less than this between iterations, metres.
        rejection_distance: correspondences farther than this are discarded
            before the alignment step, metres.
        trim_fraction: additionally drop this fraction of the remaining
            correspondences with the largest distances, in [0, 1).
    """

    max_iterations: int = 50
    convergence_threshold: float = 1e-8
    rejection_distance: float = 1.0
    trim_fraction: float = 0.1

    def __post_init__(self) -> None:
        # An infinite threshold "converges" after one step and an infinite
        # distance rejects nothing; a fractional cap or a bool is no
        # iteration count.
        cap = self.max_iterations
        if isinstance(cap, bool) or not (isinstance(cap, numbers.Integral) and cap >= 1):
            raise ValueError(f"max_iterations must be a finite integer >= 1, got {cap!r}")
        if not (math.isfinite(self.convergence_threshold) and self.convergence_threshold > 0):
            raise ValueError(
                f"convergence_threshold must be finite and > 0, got {self.convergence_threshold}"
            )
        if not (math.isfinite(self.rejection_distance) and self.rejection_distance > 0):
            raise ValueError(
                f"rejection_distance must be finite and > 0, got {self.rejection_distance}"
            )
        if not 0 <= self.trim_fraction < 1:
            raise ValueError(f"trim_fraction must be in [0, 1), got {self.trim_fraction}")


@dataclass(frozen=True)
class IcpResult:
    """Outcome of icp_align.

    Attributes:
        transform: rigid map from source to target frame.
        iterations: alignment steps taken.
        rms: per-coordinate correspondence RMS of the returned transform,
            metres: sqrt(SSE / (3 n)), so isotropic per-coordinate noise of
            std sigma gives rms ~= sigma.
        converged: True if the RMS change dropped below the threshold, False
            if the iteration cap stopped the loop.
        n_pairs: correspondences used in the final alignment step.
        rms_history: the RMS at each visited transform, starting at identity.
    """

    transform: RigidTransform
    iterations: int
    rms: float
    converged: bool
    n_pairs: int
    rms_history: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))

    def to_dict(self) -> dict:
        """Report record: the transform and the final-step statistics."""
        return {
            "rotation": [[float(v) for v in row] for row in self.transform.rotation],
            "translation": [float(v) for v in self.transform.translation],
            "rms_m": self.rms,
            "iterations": self.iterations,
            "converged": self.converged,
            "n_pairs": self.n_pairs,
        }


# Percentiles of the distances that DistanceReport.to_dict reports.
DISTANCE_PERCENTILES = (50, 90, 95)


@dataclass(frozen=True)
class DistanceReport:
    """Per-point distances and their summary statistics.

    Attributes:
        distances: metres, one per probe point.
        degenerate: True where the local plane was ill-conditioned and the
            distance fell back to plain nearest-neighbour distance.
    """

    distances: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        if len(self.distances) != len(self.degenerate):
            raise ValueError("distances and degenerate flags must align")

    @property
    def mean(self) -> float:
        """Mean distance, metres; 0.0 for an empty report."""
        return float(self.distances.mean()) if len(self.distances) else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation (ddof = 0), metres; 0.0 for an
        empty report."""
        return float(self.distances.std()) if len(self.distances) else 0.0

    def histogram(self, bins: int = 20) -> Tuple[np.ndarray, np.ndarray]:
        return np.histogram(self.distances, bins=bins)

    def to_dict(self, bins: int = 20) -> dict:
        """Report record; each of DISTANCE_PERCENTILES is None when empty."""
        counts, edges = self.histogram(bins)
        if len(self.distances):
            values = np.percentile(self.distances, DISTANCE_PERCENTILES).tolist()
        else:
            values = [None] * len(DISTANCE_PERCENTILES)
        return {
            "count": int(len(self.distances)),
            "mean_m": self.mean,
            "std_m": self.std,
            "percentiles_m": {str(p): v for p, v in zip(DISTANCE_PERCENTILES, values)},
            "n_degenerate": int(self.degenerate.sum()),
            "histogram_counts": counts.tolist(),
            "histogram_edges_m": edges.tolist(),
        }


def _per_coordinate_rms(diffs: np.ndarray) -> float:
    return float(np.sqrt((diffs**2).sum() / (3 * len(diffs))))


# Relative margin on the certification inequality, far above the few-ulp
# rounding of the distances and displacements it compares.
_CERT_SLOP = 1e-9


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distances along the last (x, y, z) axis.

    The squares are summed left to right, as cKDTree sums them and as
    np.sqrt(((p - q) ** 2).sum(axis=-1)) does, so the result equals both bit
    for bit; per-coordinate adds are ~3x faster than the small-axis reduce.
    """
    diff = p - q
    sq = diff[..., 0] ** 2
    sq += diff[..., 1] ** 2
    sq += diff[..., 2] ** 2
    return np.sqrt(sq, out=sq)


class _NeighbourCache:
    """Exact nearest target of every moved source point, re-querying only
    the points whose nearest neighbour may have changed since their anchor.

    The first query anchors every source point with a k=2 query: the cache
    keeps its anchor a, the index of a nearest target and `second`, the
    distance from a to its second-nearest target. Every target but the
    cached one is at least `second` from a, so at a new position p with
    delta = |p - a| it is at least second - delta from p. The cached target
    is therefore still the unique nearest when its distance, recomputed at p,
    is below second - delta; that costs the one distance the answer needs
    anyway, and _distances equals the kd-tree's own, so rejection, trimming
    and the RMS see the same values. Every point that fails this proof is
    re-queried with k=2 and re-anchored at p. A point whose two nearest
    targets tie is answered by a plain k=1 query, since cKDTree's k=1 and
    k=2 searches may break the tie differently. A one-point target has no
    second neighbour to certify against and is always queried plainly.

    State: 40 bytes per source point (anchor, index and second).
    """

    def __init__(self, tree, target_pts: np.ndarray, workers: int) -> None:
        self.tree = tree
        self.workers = workers
        self.target_pts = target_pts
        # Set by the first query, which anchors every source point.
        self.anchor = self.idx = self.second = None

    def _anchor(self, pts: np.ndarray):
        """(dist, idx, second) of `pts` from one k=2 query: the nearest
        target and its distance as a k=1 query gives them, and the
        second-nearest distance."""
        dist_2, idx_2 = self.tree.query(pts, k=2, workers=self.workers)
        dist, idx, second = dist_2[:, 0].copy(), idx_2[:, 0].copy(), dist_2[:, 1].copy()
        tied = np.flatnonzero(dist >= second * (1.0 - _CERT_SLOP))
        dist[tied], idx[tied] = self.tree.query(pts[tied], workers=self.workers)
        return dist, idx, second

    def query(self, moved: np.ndarray):
        """(dist, idx) equal to tree.query(moved) with k=1, bit for bit."""
        if len(self.target_pts) < 2:
            return self.tree.query(moved, workers=self.workers)
        if self.anchor is None:
            dist, idx, self.second = self._anchor(moved)
            self.anchor, self.idx = moved.copy(), idx.copy()
            return dist, idx
        idx = self.idx.copy()
        # The (n, 3) row gathers here and in the ICP loop use np.take: the
        # same values at about a quarter of fancy indexing's cost.
        dist = _distances(moved, np.take(self.target_pts, idx, axis=0))
        delta = _distances(moved, self.anchor)
        stale = np.flatnonzero(~(dist < (self.second - delta) * (1.0 - _CERT_SLOP)))
        pts = np.take(moved, stale, axis=0)
        dist[stale], idx[stale], self.second[stale] = self._anchor(pts)
        self.anchor[stale] = pts
        self.idx[stale] = idx[stale]
        return dist, idx


def _trim(dist: np.ndarray, keep: np.ndarray, n_keep: int) -> np.ndarray:
    """The n_keep entries of `keep` (ascending rows) with the smallest
    `dist`, ties to the lower row, in ascending order: the first n_keep of a
    stable argsort, found with one partition instead of a sort."""
    d = dist[keep]
    cut = np.partition(d, n_keep - 1)[n_keep - 1]
    chosen = d < cut
    tied = np.flatnonzero(d == cut)
    chosen[tied[: n_keep - np.count_nonzero(chosen)]] = True
    return keep[chosen]


def _correspondences(moved, target_pts, cache, params):
    """Matched pairs under the current transform, after rejection and trim.

    Returns (source row indices, their matched target points, RMS over the
    kept pairs).
    """
    dist, idx = cache.query(moved)
    keep = np.flatnonzero(dist <= params.rejection_distance)
    if params.trim_fraction > 0 and len(keep):
        n_keep = max(int(np.ceil(len(keep) * (1 - params.trim_fraction))), min(3, len(keep)))
        if n_keep < len(keep):
            keep = _trim(dist, keep, n_keep)
    if len(keep) < 3:
        raise ValueError(
            f"degenerate correspondence set: only {len(keep)} pairs within "
            f"rejection distance {params.rejection_distance} m"
        )
    matched = np.take(target_pts, idx[keep], axis=0)
    return keep, matched, _per_coordinate_rms(np.take(moved, keep, axis=0) - matched)


def _svd_step(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid fit mapping src onto dst (Kabsch).

    The centroids are einsum sums divided by n: bit for bit what
    mean(axis=0) gives (TestSvdStep checks it), at about a quarter of its
    cost.
    """
    n = len(src)
    c_src = np.einsum("ij->j", src) / n
    c_dst = np.einsum("ij->j", dst) / n
    h = (src - c_src).T @ (dst - c_dst)
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-9 * max(s[0], 1e-300):
        raise ValueError("degenerate correspondence set: fewer than 3 non-collinear pairs")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return rotation, c_dst - rotation @ c_src


def icp_align(
    source: PointCloud,
    target: PointCloud,
    params: Optional[IcpParams] = None,
    *,
    threads: Optional[int] = None,
) -> IcpResult:
    """Rigid transform aligning `source` onto `target`.

    Alternates nearest-neighbour correspondence with a closed-form rigid fit,
    starting from the identity. The best transform by correspondence RMS is
    returned, so applying it never increases the RMS relative to identity.
    `threads` is the kd-tree worker count (see neighbors.query_workers); it
    changes the speed only, never the result.
    """
    params = params or IcpParams()
    workers = query_workers(threads)
    if len(source) == 0 or len(target) == 0:
        raise ValueError("both clouds must be nonempty")
    src = source.xyz
    tgt = target.xyz
    cache = _NeighbourCache(kdtree(tgt), tgt, workers)

    rotation = np.eye(3)
    translation = np.zeros(3)
    history = []
    best = None  # (rms, rotation, translation, n_pairs, iteration)
    iterations = 0
    converged = False
    for iteration in range(params.max_iterations + 1):
        moved = src @ rotation.T + translation
        rows, matched, rms = _correspondences(moved, tgt, cache, params)
        history.append(rms)
        if best is None or rms < best[0]:
            best = (rms, rotation, translation, len(rows), iteration)
        if iteration >= 1 and abs(history[-2] - rms) < params.convergence_threshold:
            converged = True
            break
        if iteration == params.max_iterations:
            break
        rotation, translation = _svd_step(np.take(src, rows, axis=0), matched)
        iterations += 1

    rms, rotation, translation, n_pairs, _ = best
    logger.debug(
        "icp: %d iterations, rms %.3g m over %d pairs, converged=%s",
        iterations, rms, n_pairs, converged,
    )
    return IcpResult(
        transform=RigidTransform(rotation, translation),
        iterations=iterations,
        rms=rms,
        converged=converged,
        n_pairs=n_pairs,
        rms_history=np.asarray(history),
    )


def point_to_plane_distances(
    probe: PointCloud,
    reference: PointCloud,
    k: int = 8,
    *,
    threads: Optional[int] = None,
) -> DistanceReport:
    """Distance from each probe point to the least-squares plane of its k
    nearest reference points.

    Where those neighbours are (near-)collinear the plane normal is
    undefined; the distance falls back to the nearest-neighbour Euclidean
    distance and the point is flagged in the report. `threads` is the
    kd-tree worker count, as in icp_align.
    """
    workers = query_workers(threads)
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if len(reference) < k:
        raise ValueError(f"reference has {len(reference)} points, need >= k = {k}")
    if len(probe) == 0:
        return DistanceReport(np.empty(0), np.zeros(0, dtype=bool))
    tree = kdtree(reference)
    nn_dist, idx = tree.query(probe.xyz, k=k, workers=workers)
    neighbours = reference.xyz[idx]
    centroids = neighbours.mean(axis=1)
    centered = neighbours - centroids[:, None, :]
    cov = np.einsum("qki,qkj->qij", centered, centered)
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0]
    plane_dist = np.abs(np.einsum("qi,qi->q", probe.xyz - centroids, normals))
    degenerate = eigvals[:, 1] <= 1e-9 * eigvals[:, 2]
    distances = np.where(degenerate, nn_dist[:, 0], plane_dist)
    if degenerate.any():
        logger.info("%d of %d probe points hit degenerate local planes", degenerate.sum(), len(probe))
    return DistanceReport(distances, degenerate)
