"""Cloud-to-cloud alignment and geometric accuracy measurement.

icp_align removes small systematic offsets between epochs with point-to-point
ICP (closed-form SVD step, distance rejection plus trimming). Its
correspondences come from a per-call cache (_NeighbourCache) in the spirit of
Nuechter, Lingemann & Hertzberg's cached k-d tree search, but exact: each
source point keeps an anchor, K candidate targets with their distances from
it, and a lower bound on the distance from it to every other target. The
cached nearest target is reused only while the triangle inequality proves it
is still the nearest, so the results equal a fresh kd-tree query bit for
bit. A point proved from its recomputed candidates is re-anchored where it
now is, so the cheap proof keeps passing as the motion accumulates; only
the points that fail the proof are re-queried. When most points fail it
(large motion in the first iterations of a wide-pose recovery), one plain
query of every point is cheaper; a small anchored sample of the points then
tells when the motion has slowed enough to rebuild the cache.
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
        # distance rejects nothing; a fractional cap is no iteration count.
        if not (isinstance(self.max_iterations, numbers.Integral) and self.max_iterations >= 1):
            raise ValueError(
                f"max_iterations must be a finite integer >= 1, got {self.max_iterations!r}"
            )
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


# Nearest targets cached per source point by _NeighbourCache.
_CACHE_K = 4
# Relative margin on every certification inequality, far above the few-ulp
# rounding of the distances and displacements it compares.
_CERT_SLOP = 1e-9
# Above this share of uncertified points one plain query of every point is
# cheaper than a K-query of the uncertified ones.
_FALLBACK_SHARE = 0.5
# Every _SAMPLE_STRIDE-th point is certified first, to estimate that share
# before certifying the rest; ~160 points of a 10k-point source.
_SAMPLE_STRIDE = 64


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

    Each source point holds its anchor a, K candidate targets at distances
    d1 <= ... <= dK from a (the K nearest after a K-query), and a lower
    bound `outer` on the distance from a to every target outside those K
    (dK after a K-query). At a new position p with delta = |p - a|, every
    other cached target is at least d2 - delta from p and every uncached one
    at least outer - delta, so the cached nearest target stays the unique
    nearest when either test holds:
      - tier 1: the cached nearest, recomputed at p, is nearer than
        min(d2, outer) - delta; this costs the one distance the answer
        needs anyway;
      - tier 2: the best cached candidate, recomputed at p, is unique among
        the candidates and nearer than outer - delta.
    A point certified by tier 2 is re-anchored at p, keeping the K candidate
    distances just computed there (sorted) and outer - delta as its new
    bound, so its delta restarts from zero instead of growing with the
    accumulated motion. Every other uncertified point is re-queried with
    k = K and re-anchored. A point whose two nearest targets tie is
    answered by a plain query, since cKDTree's k=1 and k=K searches may
    break the tie differently. A certified point's distance is recomputed
    at p by _distances, which equals the kd-tree's own, so rejection,
    trimming and the RMS see the same values.

    Every iteration first certifies a sample (every _SAMPLE_STRIDE-th
    point). When more than _FALLBACK_SHARE of it fails, so would most
    points, and one plain query of every point is cheaper than their
    K-queries: the cache is dropped and only the sample re-anchored. While
    dropped, the sample's one-step test tells when the motion has slowed,
    and the whole cache is rebuilt once at least 1 - _FALLBACK_SHARE of it
    passes. A one-point target has no second neighbour to certify against
    and is always queried plainly.

    State: 80 bytes per source point (anchor, K int32 indices, K distances
    and outer).
    """

    def __init__(self, tree, target_pts: np.ndarray, n_source: int, workers: int) -> None:
        self.tree = tree
        self.workers = workers
        self.target_pts = target_pts
        self.k = min(_CACHE_K, len(target_pts))
        self.anchor = np.empty((n_source, 3))
        small = len(target_pts) <= np.iinfo(np.int32).max
        self.idx = np.empty((n_source, self.k), dtype=np.int32 if small else np.intp)
        self.dist = np.empty((n_source, self.k))
        self.outer = np.empty(n_source)
        self.sample = np.arange(0, n_source, _SAMPLE_STRIDE)
        # "empty" before the first query; "valid" while every point is
        # certified against its anchor; "dropped" after a fallback, while
        # only the sample is.
        self.state = "empty"

    def _plain(self, moved: np.ndarray):
        return self.tree.query(moved, workers=self.workers)

    def _anchor(self, moved: np.ndarray, rows):
        """K-query the points at `rows`, anchor them there and return their
        (dist, idx) of the nearest target."""
        pts = moved[rows]
        dist_k, idx_k = self.tree.query(pts, k=self.k, workers=self.workers)
        self.anchor[rows] = pts
        self.dist[rows] = dist_k
        self.idx[rows] = idx_k
        self.outer[rows] = dist_k[:, -1]
        dist, idx = dist_k[:, 0].copy(), idx_k[:, 0].copy()
        tied = np.flatnonzero(dist >= dist_k[:, 1] * (1.0 - _CERT_SLOP))
        if len(tied):
            dist[tied], idx[tied] = self._plain(pts[tied])
        return dist, idx

    def _certify(self, moved: np.ndarray, rows):
        """(dist, idx, ok) of the points at `rows`: the nearest target and its
        distance where the cache proves it (`ok`), unset elsewhere. Points
        certified by tier 2 are re-anchored."""
        pts = moved[rows]
        delta = _distances(pts, self.anchor[rows])
        cached_idx = self.idx[rows]
        outer = self.outer[rows]
        idx = cached_idx[:, 0].astype(np.intp)
        # The (n, 3) row gathers below and in the ICP loop use np.take: the
        # same values at about a quarter of fancy indexing's cost.
        dist = _distances(pts, np.take(self.target_pts, idx, axis=0))
        # Tier 1: every other target was at least min(d2, outer) from the
        # anchor.
        ok = dist < (np.minimum(self.dist[rows, 1], outer) - delta) * (1.0 - _CERT_SLOP)

        # Tier 2: the best candidate at p beats the others and outer - delta,
        # the least distance any target outside the cached K can have.
        sel = np.flatnonzero(~ok)
        cand = cached_idx[sel]
        near = np.take(pts, sel, axis=0)
        cand_dist = _distances(near[:, None, :], np.take(self.target_pts, cand, axis=0))
        order = np.argsort(cand_dist, axis=1, kind="stable")
        cand_dist = np.take_along_axis(cand_dist, order, axis=1)
        bound = outer[sel] - delta[sel]
        tier2 = cand_dist[:, 0] < np.minimum(cand_dist[:, 1], bound) * (1.0 - _CERT_SLOP)
        cand_dist, bound = cand_dist[tier2], bound[tier2]
        cand = np.take_along_axis(cand[tier2], order[tier2], axis=1)
        sel = sel[tier2]
        idx[sel] = cand[:, 0]
        dist[sel] = cand_dist[:, 0]
        ok[sel] = True
        # Re-anchor at p; `sel` indexes `rows`, not the source.
        at = sel if isinstance(rows, slice) else rows[sel]
        self.anchor[at] = near[tier2]
        self.dist[at] = cand_dist
        self.idx[at] = cand
        self.outer[at] = bound
        return dist, idx, ok

    def _drop(self, moved: np.ndarray):
        """One plain query of every point; re-anchor only the sample."""
        self.state = "dropped"
        self._anchor(moved, self.sample)
        return self._plain(moved)

    def query(self, moved: np.ndarray):
        """(dist, idx) equal to tree.query(moved) with k=1, bit for bit."""
        if self.k < 2:
            return self._plain(moved)
        everything = slice(None)
        if self.state != "empty":
            # The sample tests the current motion first: where most of it
            # fails, so would most points.
            _, _, ok = self._certify(moved, self.sample)
            if np.count_nonzero(ok) < (1.0 - _FALLBACK_SHARE) * len(ok):
                return self._drop(moved)
        if self.state != "valid":
            self.state = "valid"
            return self._anchor(moved, everything)
        dist, idx, ok = self._certify(moved, everything)
        stale = np.flatnonzero(~ok)
        if len(stale):
            dist[stale], idx[stale] = self._anchor(moved, stale)
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
    cache = _NeighbourCache(kdtree(tgt), tgt, len(src), workers)

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
