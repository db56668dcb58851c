"""Cloud-to-cloud alignment and geometric accuracy measurement.

icp_align removes small systematic offsets between epochs with point-to-point
ICP (closed-form SVD step, distance rejection plus trimming).
point_to_plane_distances measures residual accuracy of a probe cloud against
locally fitted planes of a reference cloud.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .geometry import BoundingCube, PointCloud, RigidTransform
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
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.convergence_threshold > 0:
            raise ValueError("convergence_threshold must be > 0")
        if not self.rejection_distance > 0:
            raise ValueError("rejection_distance must be > 0")
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


@dataclass(frozen=True)
class DistanceReport:
    """Per-point distances with summary statistics.

    Attributes:
        distances: metres, one per probe point.
        mean / std: population statistics of `distances` (std with ddof=0).
        degenerate: True where the local plane was ill-conditioned and the
            distance fell back to plain nearest-neighbour distance.
    """

    distances: np.ndarray
    mean: float
    std: float
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        if len(self.distances) != len(self.degenerate):
            raise ValueError("distances and degenerate flags must align")
        if len(self.distances):
            if not np.isclose(self.mean, float(self.distances.mean()), rtol=1e-12, atol=1e-300):
                raise ValueError("stored mean inconsistent with distances")
            if not np.isclose(self.std, float(self.distances.std()), rtol=1e-12, atol=1e-300):
                raise ValueError("stored std inconsistent with distances")

    @classmethod
    def from_distances(cls, distances: np.ndarray, degenerate: Optional[np.ndarray] = None) -> "DistanceReport":
        distances = np.asarray(distances, dtype=np.float64)
        if degenerate is None:
            degenerate = np.zeros(len(distances), dtype=bool)
        mean = float(distances.mean()) if len(distances) else 0.0
        std = float(distances.std()) if len(distances) else 0.0
        return cls(distances, mean, std, np.asarray(degenerate, dtype=bool))

    def histogram(self, bins: int = 20) -> Tuple[np.ndarray, np.ndarray]:
        return np.histogram(self.distances, bins=bins)

    def to_dict(self, bins: int = 20) -> dict:
        counts, edges = self.histogram(bins)
        return {
            "count": int(len(self.distances)),
            "mean_m": self.mean,
            "std_m": self.std,
            "n_degenerate": int(self.degenerate.sum()),
            "histogram_counts": counts.tolist(),
            "histogram_edges_m": edges.tolist(),
        }


def _per_coordinate_rms(diffs: np.ndarray) -> float:
    return float(np.sqrt((diffs**2).sum() / (3 * len(diffs))))


def _correspondences(moved, target_pts, tree, params):
    """Matched pairs under the current transform, after rejection and trim.

    Returns (source row indices, target indices, RMS over the kept pairs).
    """
    dist, idx = tree.query(moved, workers=query_workers())
    keep = np.flatnonzero(dist <= params.rejection_distance)
    if params.trim_fraction > 0 and len(keep):
        n_keep = max(int(np.ceil(len(keep) * (1 - params.trim_fraction))), min(3, len(keep)))
        order = np.argsort(dist[keep], kind="stable")
        keep = keep[order[:n_keep]]
        keep.sort()
    if len(keep) < 3:
        raise ValueError(
            f"degenerate correspondence set: only {len(keep)} pairs within "
            f"rejection distance {params.rejection_distance} m"
        )
    rms = _per_coordinate_rms(moved[keep] - target_pts[idx[keep]])
    return keep, idx[keep], rms


def _svd_step(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid fit mapping src onto dst (Kabsch)."""
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
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
) -> IcpResult:
    """Rigid transform aligning `source` onto `target`.

    Alternates nearest-neighbour correspondence with a closed-form rigid fit,
    starting from the identity. The best transform by correspondence RMS is
    returned, so applying it never increases the RMS relative to identity.
    """
    params = params or IcpParams()
    if len(source) == 0 or len(target) == 0:
        raise ValueError("both clouds must be nonempty")
    src = source.xyz
    tgt = target.xyz
    tree = kdtree(tgt)

    rotation = np.eye(3)
    translation = np.zeros(3)
    history = []
    best = None  # (rms, rotation, translation, n_pairs, iteration)
    iterations = 0
    converged = False
    for iteration in range(params.max_iterations + 1):
        moved = src @ rotation.T + translation
        rows, idx, rms = _correspondences(moved, tgt, tree, params)
        history.append(rms)
        if best is None or rms < best[0]:
            best = (rms, rotation, translation, len(rows), iteration)
        if iteration >= 1 and abs(history[-2] - rms) < params.convergence_threshold:
            converged = True
            break
        if iteration == params.max_iterations:
            break
        rotation, translation = _svd_step(src[rows], tgt[idx])
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
) -> DistanceReport:
    """Distance from each probe point to the least-squares plane of its k
    nearest reference points.

    Where those neighbours are (near-)collinear the plane normal is
    undefined; the distance falls back to the nearest-neighbour Euclidean
    distance and the point is flagged in the report.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if len(reference) < k:
        raise ValueError(f"reference has {len(reference)} points, need >= k = {k}")
    if len(probe) == 0:
        return DistanceReport.from_distances(np.empty(0))
    tree = kdtree(reference)
    nn_dist, idx = tree.query(probe.xyz, k=k, workers=query_workers())
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
    return DistanceReport.from_distances(distances, degenerate)


def summarize_unchanged_region(
    cloud_a: PointCloud,
    cloud_b: PointCloud,
    region: BoundingCube,
    k: int = 8,
) -> DistanceReport:
    """Point-to-plane distances restricted to `region`, cloud_a as probe."""
    in_a = region.contains(cloud_a.xyz)
    in_b = region.contains(cloud_b.xyz)
    if not in_a.any() or not in_b.any():
        raise ValueError("region does not intersect both clouds")
    if in_b.sum() < k:
        raise ValueError(f"only {in_b.sum()} cloud_b points in region, need >= k = {k}")
    return point_to_plane_distances(cloud_a.select(in_a), cloud_b.select(in_b), k)
