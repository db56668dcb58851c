"""Cell-by-cell forms of what change detection computes in bulk: the
oracles that the span walk and the Morton encoding are tested against.

`density_feature` bins one cell's points into its m^3 sub-voxels and
`feature_distance` scores two such features, so a coarse-to-fine walk built
from them scores each cell on its own bounds, with no index. `contains`
re-finds a change set's members by encoding points, where the library reads
them off the survivors' spans. `cell_indices` quantises points to grid
cells, the integer cells that `morton_codes` interleaves, and
`unblocked_morton_codes` interleaves them in one full-length pass per axis,
where the library encodes the points one cache-sized block at a time.
`dense_component_filter` links points whose grid cells neighbour each other
on a dense (n, n) matrix, each point's cell found on its own, and ranks the
clusters by one lexsort of every point, where the library sorts packed cell
keys once, links cells and sorts only each cluster's least-x points.
"""
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from cloudchange.detection import ChangeSet
from cloudchange.geometry import BoundingCube, PointCloud
from cloudchange.octree import morton_codes


@dataclass(frozen=True)
class DensityFeature:
    """Sub-voxel point densities of one cell volume.

    Attributes:
        densities: (m^3,) points per cubic metre, x-major sub-voxel order
            (index = (ix * m + iy) * m + iz).
        subvoxels_per_axis: m.
    """

    densities: np.ndarray
    subvoxels_per_axis: int


def density_feature(bounds: BoundingCube, cloud, m: int = 2) -> DensityFeature:
    """Point densities over the m^3 sub-voxels of `bounds`.

    Membership in `bounds` is inclusive of all faces; within the cell,
    points on an interior sub-voxel boundary go to the higher sub-voxel and
    the cell's own max face belongs to the last sub-voxel, matching octree
    cell assignment. Points outside `bounds` are ignored.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    pts = cloud.xyz if isinstance(cloud, PointCloud) else np.atleast_2d(np.asarray(cloud, dtype=np.float64))
    pts = pts[bounds.contains(pts)]
    sub_edge = bounds.edge / m
    counts = np.zeros(m ** 3, dtype=np.int64)
    if len(pts):
        idx = np.floor((pts - bounds.min_corner) / sub_edge).astype(np.int64)
        np.clip(idx, 0, m - 1, out=idx)
        flat = (idx[:, 0] * m + idx[:, 1]) * m + idx[:, 2]
        counts = np.bincount(flat, minlength=m ** 3)
    return DensityFeature(counts / sub_edge ** 3, m)


def feature_distance(a: DensityFeature, b: DensityFeature, normalized: bool = True) -> float:
    """Squared-difference score between two density features.

    Sum over sub-voxels of (density_b - density_a)^2, divided by the
    sub-voxel count when `normalized`.
    """
    if a.subvoxels_per_axis != b.subvoxels_per_axis:
        raise ValueError(
            f"feature sizes differ: m={a.subvoxels_per_axis} vs m={b.subvoxels_per_axis}"
        )
    d = float(((b.densities - a.densities) ** 2).sum())
    if normalized:
        d /= len(a.densities)
    return d


def contains(changes: ChangeSet, points) -> np.ndarray:
    """Mask of the points lying inside some changed voxel of `changes`,
    found by encoding each point at the voxels' depth."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    inside_cube = np.logical_and(
        (pts >= changes.cube.min_corner).all(axis=1),
        (pts <= changes.cube.max_corner).all(axis=1),
    )
    mask = np.zeros(len(pts), dtype=bool)
    if not len(changes.voxel_codes) or not inside_cube.any():
        return mask
    codes = morton_codes(pts[inside_cube], changes.cube, changes.depth)
    pos = np.searchsorted(changes.voxel_codes, codes)
    pos = np.minimum(pos, len(changes.voxel_codes) - 1)
    mask[inside_cube] = changes.voxel_codes[pos] == codes
    return mask


def cell_indices(points: np.ndarray, cube: BoundingCube, depth: int) -> np.ndarray:
    """Integer grid cell of each point at `depth` (2^depth cells per axis).

    Cells are half-open; a point exactly on an interior face lands in the
    higher-index cell, and the cube's own max boundary is closed (clamped).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n_cells = 1 << depth
    scaled = (pts - cube.min_corner) * (n_cells / cube.edge)
    idx = np.floor(scaled).astype(np.int64)
    np.clip(idx, 0, n_cells - 1, out=idx)
    return idx


def unblocked_morton_codes(points: np.ndarray, cube: BoundingCube, depth: int) -> np.ndarray:
    """Morton codes of the `cell_indices` cells at `depth`, each axis's bits
    spread to every third bit of the code over the whole array at once:
    bit b of x, y and z lands at bit 3b + 2, 3b + 1 and 3b."""
    cells = cell_indices(points, cube, depth).astype(np.uint64)
    codes = np.zeros(len(cells), dtype=np.uint64)
    for axis in range(3):
        v = cells[:, axis] & np.uint64(0x1FFFFF)
        for shift, mask in (
            (32, 0x1F00000000FFFF),
            (16, 0x1F0000FF0000FF),
            (8, 0x100F00F00F00F00F),
            (4, 0x10C30C30C30C30C3),
            (2, 0x1249249249249249),
        ):
            v = (v | (v << np.uint64(shift))) & np.uint64(mask)
        codes |= v << np.uint64(2 - axis)
    return codes


def dense_component_filter(points, radius: float, min_size: int):
    """(kept indices, labels) as `component_filter` defines them, from an
    (n, n) link matrix: for small inputs only. A point's cell is
    floor((p - least corner) / radius) on each axis, and two points are
    linked when their cells differ by at most one on every axis; at radius
    0, when they coincide."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(pts)
    cells = pts if radius == 0 else np.floor((pts - pts.min(axis=0)) / radius)
    reach = 0 if radius == 0 else 1
    near = np.ones((n, n), dtype=bool)
    for axis in range(3):
        near &= np.abs(cells[:, None, axis] - cells[None, :, axis]) <= reach
    _, components = connected_components(sparse.csr_matrix(near), directed=False)
    sizes = np.bincount(components)
    kept = np.flatnonzero(sizes[components] >= min_size)
    if not len(kept):
        return kept, np.empty(0, dtype=np.int64)
    # Clusters ordered by the rank of their smallest kept point in one
    # lexicographic (x, y, z) sort of every point.
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))] = np.arange(n)
    cluster_ids = components[kept]
    first = np.full(len(sizes), n, dtype=np.int64)
    np.minimum.at(first, cluster_ids, rank[kept])
    order = np.empty(len(sizes), dtype=np.int64)
    order[np.argsort(first)] = np.arange(len(sizes))
    return kept, order[cluster_ids]
