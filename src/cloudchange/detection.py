"""Coarse-to-fine volumetric change detection between two epochs.

A `Lattice` fixes the voxel lattice: the union bounding cube of every cloud
it indexes, so no point of either epoch falls outside it, and one Morton
index per cloud, built once however many intervals share the cloud. Each
candidate cell is scored by the squared difference of sub-voxel point
densities between the epochs; only cells above threshold are subdivided, so
unchanged space is discarded at coarse scale and changed space is located at
the finest scale. Every depth is scored in one batch: each cell's sub-voxel
counts are binned from the points in its span of each index, and the
changed points are the points in the final survivors' spans, so nothing is
re-encoded or searched per cell. A connected-component pass then drops
isolated flagged points.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .geometry import BoundingCube, PointCloud, bounding_cube
from .neighbors import kdtree
from .octree import (
    MAX_SUPPORTED_DEPTH,
    Octree,
    cell_bounds,
    morton_codes,
    parent_cells,
    span_positions,
)

# Default score threshold in (points/m^3)^2, calibrated on the synthetic
# demolition suite (see tests/test_detection.py::TestThresholdDefault for the
# margin check); tau must sit above resampling noise at the coarse depth and
# below the score of genuinely emptied cells.
DEFAULT_THRESHOLD = 3.0e5


@dataclass
class ChangeParams:
    """Knobs of hierarchical_detect.

    Attributes:
        start_depth: octree depth where scoring begins.
        max_depth: finest depth; surviving cells at this depth form the
            changed-voxel set.
        subvoxels_per_axis: m of the density feature (2 aligns sub-voxels
            with octree children).
        thresholds: scalar tau applied at every depth, or one value per
            depth from start_depth to max_depth.
        normalized: divide the squared-difference sum by the sub-voxel
            count (keeps tau comparable across m).
        component_radius: single-linkage radius of the component filter in
            metres; None picks max(1.5 * finest cell edge, 3 * median
            nearest-neighbour spacing of the flagged points).
        component_min_size: clusters smaller than this are discarded.
    """

    start_depth: int = 7
    max_depth: int = 11
    subvoxels_per_axis: int = 2
    thresholds: Union[float, Sequence[float]] = DEFAULT_THRESHOLD
    normalized: bool = True
    component_radius: Optional[float] = None
    component_min_size: int = 50

    def __post_init__(self) -> None:
        if not 1 <= self.start_depth <= self.max_depth <= MAX_SUPPORTED_DEPTH:
            raise ValueError(
                f"need 1 <= start_depth <= max_depth <= {MAX_SUPPORTED_DEPTH}, "
                f"got start={self.start_depth} max={self.max_depth}"
            )
        if self.subvoxels_per_axis < 1:
            raise ValueError(f"subvoxels_per_axis must be >= 1, got {self.subvoxels_per_axis}")
        taus = np.atleast_1d(np.asarray(self.thresholds, dtype=np.float64))
        if not (np.isfinite(taus) & (taus > 0)).all():
            raise ValueError(f"thresholds must be finite and > 0, got {self.thresholds}")
        n_depths = self.max_depth - self.start_depth + 1
        if taus.size not in (1, n_depths):
            raise ValueError(
                f"thresholds must be scalar or give one value per depth "
                f"({n_depths} for depths {self.start_depth}..{self.max_depth}), got {taus.size}"
            )
        if self.component_radius is not None and not (
            math.isfinite(self.component_radius) and self.component_radius > 0
        ):
            raise ValueError(f"component_radius must be finite and > 0, got {self.component_radius}")
        if self.component_min_size < 1:
            raise ValueError("component_min_size must be >= 1")

    def threshold_at(self, depth: int) -> float:
        taus = np.atleast_1d(np.asarray(self.thresholds, dtype=np.float64))
        if taus.size == 1:
            return float(taus[0])
        return float(taus[np.clip(depth - self.start_depth, 0, taus.size - 1)])


@dataclass(frozen=True)
class DetectionStats:
    """Per-depth funnel of one hierarchical_detect call; deterministic.

    Attributes:
        scored: cells scored at each depth 1..max_depth (entry depth - 1).
            Only cells holding a point of either epoch are scored; above
            start_depth only the reference-empty ones are.
        kept: scored cells whose score reached the depth's threshold.
    """

    scored: Tuple[int, ...]
    kept: Tuple[int, ...]


@dataclass
class ChangeSet:
    """Result of hierarchical_detect for one epoch pair.

    Attributes:
        cube: the lattice's cube (the voxel lattice root): the union bounding
            cube of both epochs, or of every epoch of a pipeline run.
        depth: depth of the changed voxels (params.max_depth).
        voxel_codes: sorted Morton codes of the changed voxels at `depth`.
        voxel_edge: edge length of those voxels, metres.
        raw_changed_reference / raw_changed_other: indices of each epoch's
            points inside the changed voxels, before component filtering.
        changed_reference / changed_other: the filtered subsets.
        component_labels_reference / _other: cluster id per filtered point.
        params, epoch_pair, reference_size, other_size: provenance.
        stats: the per-depth detection funnel.
    """

    cube: BoundingCube
    depth: int
    voxel_codes: np.ndarray
    voxel_edge: float
    raw_changed_reference: np.ndarray
    raw_changed_other: np.ndarray
    changed_reference: np.ndarray
    changed_other: np.ndarray
    component_labels_reference: np.ndarray
    component_labels_other: np.ndarray
    params: ChangeParams
    epoch_pair: Tuple = (0, 1)
    reference_size: int = 0
    other_size: int = 0
    stats: Optional[DetectionStats] = None

    @property
    def n_voxels(self) -> int:
        return len(self.voxel_codes)


class Lattice:
    """One voxel lattice over a fixed set of clouds, and each cloud's index.

    The cube is the union bounding cube of the clouds, so every point of
    every cloud lies inside it and no index needs a containment mask. A
    cloud is recognised by identity; any other cloud is refused, since its
    points outside the cube would be clipped into edge cells. An index is
    encoded on its first request and kept while it is one of the two most
    recently requested: consecutive intervals of a series share one epoch.

    Attributes:
        cube: the union bounding cube, the root of every voxel code.
    """

    def __init__(self, clouds: Sequence[PointCloud]) -> None:
        self._clouds = {}
        for cloud in clouds:
            self._clouds.setdefault(id(cloud), cloud)
        self.cube = bounding_cube(*self._clouds.values())
        self._indexes: OrderedDict = OrderedDict()

    def index(self, cloud: PointCloud, code_depth: int) -> Octree:
        """Linear octree of `cloud` on the lattice at `code_depth`; `order`
        indexes the cloud's points."""
        if self._clouds.get(id(cloud)) is not cloud:
            raise ValueError("cloud is not one of the clouds the lattice was built from")
        key = (id(cloud), code_depth)
        tree = self._indexes.pop(key, None)
        if tree is None:
            while len(self._indexes) > 1:
                self._indexes.popitem(last=False)
            tree = Octree(morton_codes(cloud.xyz, self.cube, code_depth), code_depth)
        self._indexes[key] = tree
        return tree


def _child_frontier(ref: Octree, oth: Octree, spans_ref: np.ndarray, spans_oth: np.ndarray, depth: int):
    """(cells, spans_ref, spans_oth): the children at depth + 1 of the sorted,
    disjoint cells at `depth` with the given spans, that either epoch
    occupies, merged in Morton order with their spans in each index."""
    cells_ref, child_ref = ref.children(spans_ref, depth)
    cells_oth, child_oth = oth.children(spans_oth, depth)
    return _merge_cells(cells_ref, child_ref, cells_oth, child_oth)


def _merge_cells(cells_ref, spans_ref, cells_oth, spans_oth):
    """(cells, spans_ref, spans_oth): the union of two sorted, unique cell
    arrays with each cell's spans in both indexes. A cell one epoch does not
    occupy gets the empty span [0, 0) there."""
    # One sort of both arrays ranks every cell: a cell both epochs occupy
    # comes out twice in a row, and both copies take the same row. A stable
    # sort merges the two sorted runs in linear time.
    both = np.concatenate([cells_ref, cells_oth])
    order = np.argsort(both, kind="stable")
    merged = both[order]
    first = np.empty(len(merged), dtype=bool)
    first[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    rows = np.empty(len(merged), dtype=np.intp)
    rows[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(merged)))
    k, n = len(cells_ref), len(starts)
    return merged[starts], _scatter_rows(spans_ref, rows[:k], n), _scatter_rows(spans_oth, rows[k:], n)


def _scatter_rows(spans: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, 2) spans, `spans` at `rows` and [0, 0) elsewhere; one column at a
    time, which numpy scatters much faster than (k, 2) rows."""
    out = np.zeros((n, 2), dtype=np.intp)
    out[:, 0][rows] = spans[:, 0]
    out[:, 1][rows] = spans[:, 1]
    return out


def _subvoxel_counts(
    index: Octree, xyz: np.ndarray, cells: np.ndarray, spans: np.ndarray, depth: int,
    cube: BoundingCube, m: int,
) -> np.ndarray:
    """(len(cells), m**3) sub-voxel point counts of each cell at `depth`,
    binned from the points inside the cell's span of the index."""
    rows, pos = span_positions(spans)
    levels = int(m).bit_length() - 1
    if m == (1 << levels) and depth + levels <= index.code_depth:
        # Sub-voxels are the descendants `levels` below: read the code bits.
        shift = np.uint64(3 * (index.code_depth - depth - levels))
        sub = ((index.sorted_codes[pos] >> shift) & np.uint64(8 ** levels - 1)).astype(np.int64)
    else:
        corners, edge = cell_bounds(cube, cells, depth)
        idx = np.floor((xyz[index.order[pos]] - corners[rows]) / (edge / m)).astype(np.int64)
        np.clip(idx, 0, m - 1, out=idx)
        sub = (idx[:, 0] * m + idx[:, 1]) * m + idx[:, 2]
    counts = np.bincount(rows * m ** 3 + sub, minlength=len(cells) * m ** 3)
    return counts.reshape(len(cells), m ** 3)


def _entered(cells: np.ndarray, occupied_ref: np.ndarray, passed: np.ndarray) -> np.ndarray:
    """Mask of the cells whose parent is in the sorted arrays of the cells the
    reference occupies or of the reference-empty cells that passed, one
    depth up: the children of those cells enter the walk."""
    parents = cells >> np.uint64(3)
    return _isin_sorted(parents, occupied_ref) | _isin_sorted(parents, passed)


def _isin_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Mask of the entries of `values` found in the sorted array `sorted_set`."""
    if not len(sorted_set):
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_set, values)
    return sorted_set[np.minimum(pos, len(sorted_set) - 1)] == values


def hierarchical_detect(
    reference: PointCloud,
    other: PointCloud,
    params: Optional[ChangeParams] = None,
    epoch_pair: Tuple = (0, 1),
    *,
    lattice: Optional[Lattice] = None,
) -> ChangeSet:
    """Locate changed voxels between `reference` (earlier) and `other`.

    The voxel lattice is `lattice`, which must have been built from both
    clouds, or else a new one over the two; either way its cube holds every
    point of both epochs. Each epoch's index is `lattice.index`, so a
    lattice shared by consecutive intervals encodes each cloud once. Scoring
    starts at params.start_depth on the reference octree's cells
    (reference-empty leaves are scored once at their own bounds) and
    descends only into cells whose score reaches the depth's threshold.

    The start_depth cells of each index are read in one pass, as the runs of
    equal code prefixes with their [lo, hi) spans (`Octree.cells`), and the
    cells of every coarser depth are the runs of their prefixes, so the
    depths above start_depth are not walked: there only the cells the other
    epoch occupies and the reference does not are scored, each if its
    parent is reference-occupied or passed, and a start_depth cell enters
    the frontier only under such a parent. Each depth's frontier is one
    sorted, disjoint array of cell codes that carries every cell's span in
    both epochs' indexes, the two epochs' cells merged by one stable sort. The
    next frontier is read off the codes inside the spans of the cells that
    descend (`Octree.children`), so no depth searches the index. Cells
    empty in both epochs score exactly 0, below every threshold, so they
    never enter the frontier. The sub-voxel counts of the scored cells are
    binned from the points in their spans, and the changed points are the
    points in the final survivors' spans.
    """
    params = params or ChangeParams()
    if len(reference) == 0 or len(other) == 0:
        raise ValueError("both epochs must be nonempty")
    if lattice is None:
        lattice = Lattice((reference, other))
    cube = lattice.cube
    m = params.subvoxels_per_axis
    levels = max(int(m).bit_length() - 1, 1)
    code_depth = min(params.max_depth + levels, MAX_SUPPORTED_DEPTH)
    ref = lattice.index(reference, code_depth)
    oth = lattice.index(other, code_depth)

    def passed(cells, spans_ref, spans_oth, depth):
        """Rows of the cells at `depth` whose score reaches the threshold."""
        # In place where the arithmetic allows: at start_depth the counts
        # hold every occupied cell, and their temporaries set peak memory.
        diff = _subvoxel_counts(oth, other.xyz, cells, spans_oth, depth, cube, m)
        diff -= _subvoxel_counts(ref, reference.xyz, cells, spans_ref, depth, cube, m)
        diff = diff.astype(np.float64)
        diff /= (cube.edge / float(1 << depth) / m) ** 3
        score = np.square(diff, out=diff).sum(axis=1)
        if params.normalized:
            score /= m ** 3
        return np.flatnonzero(score >= params.threshold_at(depth))

    # Each epoch's occupied cells at depth start - k, for k = 0..start: the
    # start_depth cells read in one pass, then the runs of their prefixes.
    start = params.start_depth
    coarse_ref, coarse_oth = [ref.cells(start)], [oth.cells(start)]
    for _ in range(start):
        coarse_ref.append(parent_cells(*coarse_ref[-1], 1))
        coarse_oth.append(parent_cells(*coarse_oth[-1], 1))
    # Above start_depth only reference-empty cells are scored: those the
    # other epoch occupies, whose parent the reference occupies or passed.
    scored, kept = [], []
    survivors = np.empty(0, dtype=np.uint64)
    for depth in range(1, start):
        cells, spans = coarse_oth[start - depth]
        rows = np.flatnonzero(
            _entered(cells, coarse_ref[start - depth + 1][0], survivors)
            & ~_isin_sorted(cells, coarse_ref[start - depth][0])
        )
        cells, spans = cells[rows], spans[rows]
        survivors = cells[passed(cells, np.zeros_like(spans), spans, depth)]
        scored.append(len(cells))
        kept.append(len(survivors))
    # From start_depth on, every frontier cell is scored and only survivors'
    # children enter the next depth.
    (cells_ref, spans_ref), (cells_oth, spans_oth) = coarse_ref[0], coarse_oth[0]
    rows = np.flatnonzero(_entered(cells_oth, coarse_ref[1][0], survivors))
    cells, spans_ref, spans_oth = _merge_cells(cells_ref, spans_ref, cells_oth[rows], spans_oth[rows])
    del coarse_ref, coarse_oth, cells_ref, cells_oth
    for depth in range(start, params.max_depth + 1):
        if depth > start:
            cells, spans_ref, spans_oth = _child_frontier(ref, oth, spans_ref, spans_oth, depth - 1)
        rows = passed(cells, spans_ref, spans_oth, depth)
        scored.append(len(cells))
        kept.append(len(rows))
        cells, spans_ref, spans_oth = cells[rows], spans_ref[rows], spans_oth[rows]

    voxels = cells
    raw_ref = ref.span_members(spans_ref)
    raw_oth = oth.span_members(spans_oth)

    finest_edge = cube.edge / float(1 << params.max_depth)
    kept_ref, labels_ref = _filter_epoch(reference.xyz, raw_ref, finest_edge, params)
    kept_oth, labels_oth = _filter_epoch(other.xyz, raw_oth, finest_edge, params)

    return ChangeSet(
        cube=cube,
        depth=params.max_depth,
        voxel_codes=voxels,
        voxel_edge=finest_edge,
        raw_changed_reference=raw_ref,
        raw_changed_other=raw_oth,
        changed_reference=kept_ref,
        changed_other=kept_oth,
        component_labels_reference=labels_ref,
        component_labels_other=labels_oth,
        params=params,
        epoch_pair=epoch_pair,
        reference_size=len(reference),
        other_size=len(other),
        stats=DetectionStats(tuple(scored), tuple(kept)),
    )


def _auto_radius(points: np.ndarray, tree, finest_edge: float) -> float:
    """Component radius: no smaller than typical point spacing. `tree` is a
    kd-tree on `points`."""
    base = 1.5 * finest_edge
    if len(points) < 2:
        return base
    sample = points
    if len(sample) > 5000:
        step = len(sample) // 5000
        sample = sample[::step]
    dist, _ = tree.query(sample, k=2)
    spacing = float(np.median(dist[:, 1]))
    return max(base, 3.0 * spacing)


def _filter_epoch(points: np.ndarray, raw_indices: np.ndarray, finest_edge: float, params: ChangeParams):
    if not len(raw_indices):
        return raw_indices.copy(), np.empty(0, dtype=np.int64)
    pts = points[raw_indices]
    tree = kdtree(pts)
    radius = params.component_radius
    if radius is None:
        radius = _auto_radius(pts, tree, finest_edge)
    kept_local, labels = component_filter(pts, radius, params.component_min_size, tree=tree)
    return raw_indices[kept_local], labels


def component_filter(points, radius: float, min_size: int, *, tree=None):
    """Single-linkage clusters of `points`; drop clusters below `min_size`.

    Points within `radius` (inclusive) are connected. Returns (indices of
    surviving points, cluster label per surviving point). Labels are
    assigned by each cluster's lexicographically smallest coordinate, so the
    result is invariant under input ordering. `tree`, a kd-tree already built
    on exactly `points`, is queried instead of building a new one.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(pts)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if tree is None:
        tree = kdtree(pts)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    graph = sparse.coo_matrix(
        (np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    _, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels)
    keep = sizes[labels] >= min_size
    kept = np.flatnonzero(keep)
    if not len(kept):
        return kept, np.empty(0, dtype=np.int64)
    # Canonical labels: clusters ordered by their smallest point under
    # lexicographic (x, y, z) comparison.
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))] = np.arange(n)
    cluster_ids = labels[kept]
    first = np.full(len(sizes), n, dtype=np.int64)
    np.minimum.at(first, cluster_ids, rank[kept])
    # Dropped clusters keep first == n and sort last; ranks are distinct.
    order = np.empty(len(sizes), dtype=np.int64)
    order[np.argsort(first)] = np.arange(len(sizes))
    return kept, order[cluster_ids]
