"""Coarse-to-fine volumetric change detection between two epochs.

A `Lattice` fixes the voxel lattice: the union bounding cube of every cloud
it indexes, so no point of either epoch falls outside it, and the last
requested cloud's Morton codes, so a series encodes each epoch once and the
earlier epoch of an interval has no copy beside its joint index. Each
interval is one joint linear octree of both epochs' codes, so every cell is
one span holding the points of both. Each candidate cell is scored by tau,
the mean over its 8 octants of the squared difference of the two epochs'
point densities, in (points/m^3)^2; only cells above threshold are
subdivided, so unchanged space is discarded at coarse scale and changed
space is located at the finest scale. Every depth is scored in one batch:
the walk carries the index positions of the points still in play, and one
read of their codes gives the cells (runs of equal prefixes) and each
point's octant, one level below its cell. A cell's other-minus-reference
octant counts are those points counted per octant, each weighted by its
epoch's sign, and the changed points are the points left at the finest
depth, so nothing is re-encoded or searched per cell. Below the start depth
the walk takes one block of consecutive start cells at a time, about
_BLOCK_ENTRIES index entries, so its working memory is bounded by the block
rather than the interval. A connected-component pass then drops isolated
flagged points.
"""
from __future__ import annotations

import math
import numbers
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
    _runs,
    morton_codes,
    parent_cells,
    span_positions,
)

# Default score threshold in (points/m^3)^2, calibrated on the synthetic
# demolition suite (see tests/test_detection.py::TestThresholdDefault for the
# margin check); tau must sit above resampling noise at the coarse depth and
# below the score of genuinely emptied cells.
DEFAULT_THRESHOLD = 3.0e5

# Index entries per block of the walk below start_depth, which descends one
# block of consecutive start_depth cells at a time so that its temporaries
# stop growing with the interval. Peak RSS of the `demolition` benchmark
# (perfbench, seed 1, two runs each; 544,800 entries reach start_depth in its
# first interval) read 115.3-115.6 / 115.1-115.3 / 116.8-117.9 /
# 128.6-128.7 MiB at 2^14 / 2^16 / 2^18 entries and one block. From 2^16
# down the component filter sets the peak, and each block costs a few numpy
# calls.
_BLOCK_ENTRIES = 1 << 16


@dataclass
class ChangeParams:
    """Knobs of hierarchical_detect.

    A cell's score tau is the mean over its 8 octants of the squared
    difference of the two epochs' point densities, in (points/m^3)^2.

    Attributes:
        start_depth: octree depth where scoring begins.
        max_depth: finest depth, at most MAX_SUPPORTED_DEPTH - 1 (the
            octants of a finest cell are one code level below it);
            surviving cells at this depth form the changed-voxel set.
        thresholds: scalar tau applied at every depth, or one value per
            depth from start_depth to max_depth.
        component_radius: single-linkage radius of the component filter in
            metres; None picks max(1.5 * finest cell edge, 3 * median
            nearest-neighbour spacing of the flagged points).
        component_min_size: clusters smaller than this are discarded.
    """

    start_depth: int = 7
    max_depth: int = 11
    thresholds: Union[float, Sequence[float]] = DEFAULT_THRESHOLD
    component_radius: Optional[float] = None
    component_min_size: int = 50

    def __post_init__(self) -> None:
        # A fractional depth or size, or a bool, is no count.
        for name in ("start_depth", "max_depth", "component_min_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.start_depth <= self.max_depth <= MAX_SUPPORTED_DEPTH - 1:
            raise ValueError(
                f"need 1 <= start_depth <= max_depth <= {MAX_SUPPORTED_DEPTH - 1}, "
                f"got start={self.start_depth} max={self.max_depth}"
            )
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
            Only cells holding a point of either epoch, the nonempty spans
            of the interval's joint index, are scored; above start_depth
            only the reference-empty ones are.
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
    """One voxel lattice over a fixed set of clouds, and their codes.

    The cube is the union bounding cube of the clouds, so every point of
    every cloud lies inside it and no index needs a containment mask. A
    cloud is recognised by identity; any other cloud is refused, since its
    points outside the cube would be clipped into edge cells. Only the last
    requested cloud's Morton codes are kept, until another cloud is
    requested. Consecutive intervals of a series share one epoch, the later
    epoch of one and the earlier of the next, and each interval requests
    its earlier epoch first, so a series encodes each cloud once, and an
    interval's earlier epoch has no copy beside its joint index.

    Attributes:
        cube: the union bounding cube, the root of every voxel code.
    """

    def __init__(self, clouds: Sequence[PointCloud]) -> None:
        self._clouds = {}
        for cloud in clouds:
            self._clouds.setdefault(id(cloud), cloud)
        try:
            self.cube = bounding_cube(*self._clouds.values())
        except ValueError:
            if not any(len(cloud) for cloud in self._clouds.values()):
                raise
            # With no padding, points bound no cube only when they coincide.
            raise ValueError(
                "every point of every cloud coincides, so the voxel lattice would have zero edge"
            ) from None
        self._key = None
        self._codes = None

    def codes(self, cloud: PointCloud, code_depth: int) -> np.ndarray:
        """Morton codes of `cloud`'s points on the lattice at `code_depth`,
        in input order."""
        if self._clouds.get(id(cloud)) is not cloud:
            raise ValueError("cloud is not one of the clouds the lattice was built from")
        key = (id(cloud), code_depth)
        if key != self._key:
            self._key, self._codes = key, morton_codes(cloud.xyz, self.cube, code_depth)
        return self._codes


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
    point of both epochs. The interval has one joint index, a linear octree
    of both epochs' codes (`lattice.codes`, so a lattice shared by
    consecutive intervals encodes each cloud once) in which every cell is
    one span holding the points of both epochs. Scoring starts at
    params.start_depth (reference-empty leaves are scored once at their own
    bounds) and descends only into cells whose score reaches the depth's
    threshold. A cell's score is tau, the mean over its 8 octants of the
    squared difference of the two epochs' point densities, in
    (points/m^3)^2.

    The start_depth cells are read in one pass, as the runs of equal code
    prefixes with their [lo, hi) spans (`Octree.cells`), and the cells of
    every coarser depth are the runs of their prefixes, so the depths above
    start_depth are not walked: there only the cells the reference leaves
    empty are scored, each if its parent is reference-occupied or passed,
    and a start_depth cell enters the frontier only under such a parent.
    From start_depth on, the frontier is the sorted index positions of the
    points in the cells still in play, converted from the spans once
    (`span_positions`). Each depth gathers their codes once: the runs of
    equal prefixes are the cells, and the code bits one level below a cell
    are each point's octant. A cell's other-minus-reference octant counts
    are one bincount of those points, each weighted by its epoch's sign;
    the points of the cells that pass are the next frontier, so no depth
    searches the index. Cells empty in both epochs score exactly 0, below
    every threshold, so they never enter the frontier. The changed points
    are the frontier left after max_depth.

    The start_depth cells in play are walked down to max_depth one block
    at a time (`_blocks`: consecutive cells holding about _BLOCK_ENTRIES
    index entries), so the walk's temporaries are bounded by the block, not
    by the interval. A cell's descendants lie in its block and the blocks
    are in Morton order, so the finest cells and the changed points are
    the blocks' concatenated, and each depth's funnel counts are the sums
    of the blocks', exactly as one walk over every cell would give them.
    """
    params = params or ChangeParams()
    if len(reference) == 0 or len(other) == 0:
        raise ValueError("both epochs must be nonempty")
    if lattice is None:
        lattice = Lattice((reference, other))
    cube = lattice.cube
    # One code level below max_depth holds the finest cells' octants.
    code_depth = params.max_depth + 1
    n_ref = len(reference)
    index = Octree(
        np.concatenate([lattice.codes(reference, code_depth), lattice.codes(other, code_depth)]),
        code_depth,
    )
    # -1 for each reference entry of the index, +1 for each other-epoch one.
    sign = np.where(index.order < n_ref, np.int8(-1), np.int8(1))

    def passed(pos, depth):
        """(cells, row, hit) of the cells at `depth` holding the sorted index
        positions `pos`: their codes, each entry's row and whether each
        cell's score reaches the threshold. One gather of the codes gives
        the cells, as runs of equal prefixes, and each entry's octant."""
        # In place, and each buffer freed once read: at start_depth `pos`
        # may cover the whole index, and these temporaries set peak memory.
        code = index.sorted_codes[pos]
        code >>= np.uint64(3 * (code_depth - depth - 1))
        octant = code & np.uint64(7)
        code >>= np.uint64(3)
        starts, counts = _runs(code)
        cells = code[starts]
        counts -= starts
        del code, starts
        # Each entry's bin: 8 * its cell's row + its octant.
        row = np.repeat(np.arange(0, 8 * len(cells), 8), counts)
        del counts
        row += octant.view(np.intp)
        del octant
        # A weighted bincount of no entries is int64, not float64.
        diff = np.bincount(row, weights=sign[pos], minlength=len(cells) * 8)
        diff = diff.astype(np.float64, copy=False).reshape(len(cells), 8)
        diff /= (cube.edge / float(1 << depth) / 2) ** 3
        score = np.square(diff, out=diff).sum(axis=1)
        score /= 8
        row >>= 3  # each entry's bin back to its cell's row
        return cells, row, score >= params.threshold_at(depth)

    # The occupied cells at each depth 0..start: the start_depth cells read
    # in one pass, then the runs of their prefixes.
    start = params.start_depth
    levels = [index.cells(start)]
    for _ in range(start):
        levels.append(parent_cells(*levels[-1], 1))
    levels.reverse()
    # A cell enters when its parent is reference-occupied or passed: `open_`
    # marks those cells one depth up. The root holds the reference.
    scored, kept = [], []
    open_ = np.ones(1, dtype=bool)
    for depth in range(1, start + 1):
        cells, spans = levels[depth]
        rows = np.flatnonzero(open_[np.searchsorted(levels[depth - 1][0], cells >> np.uint64(3))])
        if depth == start:
            break
        # Above start_depth only the reference-empty cells are scored.
        open_ = np.minimum.reduceat(sign, spans[:, 0]) < 0
        rows = rows[~open_[rows]]
        hits = rows[passed(span_positions(spans[rows]), depth)[2]]
        open_[hits] = True
        scored.append(len(rows))
        kept.append(len(hits))
    blocks = _blocks(spans[rows])
    del levels, open_, cells, spans, rows
    depths = range(start, params.max_depth + 1)
    finest, survivors, block_scored, block_kept = zip(
        *(_descend(passed, block, depths) for block in blocks)
    )
    cells, pos = np.concatenate(finest), np.concatenate(survivors)
    scored += [sum(counts) for counts in zip(*block_scored)]
    kept += [sum(counts) for counts in zip(*block_kept)]

    members = index.order[pos]
    members.sort()
    split = np.searchsorted(members, n_ref)
    raw_ref, raw_oth = members[:split], members[split:] - n_ref

    finest_edge = cube.edge / float(1 << params.max_depth)
    kept_ref, labels_ref = _filter_epoch(reference.xyz, raw_ref, finest_edge, params)
    kept_oth, labels_oth = _filter_epoch(other.xyz, raw_oth, finest_edge, params)

    return ChangeSet(
        cube=cube,
        depth=params.max_depth,
        voxel_codes=cells,
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


def _blocks(spans: np.ndarray) -> list:
    """The [lo, hi) spans of consecutive cells cut into blocks, at least
    one. A block starts at a cell whose count of entries before it enters
    a new multiple of _BLOCK_ENTRIES, or at a cell holding _BLOCK_ENTRIES
    entries or more, so a block holds fewer than 2 * _BLOCK_ENTRIES entries
    or is one cell."""
    lengths = spans[:, 1] - spans[:, 0]
    window = (np.cumsum(lengths) - lengths) // _BLOCK_ENTRIES
    cuts = np.flatnonzero((window[1:] != window[:-1]) | (lengths[1:] >= _BLOCK_ENTRIES))
    return np.split(spans, cuts + 1)


def _descend(passed, spans: np.ndarray, depths: range) -> tuple:
    """Walk the start cells with the given spans down `depths`, scoring
    with `passed`: (finest surviving cells, their points' index positions,
    cells scored and cells kept at each depth). Every frontier cell is
    scored, and only survivors' points go on to the next depth."""
    pos = span_positions(spans)
    scored, kept = [], []
    for depth in depths:
        cells, row, hit = passed(pos, depth)
        pos = pos[hit[row]]
        del row
        cells = cells[hit]
        scored.append(len(hit))
        kept.append(len(cells))
    return cells, pos, scored, kept


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
    surviving points, cluster label per surviving point). Labels number the
    surviving clusters in the lexicographic (x, y, z) order of each
    cluster's smallest point, so the result is invariant under input
    ordering. That point is found without sorting the whole set: each
    cluster's least x comes from np.minimum.at, and only the points lying at
    it are sorted. No two clusters share a smallest point, since equal
    points are 0 <= radius apart and so in one cluster. `tree`, a kd-tree
    already built on exactly `points`, is queried instead of building a new
    one.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(pts)
    if not np.isfinite(radius) or radius < 0:
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
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
    # Each of these is the largest array of its step: freed once read.
    del pairs
    _, labels = connected_components(graph, directed=False)
    del graph
    sizes = np.bincount(labels)
    keep = sizes[labels] >= min_size
    kept = np.flatnonzero(keep)
    if not len(kept):
        return kept, np.empty(0, dtype=np.int64)
    cluster_ids = labels[kept]
    x = pts[kept, 0]
    low = np.full(len(sizes), np.inf)
    np.minimum.at(low, cluster_ids, x)
    # Every point at its cluster's least x is a candidate (a NaN x, which
    # never connects, is one too). Sorted, each cluster's first candidate is
    # its smallest point.
    cand = kept[~(x > low[cluster_ids])]
    cand = cand[np.lexsort((pts[cand, 2], pts[cand, 1], pts[cand, 0]))]
    first = np.full(len(sizes), len(cand), dtype=np.int64)
    np.minimum.at(first, labels[cand], np.arange(len(cand)))
    # Dropped clusters keep first == len(cand) and sort last; the others
    # differ.
    order = np.empty(len(sizes), dtype=np.int64)
    order[np.argsort(first)] = np.arange(len(sizes))
    return kept, order[cluster_ids]
