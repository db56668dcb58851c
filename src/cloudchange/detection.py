"""Coarse-to-fine volumetric change detection between two epochs.

A `Lattice` fixes the voxel lattice: the union bounding cube of every cloud
it indexes, so no point of either epoch falls outside it, and the last
requested cloud's Morton codes, so a series encodes each epoch once and the
earlier epoch of an interval has no copy beside its joint index. Each
interval is one joint linear octree of both epochs' codes, given to it as a
pair of parts rather than concatenated, so every cell is one span holding
the points of both. Each candidate cell is scored by tau, the mean over its
8 octants of the squared difference of the two epochs' point densities, in
(points/m^3)^2; only cells above threshold are subdivided, so unchanged
space is discarded at coarse scale and changed space is located at the
finest scale. Every depth is scored in one batch: the walk carries the index
positions of the points still in play, and one read of their codes gives the
cells (runs of equal prefixes) and each point's octant, one level below its
cell. A cell's other-minus-reference octant counts are those points counted
per octant, each weighted by its epoch's sign, and the changed points are
the points left at the finest depth, so nothing is re-encoded or searched
per cell. The signs are one comparison of the index's input positions with
the reference's size, read as int8, doubled and less 1. A cell's score adds
its 8 squared octant densities column by column, ((s0 + s1) + (s2 + s3)) +
((s4 + s5) + (s6 + s7)): the pairwise order in which numpy sums a contiguous
row of 8, so every score is bit-equal to a row sum without numpy's slow
reduction over a short axis. The start cells in play are scored one block
of consecutive cells at a time, about _BLOCK_ENTRIES index entries, read as
one slice of the index when their spans tile a range and gathered where
they leave gaps. Below the start depth the survivors of consecutive blocks
are walked as one group, flushed once it holds _BLOCK_ENTRIES entries, so
the walk's working memory is bounded by _BLOCK_ENTRIES rather than the
interval, and the few survivors of the deeper depths take few calls. A
connected-component pass then drops isolated flagged points: it links the
grid cells of edge `component_radius` that hold flagged points, each to its
26 neighbours, so it needs no point pairs.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .geometry import BoundingCube, PointCloud, _as_points_array, axis_bounds, bounding_cube
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

# Index entries per block of start_depth cells and per group of the walk
# below it, which bound the walk's temporaries: a block holds fewer than
# 2 * _BLOCK_ENTRIES entries and a group fewer than 3 * _BLOCK_ENTRIES,
# unless one start cell holds more. Peak RSS of the `demolition` benchmark
# (perfbench, seed 1, two runs each; 544,800 entries reach start_depth in its
# first interval), with each block walked down on its own, read
# 115.3-115.6 / 115.1-115.3 / 116.8-117.9 / 128.6-128.7 MiB at 2^14 / 2^16 /
# 2^18 entries and one block. From 2^16 down the walk no longer sets the
# peak. Each block and each group costs a few numpy calls per depth, so the
# deeper depths, where a few percent of the entries survive, are walked in
# groups rather than per block.
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
        component_radius: cell edge in metres of the component filter's
            grid, whose occupied cells are linked to their 26 neighbours:
            points within this radius always share a cluster, and points in
            linked cells are less than 2 * sqrt(3) times it apart. None picks
            max(1.5 * finest cell edge, 3 * median nearest-neighbour
            spacing of the flagged points).
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
    consecutive intervals encodes each cloud once), built from the pair of
    code arrays with no concatenation, in which every cell is one span
    holding the points of both epochs. Scoring starts at
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
    From start_depth on, the frontier is the index entries of the points in
    the cells still in play: a slice of the index or sorted positions at
    start_depth, and below it the positions of the survivors. Each depth
    reads their codes once: the runs of equal prefixes are the cells, and
    the code bits one level below a cell are each point's octant. A cell's
    other-minus-reference octant counts are one bincount of those points,
    each weighted by its epoch's sign; the points of the cells that pass
    are the next frontier, so no depth searches the index. Cells empty in both epochs score exactly 0, below
    every threshold, so they never enter the frontier. The changed points
    are the frontier left after max_depth.

    The start_depth cells in play are scored one block at a time (`_blocks`:
    consecutive cells holding about _BLOCK_ENTRIES index entries). A block
    whose spans tile one range of the index is read as a slice of it, and
    one with gaps, left by cells that did not enter, through its positions
    (`_enter`). The survivors of consecutive blocks are then walked down to
    max_depth as one group (`_groups`, flushed once it holds _BLOCK_ENTRIES
    entries; `_descend`). So the walk's temporaries are bounded by
    _BLOCK_ENTRIES, not by the interval. A cell's descendants lie in its
    block and group, and both are in Morton order, so the finest cells and
    the changed points are the groups' concatenated, and each depth's funnel
    counts are the sums of the blocks' or groups', exactly as one walk over
    every cell would give them. The index is freed before the component
    filter runs.
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
    index = Octree((lattice.codes(reference, code_depth), lattice.codes(other, code_depth)), code_depth)
    # -1 for each reference entry of the index, +1 for each other-epoch one:
    # the comparison's 0 or 1 as int8, doubled, minus 1. On 544,800 entries
    # this takes 0.38 ms, and np.where with scalar int8 arguments 2.9 ms.
    sign = (index.order >= n_ref).view(np.int8)
    sign <<= 1
    sign -= 1

    def passed(at, depth):
        """(cells, row, hit) of the cells at `depth` holding the index entries
        `at`, a slice of the index or its sorted positions: their codes, each
        entry's row and whether each cell's score reaches the threshold. One
        read of the codes gives the cells, as runs of equal prefixes, and
        each entry's octant."""
        # In place, and each buffer freed once read: these temporaries set
        # the walk's memory.
        shift = np.uint64(3 * (code_depth - depth - 1))
        if isinstance(at, slice):
            code = np.right_shift(index.sorted_codes[at], shift)
        else:
            code = index.sorted_codes[at]
            code >>= shift
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
        diff = np.bincount(row, weights=sign[at], minlength=len(cells) * 8)
        diff = diff.astype(np.float64, copy=False).reshape(len(cells), 8)
        diff /= (cube.edge / float(1 << depth) / 2) ** 3
        score = _square_sums(diff)
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
    # Every start cell in play holds an entry, so each is scored.
    scored.append(len(rows))
    blocks = _blocks(spans[rows])
    del levels, open_, cells, spans, rows
    entered = (_enter(passed, block, start) for block in blocks)
    depths = range(start + 1, params.max_depth + 1)
    finest, survivors, group_scored, group_kept = zip(
        *(_descend(passed, group, depths) for group in _groups(entered))
    )
    cells, pos = np.concatenate(finest), np.concatenate(survivors)
    scored += [sum(counts) for counts in zip(*group_scored)]
    kept += [sum(counts) for counts in zip(*group_kept)]

    members = index.order[pos]
    # The index is not read again: free it before the component filter,
    # whose own buffers then set the interval's peak.
    del index, sign, passed, entered, blocks, survivors, pos
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


def _square_sums(diff: np.ndarray) -> np.ndarray:
    """Each row's sum of squares of an (n, 8) float64 array, squared in
    place. The columns are added as ((s0 + s1) + (s2 + s3)) + ((s4 + s5) +
    (s6 + s7)), the pairwise order in which numpy sums a contiguous row of 8,
    so each sum is bit-equal to np.square(diff).sum(axis=1). On 30,000 rows,
    squares included, this takes 0.27-0.31 ms and the row sum 0.61 ms."""
    sq = np.square(diff, out=diff)
    score = sq[:, 0] + sq[:, 1]
    pair = sq[:, 2] + sq[:, 3]
    score += pair
    np.add(sq[:, 4], sq[:, 5], out=pair)
    pair += sq[:, 6] + sq[:, 7]
    score += pair
    return score


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


def _span_entries(spans: np.ndarray) -> Union[slice, np.ndarray]:
    """The index entries of sorted, disjoint [lo, hi) spans: one slice when
    the spans tile one range, otherwise every position in them."""
    if not len(spans):
        return slice(0, 0)
    lo, hi = int(spans[0, 0]), int(spans[-1, 1])
    if hi - lo == int((spans[:, 1] - spans[:, 0]).sum()):
        return slice(lo, hi)
    return span_positions(spans)


def _enter(passed, spans: np.ndarray, depth: int) -> tuple:
    """Score one block of start cells, with the given spans, at `depth`:
    (the codes of the cells that pass, their entries' sorted index
    positions). Spans that tile one range are read as a slice of the index;
    others are gathered."""
    at = _span_entries(spans)
    cells, row, hit = passed(at, depth)
    keep = hit[row]
    del row
    if isinstance(at, slice):
        pos = np.flatnonzero(keep)
        pos += at.start
    else:
        pos = at[keep]
    return cells[hit], pos


def _groups(entries):
    """The (cells, positions) pairs of consecutive start blocks, at least
    one, collected into lists, each yielded once it holds _BLOCK_ENTRIES
    positions; the last holds the rest, if any positions are left or no
    list was yielded, so at least one is. Nothing else holds a yielded
    list's pairs, so a consumer that empties it frees them."""
    group, held, flushed = [], 0, False
    for cells, pos in entries:
        group.append((cells, pos))
        held += len(pos)
        del cells, pos
        if held >= _BLOCK_ENTRIES:
            yield group
            group, held, flushed = [], 0, True
    if held or not flushed:
        yield group


def _descend(passed, group: list, depths: range) -> tuple:
    """Walk one group of start-depth survivors down `depths`, scoring with
    `passed`: (finest surviving cells, their points' index positions, cells
    scored at each of `depths`, cells kept at the start depth and at each of
    `depths`). `group` holds the (cells, sorted index positions) pairs of
    consecutive start blocks; they are joined and the list is emptied, so
    each depth's positions are freed once the next depth's are taken. Every
    frontier cell is scored, and only survivors' points go on to the next
    depth."""
    if len(group) == 1:
        cells, pos = group[0]
    else:
        cells, pos = map(np.concatenate, zip(*group))
    group.clear()
    scored, kept = [], [len(cells)]
    for depth in depths:
        cells, row, hit = passed(pos, depth)
        pos = pos[hit[row]]
        del row
        cells = cells[hit]
        scored.append(len(hit))
        kept.append(len(cells))
    return cells, pos, scored, kept


def _auto_radius(points: np.ndarray, finest_edge: float) -> float:
    """Component radius: no smaller than typical point spacing, sampled
    with a kd-tree on `points`."""
    base = 1.5 * finest_edge
    if len(points) < 2:
        return base
    tree = kdtree(points)
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
    radius = params.component_radius
    if radius is None:
        radius = _auto_radius(pts, finest_edge)
    kept_local, labels = component_filter(pts, radius, params.component_min_size)
    return raw_indices[kept_local], labels


def component_filter(points, radius: float, min_size: int):
    """Clusters of `points` linked through a grid; drop clusters below `min_size`.

    The grid's cell edge is `radius` and it is anchored at the points' least
    corner, so a point's cell is floor((p - least corner) / radius) on each
    axis. Occupied cells that differ by at most one on every axis (the 26
    neighbours) are linked, and a cluster is a connected set of cells with
    the points in them (Hoshen & Kopelman's lattice labelling). Two points
    within `radius` (inclusive) are in one cell or in linked cells, so each
    single-linkage cluster at `radius` lies inside one cluster here; points
    in linked cells are less than 2 * sqrt(3) * `radius` apart. At radius 0
    only coincident points are linked.

    Returns (indices of surviving points, cluster label per surviving
    point). Labels number the surviving clusters in the lexicographic
    (x, y, z) order of each cluster's smallest point, so the result is
    invariant under input ordering. That point is found without sorting the
    whole set: each cluster's least x comes from np.minimum.at, and only the
    points lying at it are sorted. No two clusters share a smallest point,
    since equal points share a cell. Non-finite coordinates are refused.
    """
    pts = _as_points_array(points)
    n = len(pts)
    if not np.isfinite(radius) or radius < 0:
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if radius == 0:
        _, labels = np.unique(pts, axis=0, return_inverse=True)
    else:
        labels = _cell_components(pts, radius)
    sizes = np.bincount(labels)
    keep = sizes[labels] >= min_size
    kept = np.flatnonzero(keep)
    if not len(kept):
        return kept, np.empty(0, dtype=np.int64)
    cluster_ids = labels[kept]
    x = pts[kept, 0]
    low = np.full(len(sizes), np.inf)
    np.minimum.at(low, cluster_ids, x)
    # Every point at its cluster's least x is a candidate. Sorted, each
    # cluster's first candidate is its smallest point.
    cand = kept[x == low[cluster_ids]]
    cand = cand[np.lexsort((pts[cand, 2], pts[cand, 1], pts[cand, 0]))]
    first = np.full(len(sizes), len(cand), dtype=np.int64)
    np.minimum.at(first, labels[cand], np.arange(len(cand)))
    # Dropped clusters keep first == len(cand) and sort last; the others
    # differ.
    order = np.empty(len(sizes), dtype=np.int64)
    order[np.argsort(first)] = np.arange(len(sizes))
    return kept, order[cluster_ids]


def _cell_components(pts: np.ndarray, radius: float) -> np.ndarray:
    """Component label of each point's grid cell, as component_filter
    defines them for a radius above 0."""
    lo, hi = axis_bounds(pts)
    cells = pts - lo
    cells /= radius
    np.floor(cells, out=cells)
    spans = np.floor((hi - lo) / radius) + 1
    if spans.max() > 2.0 ** 53:
        # Past 2^53 a float64 no longer counts cells one by one.
        raise ValueError(
            f"radius {radius} is too small for the points' extent {(hi - lo).tolist()}: "
            f"more than 2^53 cells along an axis"
        )
    if not _packs(spans):
        cells = _close_gaps(cells)
        spans = cells.max(axis=0) + 1
        if not _packs(spans):
            raise ValueError(f"too many occupied grid cells along every axis to pack: {spans.tolist()}")
    # Cell (x, y, z) packs into x * sy + y * sz + z. The strides leave one
    # empty slot past each row in y and z, so a neighbour one step outside
    # the grid packs onto an empty slot, never onto another row's cell.
    sz = int(spans[2]) + 1
    sy = (int(spans[1]) + 1) * sz
    keys = cells.astype(np.int64) @ np.array([sy, sz, 1])
    del cells
    # One sort: the runs of equal keys are the cells.
    cell_keys, point_cell = np.unique(keys, return_inverse=True)
    del keys

    # Each cell is linked to its neighbours with larger keys: the next cell
    # along z, and four runs of three keys along z (z - 1, z, z + 1), one
    # step along y, or one step along x with y - 1, y or y + 1. The keys are
    # unique and sorted, so a run's occupied cells follow where its least
    # key would be inserted. The first two of them are linked; a third
    # comes after the run's middle cell, which links to it along z.
    m = len(cell_keys)
    rows = [np.flatnonzero(np.diff(cell_keys) == 1)]
    cols = [rows[0] + 1]
    for offset in (sz, sy - sz, sy, sy + sz):
        centre = cell_keys + offset
        first = np.searchsorted(cell_keys, centre - 1)
        for step in range(2):
            # Clipped past the last cell, a run may find a cell twice; a
            # repeated link changes no component.
            pos = np.minimum(first + step, m - 1)
            hit = np.flatnonzero(np.abs(cell_keys[pos] - centre) <= 1)
            rows.append(hit)
            cols.append(pos[hit])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    graph = sparse.coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(m, m))
    _, cell_labels = connected_components(graph, directed=False)
    return cell_labels[point_cell]


def _packs(spans: np.ndarray) -> bool:
    """Whether every key of a grid with these cells per axis, and of the
    neighbours one step past it, fits an int64."""
    nx, ny, nz = (int(s) + 1 for s in spans)
    return nx * ny * nz <= np.iinfo(np.int64).max


def _close_gaps(cells: np.ndarray) -> np.ndarray:
    """Renumber each axis's occupied cell indices so that every gap of more
    than one cell becomes one empty cell. Which cells neighbour each other
    is unchanged, and an axis then spans fewer than twice its occupied
    indices."""
    closed = np.empty(cells.shape, dtype=np.float64)
    for axis in range(cells.shape[1]):
        values, inverse = np.unique(cells[:, axis], return_inverse=True)
        steps = np.minimum(np.diff(values), 2.0)
        closed[:, axis] = np.concatenate(([0.0], np.cumsum(steps)))[inverse]
    return closed
