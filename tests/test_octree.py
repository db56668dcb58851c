import warnings

import numpy as np
import pytest

from cloudchange.geometry import BoundingCube, PointCloud, bounding_cube
from cloudchange.octree import (
    _BLOCK,
    MAX_SUPPORTED_DEPTH,
    Octree,
    _position_bits,
    cell_bounds,
    decode_cell,
    morton_codes,
    parent_cells,
    span_positions,
)
from detection_reference import cell_indices, unblocked_morton_codes


def octant_corners():
    # One point strictly inside each octant of the unit cube.
    return np.array(
        [[x, y, z] for x in (0.25, 0.75) for y in (0.25, 0.75) for z in (0.25, 0.75)]
    )


def index_of(pts, code_depth):
    """(index, cube) of `pts` over their tight bounding cube."""
    cube = bounding_cube(PointCloud(pts))
    return Octree(morton_codes(pts, cube, code_depth), code_depth), cube


def prefixes(index, depth):
    """Each sorted code's ancestor at `depth`."""
    return index.sorted_codes >> np.uint64(3 * (index.code_depth - depth))


def occupied(index, depth):
    """Codes of the occupied cells at `depth`, in Morton order."""
    return np.unique(prefixes(index, depth))


def reference_spans(index, cells, depth):
    """Span of each cell at `depth` by plain counting, no search:
    [count(prefix < c), count(prefix <= c)] over the sorted codes'
    prefixes. An unoccupied cell gets an empty span."""
    prefix = prefixes(index, depth)
    cells = np.asarray(cells, dtype=np.uint64)
    out = np.empty((len(cells), 2), dtype=np.int64)
    for start in range(0, len(cells), 512):
        block = cells[start:start + 512, None]
        out[start:start + 512, 0] = (prefix < block).sum(axis=1)
        out[start:start + 512, 1] = (prefix <= block).sum(axis=1)
    return out


def reference_members(index, cells, depth):
    """Sorted caller indices of the points inside any of `cells`, by a scan
    of every point."""
    return np.sort(index.order[np.isin(prefixes(index, depth), cells)])


def root(index):
    """(codes, spans) of the root cell: the whole index."""
    return np.zeros(1, dtype=np.uint64), np.array([[0, len(index)]])


def members(index, spans):
    """Sorted caller indices of the points inside the given spans: the
    `order` entries of each span, read one span at a time."""
    return np.sort(np.concatenate([index.order[lo:hi] for lo, hi in spans] + [np.empty(0, np.intp)]))


def split(index, depth, lo, hi):
    """(codes, spans) of the occupied children at depth + 1 of the cell at
    `depth` whose span is [lo, hi), by np.unique over the codes in it."""
    codes, first = np.unique(prefixes(index, depth + 1)[lo:hi], return_index=True)
    edges = np.append(first, hi - lo) + lo
    return codes, np.stack([edges[:-1], edges[1:]], axis=1)


def descend(index, depth):
    """(codes, spans) of the occupied cells at `depth`, walked down from the
    root one cell at a time through `split`."""
    codes, spans = root(index)
    for d in range(depth):
        parts = [split(index, d, lo, hi) for lo, hi in spans]
        codes = np.concatenate([p[0] for p in parts])
        spans = np.concatenate([p[1] for p in parts])
    return codes, spans


def children(index, cells, depth):
    """(codes, spans) of the occupied children at depth + 1 of the sorted
    cells `cells` at `depth`, read off `index.cells(depth + 1)`."""
    kids, spans = index.cells(depth + 1)
    keep = np.isin(kids >> np.uint64(3), cells)
    return kids[keep], spans[keep]


def walk(index, min_split):
    """Leaves of the adaptive octree that splits a cell only while it holds
    at least `min_split` points, as (depth, code, lo, hi), checking at every
    split that the occupied children tile the parent's span in order."""
    stack = [(0, np.uint64(0), 0, len(index))]
    while stack:
        depth, code, lo, hi = stack.pop()
        if depth == index.code_depth or hi - lo < min_split:
            yield depth, code, lo, hi
            continue
        codes, spans = split(index, depth, lo, hi)
        assert np.all(codes >> np.uint64(3) == code)
        assert np.all(np.diff(codes.astype(np.int64)) > 0)
        assert spans[0, 0] == lo and spans[-1, 1] == hi
        np.testing.assert_array_equal(spans[1:, 0], spans[:-1, 1])
        for child, (child_lo, child_hi) in zip(codes, spans):
            stack.append((depth + 1, child, child_lo, child_hi))


class TestBuild:
    def test_eight_octants_single_level(self):
        cube_pts = octant_corners()
        # Corners pin the bounding cube to the unit cube.
        pts = np.vstack([cube_pts, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
        index, _ = index_of(pts, 1)
        codes, spans = index.cells(1)
        counts = spans[:, 1] - spans[:, 0]
        np.testing.assert_array_equal(codes, np.arange(8))
        assert sorted(counts) == [1, 1, 1, 1, 1, 1, 2, 2]  # corners join octants 0 and 7
        assert counts.sum() == len(pts)

    def test_empty_index_answers_every_query(self):
        # The other epoch may have no point inside the reference cube.
        index = Octree(np.empty(0, dtype=np.uint64), 5)
        assert len(index) == 0
        for d in range(6):
            codes, spans = index.cells(d)
            assert len(codes) == 0 and spans.shape == (0, 2)
            np.testing.assert_array_equal(
                reference_spans(index, np.arange(8, dtype=np.uint64), d), np.zeros((8, 2))
            )
        assert len(span_positions(root(index)[1])) == 0
        assert len(span_positions(np.array([[0, 0]] * 3))) == 0
        assert len(span_positions(np.empty((0, 2), dtype=np.int64))) == 0

    def test_depth_bounds_validated(self):
        codes = np.arange(8, dtype=np.uint64)
        with pytest.raises(ValueError):
            Octree(codes, -1)
        with pytest.raises(ValueError):
            Octree(codes, 22)
        Octree(codes, 21)

    def test_caller_indices_follow_codes(self):
        codes = np.array([5, 1, 5, 0, 3], dtype=np.uint64)
        index = Octree(codes, 1)
        np.testing.assert_array_equal(index.sorted_codes, [0, 1, 3, 5, 5])
        # `order` holds input positions; the sort is stable, so equal codes
        # keep their input order.
        np.testing.assert_array_equal(index.order, [3, 1, 4, 0, 2])
        cells, spans = index.cells(1)
        np.testing.assert_array_equal(cells, [0, 1, 3, 5])
        np.testing.assert_array_equal(members(index, spans[[1, 3]]), [0, 1, 2])

    def test_codes_beyond_code_depth_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            Octree(np.array([3, 8], dtype=np.uint64), 1)
        with pytest.raises(ValueError, match="exceed"):
            Octree(np.array([1], dtype=np.uint64), 0)
        Octree(np.array([0, 7], dtype=np.uint64), 1)

    @pytest.mark.parametrize("code_depth,n,packed", [
        # 3 * code_depth bits of code above the bits of a position < n.
        (MAX_SUPPORTED_DEPTH, 2, True),
        (MAX_SUPPORTED_DEPTH, 3, False),
        (16, 1 << 16, True),
        (16, (1 << 16) + 1, False),
        (5, 1, True),
    ])
    @pytest.mark.parametrize("strided", [False, True])
    def test_sort_on_both_sides_of_key_budget(self, code_depth, n, packed, strided):
        assert (_position_bits(n, code_depth) is not None) == packed
        rng = np.random.default_rng(code_depth + n)
        top = 8 ** code_depth - 1
        # Few distinct codes, the extremes among them: many ties.
        choices = np.array([0, 1, top // 2, top - 1, top], dtype=np.uint64)
        codes = rng.choice(choices, size=n)
        codes[:2] = [top, 0][:n]
        if strided:
            # A non-contiguous view of the caller's codes.
            wide = np.zeros(2 * n, dtype=np.uint64)
            wide[::2] = codes
            codes = wide[::2]
        given = codes.copy()
        index = Octree(codes, code_depth)
        np.testing.assert_array_equal(codes, given)  # the caller's codes are untouched
        stable = np.argsort(codes, kind="stable")
        assert index.sorted_codes.dtype == np.uint64
        np.testing.assert_array_equal(index.sorted_codes, codes[stable])
        # Ties keep their input order, so `order` is the stable argsort.
        np.testing.assert_array_equal(index.order, stable)


class TestCells:
    """The occupied cells at one depth, read in one pass, equal the cells
    walked down from the root; their parents are runs of their codes."""

    @pytest.mark.parametrize("seed,n,code_depth", [(30, 2000, 6), (31, 700, 12)])
    def test_cells_match_walk_and_counts(self, seed, n, code_depth):
        rng = np.random.default_rng(seed)
        index, _ = index_of(rng.normal(scale=4.0, size=(n, 3)), code_depth)
        for d in range(code_depth + 1):
            cells, spans = index.cells(d)
            walked, walked_spans = descend(index, d)
            np.testing.assert_array_equal(cells, walked)
            np.testing.assert_array_equal(spans, walked_spans)
            np.testing.assert_array_equal(spans, reference_spans(index, cells, d))
            for up in range(d + 1):
                parents, parent_spans = parent_cells(cells, spans, up)
                expected, expected_spans = index.cells(d - up)
                np.testing.assert_array_equal(parents, expected)
                np.testing.assert_array_equal(parent_spans, expected_spans)

    def test_empty_index_and_depth_bounds(self):
        empty = Octree(np.empty(0, dtype=np.uint64), 4)
        cells, spans = empty.cells(2)
        assert len(cells) == 0 and spans.shape == (0, 2)
        parents, parent_spans = parent_cells(cells, spans, 1)
        assert len(parents) == 0 and parent_spans.shape == (0, 2)
        with pytest.raises(ValueError):
            empty.cells(5)
        with pytest.raises(ValueError):
            empty.cells(-1)


class TestStructure:
    @pytest.mark.parametrize("seed,n,depth,min_split", [
        (0, 500, 4, 1),
        (1, 2000, 6, 1),
        (2, 3000, 5, 8),
        (3, 1000, 11, 4),
        (4, 64, 2, 1),
    ])
    def test_partition_and_leaf_rules(self, seed, n, depth, min_split):
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=5.0, size=(n, 3))
        index, _ = index_of(pts, depth)
        np.testing.assert_array_equal(np.sort(index.order), np.arange(n))
        np.testing.assert_array_equal(index.cells(0)[1], root(index)[1])
        for d in range(depth + 1):
            cells, pos = index.cells(d)
            np.testing.assert_array_equal(cells, occupied(index, d))
            np.testing.assert_array_equal(pos, reference_spans(index, cells, d))
            # The occupied cells' spans tile [0, n) in Morton order.
            assert pos[0, 0] == 0 and pos[-1, 1] == n
            np.testing.assert_array_equal(pos[1:, 0], pos[:-1, 1])
            assert np.all(pos[:, 1] > pos[:, 0])
            if d < depth:
                # Children's counts sum to each parent's count, and the
                # children of a cell tile its span.
                kids, kid_pos = index.cells(d + 1)
                parent = np.searchsorted(cells, kids >> np.uint64(3))
                np.testing.assert_array_equal(cells[parent], kids >> np.uint64(3))
                sums = np.bincount(parent, weights=kid_pos[:, 1] - kid_pos[:, 0], minlength=len(cells))
                np.testing.assert_array_equal(sums, pos[:, 1] - pos[:, 0])
                first = np.flatnonzero(np.diff(parent, prepend=-1))
                np.testing.assert_array_equal(kid_pos[first, 0], pos[:, 0])
        # Leaves of an adaptive walk tile [0, n) too; one above the finest
        # depth holds fewer points than the split threshold.
        leaves = sorted(walk(index, min_split), key=lambda leaf: leaf[2:])
        assert leaves[0][2] == 0 and leaves[-1][3] == n
        for (_, _, _, e0), (_, _, s1, _) in zip(leaves, leaves[1:]):
            assert e0 == s1
        for leaf_depth, _, lo, hi in leaves:
            assert leaf_depth == depth or hi - lo < min_split

    def test_span_positions_concatenates_spans_in_row_order(self):
        spans = np.array([[5, 7], [0, 2], [3, 3], [9, 10]])
        np.testing.assert_array_equal(span_positions(spans), [5, 6, 0, 1, 9])

    def test_points_inside_node_bounds(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-3.0, 7.0, (800, 3))
        index, cube = index_of(pts, 5)
        for d in range(6):
            cells, spans = index.cells(d)
            corners, edge = cell_bounds(cube, cells, d)
            for (lo, hi), corner in zip(spans, corners):
                inside = pts[index.order[lo:hi]]
                assert len(inside)
                # Closed bounds: points on the cube's top face stay inside.
                assert BoundingCube(corner, edge).contains(inside).all()

    def test_volume_law_exact(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0.0, 13.7, (400, 3))
        index, cube = index_of(pts, 8)
        for d in range(9):
            _, edge = cell_bounds(cube, occupied(index, d), d)
            # Power-of-two scaling is exact in floating point.
            assert edge * (2 ** d) == cube.edge
            assert (edge ** 3) * (8 ** d) == cube.edge ** 3

    def test_boundary_point_goes_to_higher_cell(self):
        # A point exactly on the midplane belongs to the upper octant.
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.25, 0.25]])
        index, _ = index_of(pts, 1)
        codes, spans = index.cells(1)
        np.testing.assert_array_equal(codes, [0b000, 0b100, 0b111])
        assert spans[1, 1] - spans[1, 0] == 1  # x in upper half, y and z lower
        np.testing.assert_array_equal(index.order[spans[1, 0]:spans[1, 1]], [2])

    def test_max_boundary_closed(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        codes = morton_codes(cloud.xyz, bounding_cube(cloud), 3)
        assert decode_cell(codes, 3).max() == 7  # clamped into the last cell, not one past it

    @pytest.mark.parametrize("seed,code_depth", [(15, 4), (16, 7), (17, 11)])
    def test_members_match_brute_force(self, seed, code_depth):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(1200, 3))
        index, cube = index_of(pts, code_depth)
        codes = morton_codes(pts, cube, code_depth)
        for d in range(code_depth + 1):
            cells, spans = index.cells(d)
            rows = np.sort(rng.choice(len(cells), size=max(1, len(cells) // 3), replace=False))
            pick, pick_spans = cells[rows], spans[rows]
            if cells[-1] + 1 < 8 ** d:
                # An unoccupied cell has an empty span and contributes nothing.
                gap = cells[-1] + np.uint64(1)
                gap_span = reference_spans(index, [gap], d)
                assert gap_span[0, 0] == gap_span[0, 1] == len(index)
                pick = np.append(pick, gap)
                pick_spans = np.vstack([pick_spans, gap_span])
            expected = np.flatnonzero(np.isin(codes >> np.uint64(3 * (code_depth - d)), pick))
            np.testing.assert_array_equal(members(index, pick_spans), expected)
            np.testing.assert_array_equal(np.sort(index.order[span_positions(pick_spans)]), expected)
            np.testing.assert_array_equal(expected, reference_members(index, pick, d))


def children_by_count(index, cells, depth):
    """All eight children of each cell at `depth`, their spans counted with
    `reference_spans`, keeping those with a non-empty span."""
    kids = ((cells << np.uint64(3))[:, None] + np.arange(8, dtype=np.uint64)).ravel()
    spans = reference_spans(index, kids, depth + 1)
    keep = spans[:, 1] > spans[:, 0]
    return kids[keep], spans[keep]


def assert_children_law(index, cells, depth):
    codes, spans = children(index, cells, depth)
    expected_codes, expected_spans = children_by_count(index, cells, depth)
    np.testing.assert_array_equal(codes, expected_codes)
    np.testing.assert_array_equal(spans, expected_spans)
    assert codes.dtype == np.uint64
    np.testing.assert_array_equal(
        members(index, spans), reference_members(index, codes, depth + 1)
    )


class TestChildren:
    """The occupied children of any cells, read off the next depth's cells,
    equal a count over all eight children of every parent."""

    @pytest.mark.parametrize("seed,n,code_depth", [(20, 800, 5), (21, 3000, 8), (22, 500, 13)])
    def test_matches_search_at_every_depth(self, seed, n, code_depth):
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=3.0, size=(n, 3))
        index, _ = index_of(pts, code_depth)
        for d in range(code_depth):
            cells = occupied(index, d)
            assert_children_law(index, cells, d)
            # A sorted subset of the parents, with empty cells mixed in.
            pick = rng.choice(cells, size=max(1, len(cells) // 2), replace=False)
            empty = np.setdiff1d(rng.integers(0, 8 ** d, size=10, dtype=np.uint64), cells)
            assert_children_law(index, np.sort(np.concatenate([pick, empty])), d)

    def test_empty_parent_spans(self):
        rng = np.random.default_rng(23)
        index, _ = index_of(rng.uniform(0.0, 1.0, (50, 3)), 6)
        for d in range(6):
            cells = np.setdiff1d(np.arange(min(8 ** d, 64), dtype=np.uint64), occupied(index, d))
            assert_children_law(index, cells, d)
            codes, spans = children(index, cells, d)
            assert len(codes) == 0 and spans.shape == (0, 2)
        codes, spans = children(index, np.empty(0, dtype=np.uint64), 2)
        assert len(codes) == 0 and spans.shape == (0, 2)
        empty = Octree(np.empty(0, dtype=np.uint64), 4)
        codes, spans = children(empty, np.zeros(1, dtype=np.uint64), 0)
        assert len(codes) == 0 and spans.shape == (0, 2)

    def test_single_point(self):
        index = Octree(morton_codes(np.array([[0.3, 0.6, 0.1]]), BoundingCube(np.zeros(3), 1.0), 9), 9)
        spans = np.array([[0, 1]])
        cell = np.zeros(1, dtype=np.uint64)
        for d in range(9):
            assert_children_law(index, cell, d)
            cell, spans = children(index, cell, d)
            assert len(cell) == 1
            np.testing.assert_array_equal(spans, [[0, 1]])
        np.testing.assert_array_equal(cell, index.sorted_codes)

    def test_points_on_max_face(self):
        rng = np.random.default_rng(24)
        pts = rng.uniform(0.0, 1.0, (300, 3))
        pts[np.arange(100), rng.integers(0, 3, 100)] = 1.0
        pts[100:110] = 1.0
        index, _ = index_of(np.vstack([pts, [[0.0, 0.0, 0.0]]]), 7)
        for d in range(7):
            assert_children_law(index, occupied(index, d), d)
        # The max corner sits in the last cell at every depth.
        last = index.sorted_codes[-1]
        assert last == 8 ** 7 - 1

    def test_children_occupied_in_one_epoch_only(self):
        # Two indexes over one cube, as detection builds them: the parents
        # are every cell either epoch occupies, so some parents are empty
        # in one epoch and some children of shared parents are too.
        rng = np.random.default_rng(25)
        first = rng.uniform(0.0, 8.0, (1500, 3))
        keep = ~((first >= [2.0, 2.0, 2.0]) & (first <= [5.0, 3.0, 5.0])).all(axis=1)
        second = np.vstack([first[keep], rng.uniform(5.5, 7.5, (200, 3))])
        cube = bounding_cube(PointCloud(first))
        code_depth = 7
        a = Octree(morton_codes(first, cube, code_depth), code_depth)
        b = Octree(morton_codes(second, cube, code_depth), code_depth)
        one_sided = 0
        for d in range(code_depth):
            cells = np.union1d(occupied(a, d), occupied(b, d))
            for index in (a, b):
                assert_children_law(index, cells, d)
            kids_a, _ = children(a, cells, d)
            kids_b, _ = children(b, cells, d)
            one_sided += len(np.setxor1d(kids_a, kids_b))
        assert one_sided > 0


class TestNodesAtDepth:
    """Occupied cells at each depth: the nodes of the linear octree."""

    def test_counts_monotone_and_bounded(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(1500, 3))
        index, _ = index_of(pts, 6)
        previous = None
        for d in range(7):
            cells, spans = index.cells(d)
            np.testing.assert_array_equal(cells, occupied(index, d))
            assert (spans[:, 1] - spans[:, 0]).sum() == 1500
            if previous is not None:
                assert previous <= len(cells) <= 8 * previous
            previous = len(cells)


class TestMorton:
    def test_prefix_property(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-2.0, 2.0, (1000, 3))
        cube = bounding_cube(PointCloud(pts))
        deep = morton_codes(pts, cube, 9)
        for d in (1, 4, 8):
            shallow = morton_codes(pts, cube, d)
            np.testing.assert_array_equal(deep >> np.uint64(3 * (9 - d)), shallow)

    def test_codes_encode_cells(self):
        rng = np.random.default_rng(14)
        pts = rng.uniform(0.0, 1.0, (500, 3))
        cloud = PointCloud(pts)
        cube = bounding_cube(cloud)
        codes = morton_codes(pts, cube, 7)
        cells = cell_indices(pts, cube, 7)
        np.testing.assert_array_equal(decode_cell(codes, 7), cells)

    @pytest.mark.parametrize("depth", [1, 12, MAX_SUPPORTED_DEPTH])
    def test_codes_interleave_cell_indices(self, depth):
        # Bit b of the x, y and z cell index lands at bit 3b + 2, 3b + 1
        # and 3b of the code; points on the min and max faces included.
        rng = np.random.default_rng(depth)
        cube = BoundingCube(np.array([-3.0, 1.0, 0.5]), 7.5)
        pts = rng.uniform(cube.min_corner, cube.max_corner, (300, 3))
        faces = rng.integers(0, 3, 100)
        pts[np.arange(50), faces[:50]] = cube.min_corner[faces[:50]]
        pts[np.arange(50, 100), faces[50:]] = cube.max_corner[faces[50:]]
        pts[100] = cube.min_corner
        pts[101] = cube.max_corner
        cells = cell_indices(pts, cube, depth)
        expected = [
            sum(
                ((int(ix) >> b & 1) << (3 * b + 2)) | ((int(iy) >> b & 1) << (3 * b + 1)) | ((int(iz) >> b & 1) << (3 * b))
                for b in range(depth)
            )
            for ix, iy, iz in cells
        ]
        codes = morton_codes(pts, cube, depth)
        assert codes.dtype == np.uint64
        assert [int(c) for c in codes] == expected
        assert codes[100] == 0 and codes[101] == 8 ** depth - 1


class TestBlockedEncoder:
    """Encoding in blocks changes no bit: every code equals the unblocked
    formula's, on both sides of every block edge."""

    CUBE = BoundingCube(np.array([-3.0, 1.0, 0.5]), 7.5)

    def points(self, rng, n):
        pts = rng.uniform(self.CUBE.min_corner, self.CUBE.max_corner, (n, 3))
        # Points on the max and min faces, among them the rows at the block
        # edges and the cube's corners.
        rows = np.concatenate([np.arange(0, n, 97), [_BLOCK - 1, _BLOCK, _BLOCK + 1]])
        rows = rows[rows < n]
        axes = rng.integers(0, 3, len(rows))
        pts[rows, axes] = np.where(rows % 2, self.CUBE.max_corner[axes], self.CUBE.min_corner[axes])
        pts[n // 2:n // 2 + 1] = self.CUBE.max_corner
        pts[n - 1:] = self.CUBE.min_corner
        return pts

    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("depth", [0, MAX_SUPPORTED_DEPTH])
    def test_matches_unblocked_formula(self, n, depth):
        pts = self.points(np.random.default_rng(n + depth), n)
        codes = morton_codes(pts, self.CUBE, depth)
        assert codes.dtype == np.uint64 and codes.shape == (n,)
        np.testing.assert_array_equal(codes, unblocked_morton_codes(pts, self.CUBE, depth))
        if n > 1 and depth:
            assert codes.max() == 8 ** depth - 1  # the max corner's last cell

    @pytest.mark.parametrize("depth", range(MAX_SUPPORTED_DEPTH + 1))
    def test_table_matches_unblocked_formula_at_every_depth(self, depth):
        # The table spreads 12 bits: depths 0-12 take one lookup per axis,
        # 13-21 a second one of the high bits. Rows on both sides of the
        # block edge sit in cells 2^12 - 1 and 2^12, either side of the
        # lookups' boundary, and in the last cell, on every axis.
        n = _BLOCK + 5
        pts = self.points(np.random.default_rng(100 + depth), n)
        probe = [c for c in ((1 << 12) - 1, 1 << 12, (1 << depth) - 1) if c < 1 << depth]
        rows = _BLOCK - 2 + np.arange(len(probe))
        edge = self.CUBE.edge / (1 << depth)
        pts[rows] = self.CUBE.min_corner + (np.array(probe, dtype=np.float64)[:, None] + 0.5) * edge
        codes = morton_codes(pts, self.CUBE, depth)
        np.testing.assert_array_equal(codes, unblocked_morton_codes(pts, self.CUBE, depth))
        np.testing.assert_array_equal(decode_cell(codes[rows], depth), np.repeat(np.array(probe)[:, None], 3, axis=1))
        assert codes.max() == 8 ** depth - 1

    @pytest.mark.parametrize("depth", [0, 12, MAX_SUPPORTED_DEPTH])
    def test_non_contiguous_input(self, depth):
        rng = np.random.default_rng(40 + depth)
        n = 2 * _BLOCK + 3
        wide = np.zeros((2 * n, 6))
        wide[::2, ::2] = self.points(rng, n)
        for pts in (wide[::2, ::2], np.asfortranarray(wide[::2, ::2])):
            assert not pts.flags.c_contiguous
            codes = morton_codes(pts, self.CUBE, depth)
            np.testing.assert_array_equal(codes, unblocked_morton_codes(pts, self.CUBE, depth))
            np.testing.assert_array_equal(codes, morton_codes(np.ascontiguousarray(pts), self.CUBE, depth))

    @pytest.mark.parametrize("depth", [3, MAX_SUPPORTED_DEPTH])
    def test_far_outside_points_land_in_edge_cells(self, depth):
        # Past 2^63 cells a coordinate no longer casts to int64; clipped
        # after the cast, such a point wrapped to cell 0 with only a
        # RuntimeWarning.
        unit = BoundingCube(np.zeros(3), 1.0)
        far = np.array([5.0, 1e19, 1e30, -5.0, -1e19, -1e30])
        last = (1 << depth) - 1
        for axis in range(3):
            pts = np.full((len(far), 3), 0.5)
            pts[:, axis] = far
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cells = decode_cell(morton_codes(pts, unit, depth), depth)
            np.testing.assert_array_equal(cells[:, axis], [last] * 3 + [0] * 3)
            np.testing.assert_array_equal(np.delete(cells, axis, axis=1), 1 << (depth - 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, _BLOCK + 5])
    def test_non_finite_refused(self, bad, row):
        pts = np.full((_BLOCK + 9, 3), 0.5)
        pts[row, row % 3] = bad
        unit = BoundingCube(np.zeros(3), 1.0)
        # Refused before any cast, so no RuntimeWarning escapes either.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="points contains non-finite coordinates"):
                morton_codes(pts, unit, 3)
            with pytest.raises(ValueError, match="non-finite"):
                morton_codes([[np.nan, 0.5, 0.5]], unit, 3)

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (2, 2, 3), (0,)])
    def test_wrong_shape_refused(self, shape):
        with pytest.raises(ValueError, match=r"points must have shape \(n, 3\)"):
            morton_codes(np.zeros(shape), BoundingCube(np.zeros(3), 1.0), 3)
        # One point may be given as its 3 coordinates.
        np.testing.assert_array_equal(
            morton_codes([0.9, 0.1, 0.9], BoundingCube(np.zeros(3), 1.0), 1), [0b101]
        )


class TestParts:
    """An index built from parts equals the index of their concatenation."""

    @pytest.mark.parametrize("lengths", [
        (0,), (5,), (0, 0), (3, 0), (0, 7, 0),
        (_BLOCK + 3, _BLOCK - 1), (1, 2 * _BLOCK + 1), (_BLOCK, _BLOCK, 2),
    ])
    @pytest.mark.parametrize("code_depth", [7, MAX_SUPPORTED_DEPTH])
    def test_parts_equal_concatenation(self, lengths, code_depth):
        rng = np.random.default_rng(sum(lengths) + code_depth)
        top = 8 ** code_depth - 1
        # Few distinct codes, the extremes among them: ties within and
        # across parts.
        choices = np.array([0, 1, top // 3, top - 1, top], dtype=np.uint64)
        parts = [rng.choice(choices, size=n) for n in lengths]
        given = [part.copy() for part in parts]
        joint = Octree(parts, code_depth)
        whole = Octree(np.concatenate(parts), code_depth)
        for part, before in zip(parts, given):
            np.testing.assert_array_equal(part, before)  # the caller's codes are untouched
        assert joint.sorted_codes.dtype == np.uint64 and joint.order.dtype == np.intp
        np.testing.assert_array_equal(joint.sorted_codes, whole.sorted_codes)
        np.testing.assert_array_equal(joint.order, whole.order)
        for d in (0, code_depth // 2, code_depth):
            for got, want in zip(joint.cells(d), whole.cells(d)):
                np.testing.assert_array_equal(got, want)

    def test_one_array_is_one_part(self):
        codes = np.array([5, 1, 5, 0, 3], dtype=np.uint64)
        for given in (codes, [codes], (codes[:2], codes[2:]), [5, 1, 5, 0, 3]):
            index = Octree(given, 1)
            np.testing.assert_array_equal(index.sorted_codes, [0, 1, 3, 5, 5])
            np.testing.assert_array_equal(index.order, [3, 1, 4, 0, 2])
        with pytest.raises(ValueError, match="one-dimensional"):
            Octree(codes.reshape(5, 1), 1)
        with pytest.raises(ValueError, match="exceed"):
            Octree((np.array([0], dtype=np.uint64), np.array([8], dtype=np.uint64)), 1)


class TestCellsAcrossBlocks:
    """Runs read block by block equal the runs of the whole index, when a
    run crosses a block edge, starts on one or covers several blocks."""

    @pytest.mark.parametrize("bounds", [
        # Run boundaries inside [0, n): a run across the first edge, one
        # starting on the second edge, one crossing the third.
        (10, _BLOCK - 2, 2 * _BLOCK, 3 * _BLOCK - 1),
        (_BLOCK - 1, _BLOCK, _BLOCK + 1),
        (),
    ])
    def test_runs_across_block_edges(self, bounds):
        n = 3 * _BLOCK + 5
        code_depth = 6
        rng = np.random.default_rng(len(bounds))
        # Run r holds code 9 * r, so neighbouring runs share a parent at some
        # depths and not at others.
        run = np.zeros(n, dtype=np.uint64)
        run[list(bounds)] = 1
        codes = np.cumsum(run, dtype=np.uint64) * np.uint64(9)
        index = Octree(rng.permutation(codes), code_depth)
        for d in range(code_depth + 1):
            cells, spans = index.cells(d)
            assert cells.dtype == np.uint64
            np.testing.assert_array_equal(cells, occupied(index, d))
            np.testing.assert_array_equal(spans, reference_spans(index, cells, d))
        assert len(index.cells(code_depth)[0]) == len(bounds) + 1
