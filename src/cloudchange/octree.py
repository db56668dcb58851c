"""Linear octree over a bounding cube: Morton codes, sorted-code index,
cell bounds.

The octree is stored as the points' Morton codes in sorted order, with no
node objects (Gargantini, "An effective way to represent quadtrees", CACM
1982): every cell is a contiguous span of the sorted codes. The occupied
cells of any depth are the runs of equal code prefixes, read with their spans
in one pass over the index (`Octree.cells`), and their ancestors are the runs
of their own prefixes (`parent_cells`; Sundar, Sampath & Biros, SIAM J. Sci.
Comput. 2008). The occupied children of cells whose spans are known are read
off the codes inside those spans (`Octree.children`), so a coarse-to-fine
walk that carries its cells' spans down never searches the index; the points
of any set of cells are the entries in their spans (`Octree.span_members`).
One quantisation at the finest depth defines cell membership at every
coarser depth (prefix of the code), which keeps parent/child assignment
consistent to the last ulp.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import BoundingCube

MAX_SUPPORTED_DEPTH = 21  # 3 * 21 = 63 Morton bits in a uint64


# (shift, mask) of each step that spreads the low 21 bits of a value so that
# bit i moves to bit 3 * i.
_SPREAD_STEPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (32, 0x1F00000000FFFF),
        (16, 0x1F0000FF0000FF),
        (8, 0x100F00F00F00F00F),
        (4, 0x10C30C30C30C30C3),
        (2, 0x1249249249249249),
    )
)


def _spread_bits(v: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each value of the uint64 array `v` in
    place: bit i moves to bit 3*i. `buffer` is a uint64 array of v's shape."""
    v &= np.uint64(0x1FFFFF)
    for shift, mask in _SPREAD_STEPS:
        np.left_shift(v, shift, out=buffer)
        v |= buffer
        v &= mask
    return v


def _compact_bits(v: np.ndarray) -> np.ndarray:
    """Inverse of _spread_bits."""
    v = v.astype(np.uint64) & np.uint64(0x1249249249249249)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return v


def morton_codes(points: np.ndarray, cube: BoundingCube, depth: int) -> np.ndarray:
    """Morton (z-order) code of each point's cell at `depth`.

    The code of a coarser ancestor cell is `code >> 3 * (depth - d)`. Each
    coordinate is quantised on its own to one of 2^depth half-open cells (a
    point on an interior face lands in the higher cell; the cube's max face
    is clamped into the last), then spread into the code in place.
    """
    if not 0 <= depth <= MAX_SUPPORTED_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_SUPPORTED_DEPTH}], got {depth}")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n_cells = 1 << depth
    scale = n_cells / cube.edge
    codes = np.zeros(len(pts), dtype=np.uint64)
    scaled = np.empty(len(pts), dtype=np.float64)
    buffer = np.empty(len(pts), dtype=np.uint64)
    for axis in range(3):
        np.subtract(pts[:, axis], cube.min_corner[axis], out=scaled)
        scaled *= scale
        np.floor(scaled, out=scaled)
        idx = scaled.astype(np.int64)
        np.clip(idx, 0, n_cells - 1, out=idx)
        bits = _spread_bits(idx.view(np.uint64), buffer)
        bits <<= np.uint64(2 - axis)
        codes |= bits
    return codes


def decode_cell(codes: np.ndarray, depth: int) -> np.ndarray:
    """(n, 3) integer cell coordinates at `depth` from depth-`depth` codes."""
    c = np.atleast_1d(np.asarray(codes, dtype=np.uint64))
    out = np.empty((len(c), 3), dtype=np.int64)
    out[:, 0] = _compact_bits(c >> np.uint64(2)).astype(np.int64)
    out[:, 1] = _compact_bits(c >> np.uint64(1)).astype(np.int64)
    out[:, 2] = _compact_bits(c).astype(np.int64)
    return out


def cell_bounds(cube: BoundingCube, codes: np.ndarray, depth: int) -> tuple:
    """(min_corners (n, 3), edge) of the cells with the given codes."""
    edge = cube.edge / float(1 << depth)
    cells = decode_cell(codes, depth)
    return cube.min_corner + cells * edge, edge


class Octree:
    """Linear octree: points sorted by their Morton codes at `code_depth`.

    Every cell at depth d <= code_depth is the contiguous span of
    `sorted_codes` whose codes shifted right by 3 * (code_depth - d) equal
    the cell's code, so cells are never materialized: `cells(d)` reads every
    occupied cell's span at one depth, `children` those below known spans,
    a cell's count is its span's length and its points are `span_members`.

    The index is sorted as one 64-bit key per entry, its code shifted above
    its input position, whenever 3 * code_depth plus the bits of the
    largest position fit in 64; the keys are unique, so a plain sort gives
    the stable order. Deeper codes of larger inputs take a stable argsort.

    Attributes:
        code_depth: depth of the codes the index was built from.
        sorted_codes: the codes in ascending order (stable sort).
        order: input position of each entry of `sorted_codes`.
    """

    def __init__(self, codes: np.ndarray, code_depth: int) -> None:
        if not 0 <= code_depth <= MAX_SUPPORTED_DEPTH:
            raise ValueError(f"code_depth must be in [0, {MAX_SUPPORTED_DEPTH}], got {code_depth}")
        codes = np.asarray(codes, dtype=np.uint64)
        if len(codes) and int(codes.max()) >> (3 * code_depth):
            raise ValueError(f"codes exceed the {3 * code_depth} bits of depth {code_depth}")
        bits = _position_bits(len(codes), code_depth)
        if bits is None:
            order = np.argsort(codes, kind="stable")
            sorted_codes = codes[order]
        else:
            # Each key is the code above the entry's input position, so the
            # keys are unique and sort in the stable order of the codes.
            key = codes << np.uint64(bits)
            key |= np.arange(len(codes), dtype=np.uint64)
            key.sort()
            order = (key & np.uint64((1 << bits) - 1)).view(np.intp)
            key >>= np.uint64(bits)
            sorted_codes = key
        self.code_depth = code_depth
        self.sorted_codes = sorted_codes
        self.order = order

    def __len__(self) -> int:
        return len(self.sorted_codes)

    def cells(self, depth: int) -> tuple:
        """(codes, spans) of the occupied cells at `depth`, in Morton order:
        the runs of equal prefixes of `sorted_codes`, read in one pass."""
        if not 0 <= depth <= self.code_depth:
            raise ValueError(f"need 0 <= depth <= {self.code_depth}, got depth={depth}")
        prefix = self.sorted_codes >> np.uint64(3 * (self.code_depth - depth))
        starts, ends = _runs(prefix)
        return prefix[starts], np.stack([starts, ends], axis=1)

    def children(self, spans: np.ndarray, depth: int) -> tuple:
        """(codes, spans) of the occupied children at depth + 1 of the cells
        at `depth` whose spans are the rows of `spans`, in Morton order.

        The cells must be sorted and disjoint, so their spans are too; empty
        spans are allowed. The children are the runs of equal codes among
        the codes inside those spans, shifted to depth + 1: no search.
        """
        if not 0 <= depth < self.code_depth:
            raise ValueError(f"need 0 <= depth < {self.code_depth}, got depth={depth}")
        _, pos = span_positions(spans)
        codes = self.sorted_codes[pos] >> np.uint64(3 * (self.code_depth - depth - 1))
        # A child never spans two parents, so each run is contiguous in
        # `sorted_codes`.
        starts, ends = _runs(codes)
        lo = pos[starts]
        return codes[starts], np.stack([lo, lo + (ends - starts)], axis=1)

    def span_members(self, spans: np.ndarray) -> np.ndarray:
        """Sorted `order` entries of the points inside the given spans."""
        _, pos = span_positions(spans)
        out = self.order[pos]
        out.sort()
        return out


def span_positions(spans: np.ndarray) -> tuple:
    """(rows, positions): every position inside the [lo, hi) spans given as
    the rows of an (n, 2) array, concatenated in row order, and the row each
    came from. One gather, no loop per span."""
    lo, hi = np.asarray(spans).T
    lengths = hi - lo
    rows = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(lengths.sum()) + (lo - (np.cumsum(lengths) - lengths))[rows]
    return rows, pos


def parent_cells(codes: np.ndarray, spans: np.ndarray, levels: int) -> tuple:
    """(codes, spans) of the ancestors `levels` up of sorted, disjoint cells
    with the given spans: the runs of equal `codes >> 3 * levels`, each
    spanning from its first cell's start to its last cell's end."""
    prefix = np.asarray(codes, dtype=np.uint64) >> np.uint64(3 * levels)
    starts, ends = _runs(prefix)
    return prefix[starts], np.stack([spans[starts, 0], spans[ends - 1, 1]], axis=1)


def _runs(values: np.ndarray) -> tuple:
    """(starts, ends): the [start, end) index range of each run of equal
    values."""
    change = np.empty(len(values), dtype=bool)
    change[:1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    return starts, np.append(starts[1:], len(values))[:len(starts)]


def _position_bits(n: int, code_depth: int) -> Optional[int]:
    """Bits that hold an input position below a depth-`code_depth` code in
    one 64-bit sort key, or None when the two do not fit."""
    bits = max(n - 1, 0).bit_length()
    return bits if 3 * code_depth + bits <= 64 else None
