"""Linear octree over a bounding cube: Morton codes, sorted-code index,
cell bounds.

The octree is stored as the points' Morton codes in sorted order, with no
node objects (Gargantini, "An effective way to represent quadtrees", CACM
1982): every cell is a contiguous span of the sorted codes. The root's span
is the whole index, and the occupied children of cells whose spans are
known are read off the codes inside those spans (`Octree.children`), so a
coarse-to-fine walk that carries its cells' spans down from the root never
searches the index (Sundar, Sampath & Biros, SIAM J. Sci. Comput. 2008); the
points of any set of cells are the entries in their spans
(`Octree.span_members`). One quantisation at the finest depth defines
cell membership at every coarser depth (prefix of the code), which keeps
parent/child assignment consistent to the last ulp.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import BoundingCube

MAX_SUPPORTED_DEPTH = 21  # 3 * 21 = 63 Morton bits in a uint64


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each value: bit i moves to bit 3*i."""
    v = v.astype(np.uint64) & np.uint64(0x1FFFFF)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
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


def morton_codes(points: np.ndarray, cube: BoundingCube, depth: int) -> np.ndarray:
    """Morton (z-order) code of each point's cell at `depth`.

    The code of a coarser ancestor cell is `code >> 3 * (depth - d)`.
    """
    if not 0 <= depth <= MAX_SUPPORTED_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_SUPPORTED_DEPTH}], got {depth}")
    idx = cell_indices(points, cube, depth).astype(np.uint64)
    return (
        (_spread_bits(idx[:, 0]) << np.uint64(2))
        | (_spread_bits(idx[:, 1]) << np.uint64(1))
        | _spread_bits(idx[:, 2])
    )


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
    the cell's code, so cells are never materialized: a walk from the root
    span [0, len) down through `children` finds every occupied cell's span,
    its count is the span's length and its points are `span_members`.

    Attributes:
        code_depth: depth of the codes the index was built from.
        sorted_codes: the codes in ascending order (stable sort).
        order: caller index of each entry of `sorted_codes`; positions in
            the input unless `indices` was given.
    """

    def __init__(self, codes: np.ndarray, code_depth: int, indices: Optional[np.ndarray] = None) -> None:
        if not 0 <= code_depth <= MAX_SUPPORTED_DEPTH:
            raise ValueError(f"code_depth must be in [0, {MAX_SUPPORTED_DEPTH}], got {code_depth}")
        codes = np.asarray(codes, dtype=np.uint64)
        order = np.argsort(codes, kind="stable")
        self.code_depth = code_depth
        self.sorted_codes = codes[order]
        self.order = order if indices is None else np.asarray(indices)[order]

    def __len__(self) -> int:
        return len(self.sorted_codes)

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
        # A new child starts wherever the code changes; a child never spans
        # two parents, so each run is contiguous in `sorted_codes`.
        change = np.empty(len(codes), dtype=bool)
        change[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=change[1:])
        heads = np.flatnonzero(change)
        lo = pos[heads]
        hi = lo + np.diff(heads, append=len(codes))
        return codes[heads], np.stack([lo, hi], axis=1)

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
