"""Linear octree over a bounding cube: Morton codes, sorted-code index,
cell bounds.

The octree is stored as the points' Morton codes in sorted order, with no
node objects (Gargantini, "An effective way to represent quadtrees", CACM
1982): every cell is a contiguous span of the sorted codes. The occupied
cells of any depth are the runs of equal code prefixes, read with their spans
in one pass over the index (`Octree.cells`), and their ancestors are the runs
of their own prefixes (`parent_cells`; Sundar, Sampath & Biros, SIAM J. Sci.
Comput. 2008). A coarse-to-fine walk reads its cells' codes as one slice
of the index where their spans tile a range, converts the spans to index
positions once where they do not (`span_positions`), and reads every deeper
cell off the codes at its survivors' positions, so it never searches the
index; the points of a cell are the `order` entries in its span. One
quantisation at the finest depth defines cell membership at every coarser
depth (prefix of the code), which keeps parent/child assignment consistent
to the last ulp.

The encoder spreads each axis's cell index into every third bit of the
code by table lookup: one lookup of a 4096-entry table per axis for codes of
depth 12 or less, and a second one of the index's high 9 bits, shifted up by
36, for deeper codes.

The full-length passes stream their arrays through the cache in blocks of
_BLOCK entries (Lam, Rothberg & Wolf, ASPLOS 1991): the encoder quantises
and spreads one block of points at a time into its output, reusing three
block-sized scratch buffers, the index writes each part's sort keys block by
block, and `Octree.cells` reads the runs of one block of codes at a time.
Every entry is computed by the same operations in the same order as in one
full-length pass, so the blocks change no bit of any result.
"""
from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .geometry import BoundingCube

MAX_SUPPORTED_DEPTH = 21  # 3 * 21 = 63 Morton bits in a uint64

# Entries per block of the full-length passes, so that a block's working
# arrays stay in a 4 MiB L2: the encoder's three float64/uint64 scratch
# buffers, its output block and its (block, 3) input rows take 1.75 MiB at
# 2^15. Encoding 288,000 uniform points at depth 12 (Xeon, 4 MiB L2 per
# core, numpy 2.4.6, min of 30) took 11.6 / 8.6 / 7.3 / 7.4 / 7.7 / 10.4 ms
# in blocks of 2^12 / 2^13 / 2^14 / 2^15 / 2^16 / 2^17, against 18.3 ms in
# one full-length pass, when each index was spread by shifts and masks. With
# the lookup table it took 6.6 / 5.1 / 5.0 / 4.3 / 4.5 / 7.5 ms, against
# 12.1 ms in one pass (the better of two sweeps, each a min of 30).
_BLOCK = 1 << 15


# Bits of a cell index that one lookup in the encoder's table spreads. The
# table holds 2^12 uint64, 32 KiB, the size of an L1 data cache; an index of
# up to 21 bits takes a second lookup of its high 9 bits.
_SPREAD_BITS = 12


def _spread_table(bits: int) -> np.ndarray:
    """Every `bits`-bit value with bit i moved to bit 3 * i, indexed by the
    value."""
    values = np.arange(1 << bits, dtype=np.uint64)
    table = np.zeros_like(values)
    for bit in range(bits):
        table |= ((values >> np.uint64(bit)) & np.uint64(1)) << np.uint64(3 * bit)
    return table


_SPREAD = _spread_table(_SPREAD_BITS)


def _compact_bits(v: np.ndarray) -> np.ndarray:
    """Bits 0, 3, 6, ... of each value moved to bits 0, 1, 2, ...: the inverse
    of the encoder's spread, for cell indices of up to 21 bits."""
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
    is clamped into the last, and a point outside the cube into the nearest
    edge cell), then spread into the code by lookup in a table of every
    12-bit index's spread bits (a second lookup, of the high 9 bits, above
    depth 12).

    The points are encoded _BLOCK at a time into one preallocated output,
    through three block-sized scratch buffers, so each block's axes are
    quantised and spread while it is in cache. The finiteness check reads
    the same in-cache block: on 288,000 points at depth 12 the check alone
    takes 0.34-0.35 ms, and the whole encode 4.0-4.6 ms (three minima of 60
    calls each). Points must be an (n, 3) array (one point may be given as
    its 3 coordinates) with finite coordinates.
    """
    if not 0 <= depth <= MAX_SUPPORTED_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_SUPPORTED_DEPTH}], got {depth}")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
    n = len(pts)
    n_cells = 1 << depth
    scale = n_cells / cube.edge
    # Indices of depth 13 and deeper have bits above the table's 12.
    high = np.uint64(3 * _SPREAD_BITS) if depth > _SPREAD_BITS else None
    codes = np.empty(n, dtype=np.uint64)
    size = min(n, _BLOCK)
    scaled = np.empty(size, dtype=np.float64)
    idx = np.empty(size, dtype=np.int64)
    buffer = np.empty(size, dtype=np.uint64)
    for lo in range(0, n, _BLOCK):
        block = pts[lo:lo + _BLOCK]
        if not np.isfinite(block).all():
            raise ValueError("points contains non-finite coordinates")
        m = len(block)
        out, s, i = codes[lo:lo + m], scaled[:m], idx[:m]
        for axis in range(3):
            np.subtract(block[:, axis], cube.min_corner[axis], out=s)
            s *= scale
            # Clipped before the cast, so a point any distance outside the
            # cube still lands in the edge cell. The cast truncates, which
            # is the floor of a clipped value, since none is negative.
            np.clip(s, 0, n_cells - 1, out=s)
            np.copyto(i, s, casting="unsafe")
            # Every index is in the table's range, so "clip" clips nothing
            # and skips the bounds check that "raise" makes.
            bits = out if axis == 0 else buffer[:m]
            if high is None:
                np.take(_SPREAD, i, out=bits, mode="clip")
            else:
                # `scaled` is spent once cast, and holds the low bits'
                # indices, then the high bits' spread.
                low = np.bitwise_and(i, (1 << _SPREAD_BITS) - 1, out=s.view(np.int64))
                np.take(_SPREAD, low, out=bits, mode="clip")
                i >>= _SPREAD_BITS
                top = np.take(_SPREAD, i, out=s.view(np.uint64), mode="clip")
                top <<= high
                bits |= top
            bits <<= np.uint64(2 - axis)
            if axis:
                out |= bits
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
    occupied cell's span at one depth, a cell's count is its span's length
    and its points are `order[lo:hi]`.

    The codes are given as a sequence of parts, indexed as if concatenated:
    an input position counts through the parts in turn, so a joint index of
    two epochs takes the pair and holds no concatenation of them. A single
    array is the one-part case. The index is sorted as one 64-bit key per
    entry, its code shifted above its input position, whenever
    3 * code_depth plus the bits of the largest position fit in 64; each
    part's keys are written into one buffer _BLOCK at a time, and the keys
    are unique, so a plain sort gives the stable order. Deeper codes of
    larger inputs take a stable argsort of the concatenated parts.

    Attributes:
        code_depth: depth of the codes the index was built from.
        sorted_codes: the codes in ascending order (stable sort).
        order: input position of each entry of `sorted_codes`.
    """

    def __init__(self, codes: Union[np.ndarray, Sequence[np.ndarray]], code_depth: int) -> None:
        if not 0 <= code_depth <= MAX_SUPPORTED_DEPTH:
            raise ValueError(f"code_depth must be in [0, {MAX_SUPPORTED_DEPTH}], got {code_depth}")
        parts = [codes] if isinstance(codes, np.ndarray) else codes
        parts = [np.atleast_1d(np.asarray(part, dtype=np.uint64)) for part in parts]
        for part in parts:
            if part.ndim != 1:
                raise ValueError("codes must be one-dimensional")
            if len(part) and int(part.max()) >> (3 * code_depth):
                raise ValueError(f"codes exceed the {3 * code_depth} bits of depth {code_depth}")
        n = sum(len(part) for part in parts)
        bits = _position_bits(n, code_depth)
        if bits is None:
            codes = np.concatenate(parts)
            order = np.argsort(codes, kind="stable")
            sorted_codes = codes[order]
        else:
            # Each key is the code above the entry's input position, so the
            # keys are unique and sort in the stable order of the codes.
            shift = np.uint64(bits)
            key = np.empty(n, dtype=np.uint64)
            start = 0
            for part in parts:
                for lo in range(0, len(part), _BLOCK):
                    block = part[lo:lo + _BLOCK]
                    m = len(block)
                    out = key[start:start + m]
                    np.left_shift(block, shift, out=out)
                    out |= np.arange(start, start + m, dtype=np.uint64)
                    start += m
            key.sort()
            order = (key & np.uint64((1 << bits) - 1)).view(np.intp)
            key >>= shift
            sorted_codes = key
        self.code_depth = code_depth
        self.sorted_codes = sorted_codes
        self.order = order

    def __len__(self) -> int:
        return len(self.sorted_codes)

    def cells(self, depth: int) -> tuple:
        """(codes, spans) of the occupied cells at `depth`, in Morton order:
        the runs of equal prefixes of `sorted_codes`, read _BLOCK codes at a
        time, so only the cells' codes and spans are full length."""
        if not 0 <= depth <= self.code_depth:
            raise ValueError(f"need 0 <= depth <= {self.code_depth}, got depth={depth}")
        shift = np.uint64(3 * (self.code_depth - depth))
        n = len(self.sorted_codes)
        prefix = np.empty(min(n, _BLOCK), dtype=np.uint64)
        change = np.empty(len(prefix), dtype=bool)
        codes, starts = [np.empty(0, dtype=np.uint64)], [np.empty(0, dtype=np.intp)]
        for lo in range(0, n, _BLOCK):
            block = self.sorted_codes[lo:lo + _BLOCK]
            m = len(block)
            p, c = np.right_shift(block, shift, out=prefix[:m]), change[:m]
            # A run continues across the block edge when the first prefix
            # equals the one before it.
            c[0] = lo == 0 or p[0] != self.sorted_codes[lo - 1] >> shift
            np.not_equal(p[1:], p[:-1], out=c[1:])
            first = np.flatnonzero(c)
            codes.append(p[first])
            starts.append(first + lo)
        starts = np.concatenate(starts)
        ends = np.append(starts[1:], n)[:len(starts)]
        return np.concatenate(codes), np.stack([starts, ends], axis=1)


def span_positions(spans: np.ndarray) -> np.ndarray:
    """Every position inside the [lo, hi) spans given as the rows of an
    (n, 2) array, concatenated in row order. No loop per span."""
    lo, hi = np.asarray(spans).T
    lengths = hi - lo
    pos = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
    pos += np.arange(len(pos))
    return pos


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
