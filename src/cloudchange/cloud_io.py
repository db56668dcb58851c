"""Point cloud file I/O: PLY (ASCII and binary little-endian) and XYZ text.

The readers are strict: malformed input raises CloudFormatError carrying the
line number (text formats) or byte offset (binary) of the first offence.
Unknown vertex properties are preserved opaquely and written back on save;
non-vertex elements are skipped with a warning.

Vertex rows are a structured array with one field per PLY property, in
file order, whatever the layout. A binary file is read straight into it
(`readinto`, no intermediate bytes), and the coordinates are its x, y and
z fields as float64: a view when they are adjacent doubles, as in an
xyz-only file, one copy otherwise. An ASCII file is parsed into the same
rows. On save, an xyz-only cloud's coordinate array is written as it is,
since it already has the row layout; other clouds are packed into rows one
fixed-size chunk at a time.
"""
from __future__ import annotations

import logging
import os
from typing import Optional

import numpy as np

from .geometry import PointCloud

logger = logging.getLogger(__name__)

FORMAT_PLY_ASCII = "ply-ascii"
FORMAT_PLY_BINARY = "ply-binary-le"
FORMAT_XYZ = "xyz-text"
FORMATS = (FORMAT_PLY_ASCII, FORMAT_PLY_BINARY, FORMAT_XYZ)

# PLY scalar type name -> numpy dtype (little-endian where it matters).
_PLY_TO_NUMPY = {
    "char": "i1",
    "int8": "i1",
    "uchar": "u1",
    "uint8": "u1",
    "short": "<i2",
    "int16": "<i2",
    "ushort": "<u2",
    "uint16": "<u2",
    "int": "<i4",
    "int32": "<i4",
    "uint": "<u4",
    "uint32": "<u4",
    "float": "<f4",
    "float32": "<f4",
    "double": "<f8",
    "float64": "<f8",
}

_NUMPY_TO_PLY = {
    "i1": "char",
    "u1": "uchar",
    "i2": "short",
    "u2": "ushort",
    "i4": "int",
    "u4": "uint",
    "f4": "float",
    "f8": "double",
}


# Rows that save_cloud packs and writes at a time, for clouds with more
# columns than x, y and z: 1.6 MB of rows with a change label, where one
# full-size copy of a 1.34M-point epoch's rows took 33.6 MB.
_CHUNK_ROWS = 1 << 16


class CloudFormatError(ValueError):
    """Raised when a cloud file violates its declared format."""


def _fail(path, position: str, message: str):
    raise CloudFormatError(f"{path}: {position}: {message}")


class _PlyProperty:
    __slots__ = ("name", "dtype")

    def __init__(self, name: str, dtype: str) -> None:
        self.name = name
        self.dtype = dtype


class _PlyElement:
    __slots__ = ("name", "count", "properties", "has_list")

    def __init__(self, name: str, count: int) -> None:
        self.name = name
        self.count = count
        self.properties: list[_PlyProperty] = []
        self.has_list = False


def _parse_ply_header(path, handle):
    """Read the header from an open binary handle.

    Returns (is_binary, elements, header_end_offset, header_line_count).
    """
    line = handle.readline()
    line_no = 1
    if line.strip() != b"ply":
        _fail(path, "line 1", "not a PLY file (missing 'ply' magic)")
    is_binary: Optional[bool] = None
    elements: list[_PlyElement] = []
    while True:
        raw = handle.readline()
        line_no += 1
        if not raw:
            _fail(path, f"line {line_no}", "header ended without end_header")
        tokens = raw.decode("ascii", errors="replace").split()
        if not tokens or tokens[0] == "comment" or tokens[0] == "obj_info":
            continue
        keyword = tokens[0]
        if keyword == "format":
            if len(tokens) != 3 or tokens[2] != "1.0":
                _fail(path, f"line {line_no}", f"unsupported format line: {raw!r}")
            if tokens[1] == "ascii":
                is_binary = False
            elif tokens[1] == "binary_little_endian":
                is_binary = True
            else:
                _fail(path, f"line {line_no}", f"unsupported encoding '{tokens[1]}'")
        elif keyword == "element":
            if len(tokens) != 3:
                _fail(path, f"line {line_no}", f"malformed element line: {raw!r}")
            try:
                count = int(tokens[2])
            except ValueError:
                _fail(path, f"line {line_no}", f"bad element count '{tokens[2]}'")
            if count < 0:
                _fail(path, f"line {line_no}", f"negative element count {count}")
            elements.append(_PlyElement(tokens[1], count))
        elif keyword == "property":
            if not elements:
                _fail(path, f"line {line_no}", "property before any element")
            if len(tokens) >= 2 and tokens[1] == "list":
                elements[-1].has_list = True
                continue
            if len(tokens) != 3:
                _fail(path, f"line {line_no}", f"malformed property line: {raw!r}")
            if tokens[1] not in _PLY_TO_NUMPY:
                _fail(path, f"line {line_no}", f"unsupported property type '{tokens[1]}'")
            names = [p.name for p in elements[-1].properties]
            if tokens[2] in names:
                _fail(path, f"line {line_no}", f"duplicate property '{tokens[2]}'")
            elements[-1].properties.append(_PlyProperty(tokens[2], tokens[1]))
        elif keyword == "end_header":
            break
        else:
            _fail(path, f"line {line_no}", f"unknown header keyword '{keyword}'")
    if is_binary is None:
        _fail(path, f"line {line_no}", "header missing format line")
    return is_binary, elements, handle.tell(), line_no


def _row_dtype(element: _PlyElement) -> np.dtype:
    """Structured dtype of one binary row of the element, fields in file order."""
    return np.dtype([(p.name, _PLY_TO_NUMPY[p.dtype]) for p in element.properties])


def _require_xyz(path, names) -> None:
    for axis in ("x", "y", "z"):
        if axis not in names:
            _fail(path, "header", f"vertex element lacks required property '{axis}'")


def _require_finite(path, xyz: np.ndarray) -> None:
    finite = np.isfinite(xyz).all(axis=1)
    if not finite.all():
        _fail(path, f"vertex {int(np.flatnonzero(~finite)[0])}", "non-finite coordinate")


def _coordinates(rows: np.ndarray) -> np.ndarray:
    """The rows' x, y and z fields as an (n, 3) float64 array: a view of the
    rows when they are adjacent native doubles, as in an xyz-only file, one
    copy otherwise."""
    fields = rows.dtype.fields
    start = fields["x"][1]
    if len(rows) and all(
        fields[axis] == (np.dtype(np.float64), start + 8 * k) for k, axis in enumerate("xyz")
    ):
        return np.ndarray((len(rows), 3), np.float64, rows, start, (rows.dtype.itemsize, 8))
    xyz = np.empty((len(rows), 3))
    for k, axis in enumerate("xyz"):
        xyz[:, k] = rows[axis]
    return xyz


def _cloud_from_rows(path, rows: np.ndarray) -> PointCloud:
    """Cloud from the vertex rows, a structured array with one field per
    PLY property.

    The cloud's own construction is the only scan for non-finite
    coordinates on the way to a loaded cloud; the offending vertex is
    looked up only on a failure.
    """
    xyz = _coordinates(rows)
    columns = {name: rows[name] for name in rows.dtype.names if name not in ("x", "y", "z")}
    colors = None
    if all(c in columns for c in ("red", "green", "blue")):
        colors = np.column_stack(
            [columns.pop("red"), columns.pop("green"), columns.pop("blue")]
        ).astype(np.uint8)
    labels = columns.pop("change_label", None)
    if labels is not None:
        bad = np.flatnonzero((labels > 2) | (labels < 0))
        if bad.size:
            _require_finite(path, xyz)
            _fail(path, f"vertex {int(bad[0])}", f"change_label {int(labels[bad[0]])} outside 0..2")
        labels = labels.astype(np.uint8)
    epochs = columns.pop("epoch", None)
    try:
        return PointCloud(
            xyz,
            colors=colors,
            labels=labels,
            epochs=None if epochs is None else epochs.astype(np.int32),
            extras=columns,
        )
    except ValueError:
        _require_finite(path, xyz)
        raise


def _load_ply(path, handle, declared_binary: Optional[bool]) -> PointCloud:
    is_binary, elements, data_start, header_lines = _parse_ply_header(path, handle)
    if declared_binary is not None and declared_binary != is_binary:
        want = "binary_little_endian" if declared_binary else "ascii"
        have = "binary_little_endian" if is_binary else "ascii"
        _fail(path, "header", f"declared format {want} but file is {have}")
    vertex_elements = [e for e in elements if e.name == "vertex"]
    if not vertex_elements:
        _fail(path, "header", "no vertex element")
    vertex = vertex_elements[0]
    if vertex.has_list:
        _fail(path, "header", "list properties on the vertex element are not supported")
    for el in elements:
        if el.name != "vertex":
            logger.warning("%s: skipping element '%s' (%d rows)", path, el.name, el.count)
    leading = elements[: elements.index(vertex)]
    dtype = _row_dtype(vertex)
    _require_xyz(path, dtype.names)
    if is_binary:
        if any(e.has_list for e in leading):
            _fail(path, "header", "cannot skip list-typed element preceding vertex data")
        offset = data_start + sum(_row_dtype(el).itemsize * el.count for el in leading)
        expected = dtype.itemsize * vertex.count
        found = max(0, os.fstat(handle.fileno()).st_size - offset)
        if found < expected:
            _fail(
                path,
                f"byte {offset + found}",
                f"truncated vertex data: expected {expected} bytes at offset {offset}, "
                f"found {found}",
            )
        # The file's bytes land in the rows once, with no bytes object between.
        rows = np.empty(vertex.count, dtype=dtype)
        handle.seek(offset)
        handle.readinto(rows.view(np.uint8))
    else:
        text = handle.read().decode("ascii", errors="replace").splitlines()
        row_at = 0
        for el in leading:
            row_at += el.count
        if len(text) < row_at + vertex.count:
            _fail(
                path,
                f"line {header_lines + len(text) + 1}",
                f"truncated vertex data: expected {vertex.count} rows, found "
                f"{max(0, len(text) - row_at)}",
            )
        nprop = len(vertex.properties)
        values = np.empty((vertex.count, nprop), dtype=np.float64)
        for i in range(vertex.count):
            tokens = text[row_at + i].split()
            if len(tokens) != nprop:
                _fail(
                    path,
                    f"line {header_lines + row_at + i + 1}",
                    f"expected {nprop} values, found {len(tokens)}",
                )
            try:
                values[i] = [float(t) for t in tokens]
            except ValueError:
                _fail(path, f"line {header_lines + row_at + i + 1}", f"bad number in row: {tokens}")
        rows = np.empty(vertex.count, dtype=dtype)
        for j, name in enumerate(dtype.names):
            rows[name] = values[:, j]
    return _cloud_from_rows(path, rows)


def _load_xyz(path, handle) -> PointCloud:
    text = handle.read().decode("ascii", errors="replace").splitlines()
    rows = []
    for i, line in enumerate(text):
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 3:
            _fail(path, f"line {i + 1}", f"expected 3 coordinates, found {len(tokens)}")
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            _fail(path, f"line {i + 1}", f"bad number in row: {tokens}")
    if not rows:
        return PointCloud(np.empty((0, 3)))
    return PointCloud(np.asarray(rows, dtype=np.float64))


def load_cloud(path, format: str = "auto") -> PointCloud:
    """Load a point cloud, validating against the declared format.

    `format` is one of "ply-ascii", "ply-binary-le", "xyz-text" or "auto"
    (sniff PLY magic, fall back to XYZ text).
    """
    if format not in FORMATS + ("auto",):
        raise ValueError(f"unknown format '{format}', expected one of {FORMATS + ('auto',)}")
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, "rb") as handle:
        if format == "auto":
            magic = handle.read(3)
            handle.seek(0)
            if magic == b"ply":
                return _load_ply(path, handle, None)
            return _load_xyz(path, handle)
        if format == FORMAT_XYZ:
            return _load_xyz(path, handle)
        return _load_ply(path, handle, format == FORMAT_PLY_BINARY)


def _vertex_schema(cloud: PointCloud):
    """(name, ply type, values) triples for every column the cloud carries."""
    schema = [
        ("x", "double", cloud.xyz[:, 0]),
        ("y", "double", cloud.xyz[:, 1]),
        ("z", "double", cloud.xyz[:, 2]),
    ]
    if cloud.colors is not None:
        schema += [
            ("red", "uchar", cloud.colors[:, 0]),
            ("green", "uchar", cloud.colors[:, 1]),
            ("blue", "uchar", cloud.colors[:, 2]),
        ]
    if cloud.labels is not None:
        schema.append(("change_label", "uchar", cloud.labels))
    if cloud.epochs is not None:
        schema.append(("epoch", "int", cloud.epochs))
    for name, values in cloud.extras.items():
        key = np.dtype(values.dtype).str.lstrip("<>=|")
        ply_type = _NUMPY_TO_PLY.get(key)
        if ply_type is None:
            logger.warning("dropping extra column '%s': dtype %s not writable to PLY", name, values.dtype)
            continue
        schema.append((name, ply_type, values))
    return schema


def save_cloud(path, cloud: PointCloud, format: str = FORMAT_PLY_BINARY) -> None:
    """Write a cloud to disk; round-trips attributes and extra columns."""
    if format not in FORMATS:
        raise ValueError(f"unknown format '{format}', expected one of {FORMATS}")
    if format == FORMAT_XYZ:
        with open(path, "w") as handle:
            np.savetxt(handle, cloud.xyz, fmt="%.17g")
        return
    schema = _vertex_schema(cloud)
    header = ["ply"]
    header.append(
        "format ascii 1.0" if format == FORMAT_PLY_ASCII else "format binary_little_endian 1.0"
    )
    header.append(f"element vertex {len(cloud)}")
    for name, ply_type, _ in schema:
        header.append(f"property {ply_type} {name}")
    header.append("end_header")
    if format == FORMAT_PLY_ASCII:
        with open(path, "w") as handle:
            handle.write("\n".join(header) + "\n")
            fmt = ["%.17g" if t in ("float", "double") else "%d" for _, t, _ in schema]
            if len(cloud):
                np.savetxt(handle, np.column_stack([col for _, _, col in schema]), fmt=fmt)
    else:
        with open(path, "wb") as handle:
            handle.write(("\n".join(header) + "\n").encode("ascii"))
            _write_rows(handle, cloud, schema)


def _write_rows(handle, cloud: PointCloud, schema) -> None:
    """Write the cloud's binary vertex rows. An xyz-only cloud's float64
    coordinate array already has the row layout and is written as it is;
    other clouds are packed into one buffer of _CHUNK_ROWS rows and written
    a chunk at a time, so the writer's memory does not grow with the cloud.
    """
    if len(schema) == 3:
        cloud.xyz.astype("<f8", copy=False).tofile(handle)
        return
    n = len(cloud)
    rows = np.empty(min(n, _CHUNK_ROWS), dtype=[(name, _PLY_TO_NUMPY[t]) for name, t, _ in schema])
    for lo in range(0, n, _CHUNK_ROWS):
        chunk = rows[:min(n - lo, _CHUNK_ROWS)]
        for name, _, col in schema:
            chunk[name] = col[lo:lo + len(chunk)]
        chunk.tofile(handle)
