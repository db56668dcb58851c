import tracemalloc

import numpy as np
import pytest

from cloudchange.cloud_io import CloudFormatError, load_cloud, save_cloud
from cloudchange.geometry import PointCloud


def sample_cloud(n=57, seed=0, attrs=True):
    rng = np.random.default_rng(seed)
    xyz = rng.uniform(-1e5, 1e5, (n, 3))
    if not attrs:
        return PointCloud(xyz)
    return PointCloud(
        xyz,
        colors=rng.integers(0, 256, (n, 3), dtype=np.uint8),
        labels=rng.integers(0, 3, n, dtype=np.uint8),
        epochs=rng.integers(0, 5, n, dtype=np.int32),
    )


class TestRoundTrip:
    def test_binary_ply_bit_exact(self, tmp_path):
        cloud = sample_cloud()
        path = tmp_path / "c.ply"
        save_cloud(path, cloud, "ply-binary-le")
        back = load_cloud(path, "ply-binary-le")
        np.testing.assert_array_equal(back.xyz, cloud.xyz)
        np.testing.assert_array_equal(back.colors, cloud.colors)
        np.testing.assert_array_equal(back.labels, cloud.labels)
        np.testing.assert_array_equal(back.epochs, cloud.epochs)

    def test_ascii_ply_round_trip(self, tmp_path):
        cloud = sample_cloud(seed=1)
        path = tmp_path / "c.ply"
        save_cloud(path, cloud, "ply-ascii")
        back = load_cloud(path, "ply-ascii")
        # %.17g prints doubles exactly, so even ASCII round-trips bit for bit
        # (the contract only asks for 1e-6).
        np.testing.assert_array_equal(back.xyz, cloud.xyz)
        np.testing.assert_array_equal(back.colors, cloud.colors)
        np.testing.assert_array_equal(back.labels, cloud.labels)

    def test_xyz_round_trip(self, tmp_path):
        cloud = sample_cloud(attrs=False, seed=2)
        path = tmp_path / "c.xyz"
        save_cloud(path, cloud, "xyz-text")
        back = load_cloud(path, "xyz-text")
        np.testing.assert_array_equal(back.xyz, cloud.xyz)

    def test_empty_xyz_file(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("")
        assert len(load_cloud(path, "xyz-text")) == 0

    def test_auto_detect(self, tmp_path):
        cloud = sample_cloud(n=5, seed=3)
        ply = tmp_path / "c.ply"
        xyz = tmp_path / "c.xyz"
        save_cloud(ply, cloud, "ply-binary-le")
        save_cloud(xyz, cloud, "xyz-text")
        assert len(load_cloud(ply)) == 5
        assert len(load_cloud(xyz)) == 5

    def test_unknown_property_preserved(self, tmp_path):
        path = tmp_path / "extra.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property float intensity\nend_header\n"
            "0 0 0 0.5\n1 1 1 0.25\n"
        )
        cloud = load_cloud(path)
        assert "intensity" in cloud.extras
        np.testing.assert_allclose(cloud.extras["intensity"], [0.5, 0.25])
        out = tmp_path / "extra2.ply"
        save_cloud(out, cloud, "ply-binary-le")
        back = load_cloud(out)
        np.testing.assert_allclose(back.extras["intensity"], [0.5, 0.25])

    def test_float32_coordinates_accepted(self, tmp_path):
        path = tmp_path / "f32.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "1.5 2.5 3.5\n"
        )
        cloud = load_cloud(path)
        np.testing.assert_allclose(cloud.xyz, [[1.5, 2.5, 3.5]])

    def test_binary_float32_coordinates_among_other_properties(self, tmp_path):
        # Binary x, y and z are copied straight out of the rows; declared
        # as float after other properties and apart, they load as the ASCII
        # text of the same rows does.
        rng = np.random.default_rng(4)
        n = 41
        props = [
            ("intensity", "ushort", "<u2"), ("red", "uchar", "u1"), ("green", "uchar", "u1"),
            ("blue", "uchar", "u1"), ("z", "float", "<f4"), ("x", "float", "<f4"),
            ("range", "double", "<f8"), ("y", "float", "<f4"), ("epoch", "int", "<i4"),
        ]
        rows = np.empty(n, dtype=[(name, code) for name, _, code in props])
        for name, ply_type, code in props:
            if ply_type in ("float", "double"):
                rows[name] = rng.uniform(-1e3, 1e3, n)
            else:
                rows[name] = rng.integers(0, 200, n)
        header = "ply\nformat {} 1.0\nelement vertex %d\n" % n + "".join(
            f"property {ply_type} {name}\n" for name, ply_type, _ in props
        ) + "end_header\n"
        binary = tmp_path / "b.ply"
        binary.write_bytes(header.format("binary_little_endian").encode("ascii") + rows.tobytes())
        ascii_path = tmp_path / "a.ply"
        lines = [
            " ".join(
                f"{float(row[name]):.17g}" if ply_type in ("float", "double") else str(int(row[name]))
                for name, ply_type, _ in props
            )
            for row in rows
        ]
        ascii_path.write_text(header.format("ascii") + "\n".join(lines) + "\n")
        a = load_cloud(binary, "ply-binary-le")
        b = load_cloud(ascii_path, "ply-ascii")
        assert a.xyz.dtype == np.float64 and a.xyz.flags.c_contiguous
        np.testing.assert_array_equal(a.xyz, b.xyz)
        np.testing.assert_array_equal(
            a.xyz, np.column_stack([rows["x"], rows["y"], rows["z"]]).astype(np.float64)
        )
        np.testing.assert_array_equal(a.colors, b.colors)
        np.testing.assert_array_equal(a.epochs, b.epochs)
        assert list(a.extras) == list(b.extras) == ["intensity", "range"]
        for name in a.extras:
            assert a.extras[name].dtype == b.extras[name].dtype
            np.testing.assert_array_equal(a.extras[name], b.extras[name])

    def test_non_vertex_element_skipped(self, tmp_path):
        path = tmp_path / "face.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n3 0 0 0\n"
        )
        cloud = load_cloud(path)
        assert len(cloud) == 1


def write_binary_ply(path, rows, ply_types) -> int:
    """Write structured `rows` as a binary PLY, one property per field with
    the given PLY type names; returns the header length in bytes."""
    header = (
        f"ply\nformat binary_little_endian 1.0\nelement vertex {len(rows)}\n"
        + "".join(f"property {t} {name}\n" for name, t in zip(rows.dtype.names, ply_types))
        + "end_header\n"
    ).encode("ascii")
    path.write_bytes(header + rows.tobytes())
    return len(header)


# Binary vertex layouts: (field name, numpy code, PLY type) in file order.
LAYOUTS = {
    "xyz-double": [("x", "<f8", "double"), ("y", "<f8", "double"), ("z", "<f8", "double")],
    "xyz-float": [("x", "<f4", "float"), ("y", "<f4", "float"), ("z", "<f4", "float")],
    "reordered": [("z", "<f8", "double"), ("x", "<f8", "double"), ("y", "<f8", "double")],
    "extras-before-x": [
        ("intensity", "<u2", "ushort"), ("red", "u1", "uchar"), ("green", "u1", "uchar"),
        ("blue", "u1", "uchar"), ("change_label", "u1", "uchar"), ("x", "<f8", "double"),
        ("y", "<f8", "double"), ("z", "<f8", "double"), ("epoch", "<i4", "int"),
    ],
}


class TestBinaryLayouts:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_round_trip(self, tmp_path, layout):
        fields = LAYOUTS[layout]
        rng = np.random.default_rng(len(layout))
        rows = np.empty(53, dtype=[(name, code) for name, code, _ in fields])
        for name in rows.dtype.names:
            if rows.dtype[name].kind == "f":
                rows[name] = rng.uniform(-5e3, 5e3, len(rows))
            else:
                rows[name] = rng.integers(0, 3, len(rows))
        path = tmp_path / "in.ply"
        write_binary_ply(path, rows, [t for _, _, t in fields])
        cloud = load_cloud(path, "ply-binary-le")
        want = np.column_stack([rows["x"], rows["y"], rows["z"]]).astype(np.float64)
        assert cloud.xyz.dtype == np.float64 and cloud.xyz.flags.c_contiguous
        assert cloud.xyz.tobytes() == want.tobytes()
        names = rows.dtype.names
        if "red" in names:
            np.testing.assert_array_equal(
                cloud.colors, np.column_stack([rows["red"], rows["green"], rows["blue"]])
            )
            np.testing.assert_array_equal(cloud.labels, rows["change_label"])
            np.testing.assert_array_equal(cloud.epochs, rows["epoch"])
            assert list(cloud.extras) == ["intensity"]
            assert cloud.extras["intensity"].dtype == np.dtype("<u2")
            np.testing.assert_array_equal(cloud.extras["intensity"], rows["intensity"])
        else:
            assert cloud.colors is None and cloud.labels is None and not cloud.extras
        out = tmp_path / "out.ply"
        save_cloud(out, cloud)
        back = load_cloud(out, "ply-binary-le")
        assert back.xyz.tobytes() == cloud.xyz.tobytes()
        for name in ("colors", "labels", "epochs"):
            np.testing.assert_array_equal(getattr(back, name), getattr(cloud, name))
        assert back.extras.keys() == cloud.extras.keys()

    def test_xyz_only_file_is_header_and_coordinates(self, tmp_path):
        xyz = np.random.default_rng(9).normal(0.0, 1e4, (31, 3))
        path = tmp_path / "c.ply"
        save_cloud(path, PointCloud(xyz))
        data = path.read_bytes()
        assert data.endswith(b"end_header\n" + xyz.astype("<f8").tobytes())
        assert data.count(b"property") == 3

    def test_xyz_only_load_holds_one_coordinate_array(self, tmp_path):
        # The rows are read in place and x, y and z are a view of them, so
        # the load peaks at the coordinates plus the cloud's finiteness
        # mask (one byte per coordinate, an eighth of the array).
        xyz = np.random.default_rng(10).uniform(-1e3, 1e3, (200_000, 3))
        path = tmp_path / "big.ply"
        save_cloud(path, PointCloud(xyz))
        tracemalloc.start()
        try:
            cloud = load_cloud(path, "ply-binary-le")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cloud.xyz.tobytes() == xyz.tobytes()
        assert peak <= 1.2 * xyz.nbytes


class TestMalformedInputs:
    def test_truncated_binary_reports_byte_offset(self, tmp_path):
        cloud = sample_cloud(n=10, seed=4, attrs=False)
        path = tmp_path / "t.ply"
        save_cloud(path, cloud, "ply-binary-le")
        data = path.read_bytes()
        path.write_bytes(data[:-13])
        with pytest.raises(CloudFormatError, match="byte"):
            load_cloud(path, "ply-binary-le")

    def test_truncated_xyz_only_reports_where_data_ends(self, tmp_path):
        rows = np.zeros(10, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8")])
        path = tmp_path / "t.ply"
        header = write_binary_ply(path, rows, ["double"] * 3)
        path.write_bytes(path.read_bytes()[:-13])
        with pytest.raises(
            CloudFormatError,
            match=rf": byte {header + 227}: truncated vertex data: expected 240 bytes at "
            rf"offset {header}, found 227$",
        ):
            load_cloud(path, "ply-binary-le")

    @pytest.mark.parametrize("layout", ["xyz-double", "extras-before-x"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_named_by_index(self, tmp_path, layout, bad):
        fields = LAYOUTS[layout]
        rows = np.zeros(20, dtype=[(name, code) for name, code, _ in fields])
        rows["y"][13] = bad
        rows["z"][17] = bad
        path = tmp_path / "nan.ply"
        write_binary_ply(path, rows, [t for _, _, t in fields])
        with pytest.raises(CloudFormatError, match=r": vertex 13: non-finite coordinate$"):
            load_cloud(path)

    def test_non_finite_vertex_reported_before_bad_label(self, tmp_path):
        path = tmp_path / "both.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property uchar change_label\nend_header\n0 0 0 7\n0 nan 0 0\n"
        )
        with pytest.raises(CloudFormatError, match="vertex 1: non-finite"):
            load_cloud(path)

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
            "0 0 0\n1 oops 1\n"
        )
        with pytest.raises(CloudFormatError, match="line 9"):
            load_cloud(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "short.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
            "0 0 0\n"
        )
        with pytest.raises(CloudFormatError, match="truncated"):
            load_cloud(path)

    def test_missing_end_header(self, tmp_path):
        path = tmp_path / "noend.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n")
        with pytest.raises(CloudFormatError, match="end_header"):
            load_cloud(path)

    def test_missing_coordinate_property(self, tmp_path):
        path = tmp_path / "noz.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nend_header\n0 0\n"
        )
        with pytest.raises(CloudFormatError, match="'z'"):
            load_cloud(path)

    def test_declared_format_mismatch(self, tmp_path):
        cloud = sample_cloud(n=3, seed=5, attrs=False)
        path = tmp_path / "bin.ply"
        save_cloud(path, cloud, "ply-binary-le")
        with pytest.raises(CloudFormatError, match="declared"):
            load_cloud(path, "ply-ascii")

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "lbl.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property uchar change_label\nend_header\n0 0 0 7\n"
        )
        with pytest.raises(CloudFormatError, match="change_label"):
            load_cloud(path)

    def test_xyz_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\n1 2\n")
        with pytest.raises(CloudFormatError, match="line 2"):
            load_cloud(path, "xyz-text")

    def test_unknown_format_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            load_cloud(tmp_path / "x.ply", "laz")
