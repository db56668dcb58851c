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


class TestMalformedInputs:
    def test_truncated_binary_reports_byte_offset(self, tmp_path):
        cloud = sample_cloud(n=10, seed=4, attrs=False)
        path = tmp_path / "t.ply"
        save_cloud(path, cloud, "ply-binary-le")
        data = path.read_bytes()
        path.write_bytes(data[:-13])
        with pytest.raises(CloudFormatError, match="byte"):
            load_cloud(path, "ply-binary-le")

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
