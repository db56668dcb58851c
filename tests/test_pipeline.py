"""Tests of the run's one voxel lattice, its binary voxel-code artifacts and
its kd-tree worker count."""
import hashlib
import json

import numpy as np
import pytest
from scipy.spatial import cKDTree

from cloudchange import detection, pipeline, registration
from cloudchange.cloud_io import save_cloud
from cloudchange.config import EpochInput, PipelineConfig
from cloudchange.geometry import PointCloud, bounding_cube
from scenes import hollow_box


def demolition_series(rng):
    """Three epochs of a box shell; each later epoch loses one wall patch."""
    pts = hollow_box(rng, w=10.0, l=10.0, h=5.0, density=60.0)
    first = ((pts >= (2.0, -0.1, 1.0)) & (pts <= (5.0, 0.1, 4.0))).all(axis=1)
    second = ((pts >= (-0.1, 2.0, 1.0)) & (pts <= (0.1, 6.0, 4.0))).all(axis=1)
    return [pts, pts[~first], pts[~(first | second)]]


def run_series(tmp_path, monkeypatch, registration):
    """Run the pipeline over the series; returns (epoch points, points
    encoded per morton_codes call, ChangeSet per interval, output dir)."""
    series = demolition_series(np.random.default_rng(61))
    epochs = []
    for k, pts in enumerate(series):
        path = tmp_path / f"epoch_{k}.ply"
        save_cloud(str(path), PointCloud(pts))
        epochs.append(EpochInput(str(path), float(k)))
    encoded, changesets = [], []
    morton_codes = detection.morton_codes
    hierarchical_detect = pipeline.hierarchical_detect

    def counting_morton(points, *args, **kwargs):
        encoded.append(len(points))
        return morton_codes(points, *args, **kwargs)

    def recording_detect(*args, **kwargs):
        changesets.append(hierarchical_detect(*args, **kwargs))
        return changesets[-1]

    monkeypatch.setattr(detection, "morton_codes", counting_morton)
    monkeypatch.setattr(pipeline, "hierarchical_detect", recording_detect)
    out = tmp_path / "out"
    config = PipelineConfig(
        epochs=tuple(epochs), registration=registration, grid_size=0.5, output_dir=str(out)
    )
    assert pipeline.run_pipeline(config)["status"] == "ok"
    return series, encoded, changesets, out


class TestOneLatticePerRun:
    def test_each_epoch_encoded_once_without_registration(self, tmp_path, monkeypatch):
        series, encoded, changesets, _ = run_series(tmp_path, monkeypatch, "none")
        assert sorted(encoded) == sorted(len(pts) for pts in series)
        assert len(changesets) == 2
        cube = changesets[0].cube
        assert changesets[1].cube is cube
        union = bounding_cube(*(PointCloud(pts) for pts in series))
        np.testing.assert_array_equal(cube.min_corner, union.min_corner)
        assert cube.edge == union.edge

    def test_each_aligned_epoch_gets_its_own_index(self, tmp_path, monkeypatch):
        # ICP aligns each epoch onto the previous one only, so the middle
        # epoch enters the two intervals as two different clouds.
        series, encoded, changesets, _ = run_series(tmp_path, monkeypatch, "icp")
        sizes = [len(pts) for pts in series]
        assert sorted(encoded) == sorted([sizes[0], sizes[1], sizes[1], sizes[2]])
        assert changesets[1].cube is changesets[0].cube

    def test_voxel_codes_written_as_npy_with_digest(self, tmp_path, monkeypatch):
        _, _, changesets, out = run_series(tmp_path, monkeypatch, "none")
        assert any(changes.n_voxels for changes in changesets)
        for k, changes in enumerate(changesets):
            tag = f"{k}_{k + 1}"
            meta = json.loads((out / f"voxels_{tag}.json").read_text())
            assert "codes" not in meta
            assert meta["codes_file"] == f"voxels_{tag}.npy"
            payload = (out / meta["codes_file"]).read_bytes()
            assert meta["codes_sha256"] == hashlib.sha256(payload).hexdigest()
            codes = np.load(out / meta["codes_file"])
            assert codes.dtype == np.uint64
            assert meta["n_codes"] == len(codes) == changes.n_voxels
            np.testing.assert_array_equal(codes, changes.voxel_codes)
            assert meta["min_corner"] == changes.cube.min_corner.tolist()
            assert meta["root_edge_m"] == changes.cube.edge


def coincident_epochs(tmp_path):
    """Two one-point epochs at the origin: no lattice spans them."""
    epochs = []
    for k in range(2):
        path = tmp_path / f"epoch_{k}.ply"
        save_cloud(str(path), PointCloud(np.zeros((1, 3))))
        epochs.append(EpochInput(str(path), float(k)))
    return tuple(epochs)


class TestLatticeStage:
    def test_coincident_points_fail_the_lattice_stage(self, tmp_path):
        out = tmp_path / "out"
        config = PipelineConfig(epochs=coincident_epochs(tmp_path), output_dir=str(out))
        with pytest.raises(pipeline.StageError, match="coincides") as failure:
            pipeline.run_pipeline(config)
        assert failure.value.stage == "lattice"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == "lattice"
        assert manifest["error"].startswith("lattice: every point of every cloud coincides")
        assert not (out / "report.json").exists()


class TestWorkerCount:
    """The configured thread count reaches every kd-tree query of its own
    run and no call after it."""

    def test_threads_scoped_to_the_run(self, tmp_path, monkeypatch):
        workers = []

        class RecordingTree(cKDTree):
            def query(self, *args, **kwargs):
                workers.append(kwargs.get("workers", 1))
                return super().query(*args, **kwargs)

        monkeypatch.setattr(
            registration, "kdtree", lambda cloud: RecordingTree(getattr(cloud, "xyz", cloud))
        )
        series = demolition_series(np.random.default_rng(62))
        epochs = []
        for k, pts in enumerate(series[:2]):
            path = tmp_path / f"epoch_{k}.ply"
            save_cloud(str(path), PointCloud(pts))
            epochs.append(EpochInput(str(path), float(k)))
        config = PipelineConfig(
            epochs=tuple(epochs), registration="icp", output_dir=str(tmp_path / "out"), threads=2
        )
        assert pipeline.run_pipeline(config)["status"] == "ok"
        assert workers and set(workers) == {2}

        workers.clear()
        earlier, later = PointCloud(series[0]), PointCloud(series[1])
        registration.icp_align(later, earlier)
        registration.point_to_plane_distances(later, earlier)
        assert workers and set(workers) == {1}
