"""End-to-end tests of the command-line interface and pipeline runs."""
import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from cloudchange import cli
from cloudchange.cli import main
from cloudchange.cloud_io import load_cloud, save_cloud
from cloudchange.config import parse_config
from cloudchange.detection import ChangeParams, hierarchical_detect
from cloudchange.geometry import PointCloud, bounding_cube
from scenes import hollow_box


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A three-epoch synthetic demolition series with ground truth."""
    root = tmp_path_factory.mktemp("scene")
    code = main(
        [
            "synth",
            "--output",
            str(root),
            "--epochs",
            "3",
            "--width",
            "10",
            "--length",
            "10",
            "--height",
            "5",
            "--density",
            "400",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    return root


@pytest.fixture(scope="module")
def pipeline_run(scene):
    """Two identical pipeline runs over the scene; keeps the first run's bytes."""
    config = str(scene / "config.yaml")
    assert main(["run", "--config", config]) == 0
    out = scene / "out"
    first = {
        name: (out / name).read_bytes()
        for name in ("report.json", "labels_0_1.ply", "changed_1_2.ply", "voxels_0_1.json")
    }
    assert main(["run", "--config", config]) == 0
    return out, first


class TestSynth:
    def test_outputs_exist_and_config_parses(self, scene):
        for k in range(3):
            assert (scene / f"epoch_{k}.ply").exists()
        for k in range(2):
            assert (scene / f"truth_{k}_{k + 1}.ply").exists()
        config = parse_config(scene / "config.yaml")
        assert len(config.epochs) == 3
        assert config.registration == "none"
        assert config.grid_size == 0.5

    def test_truth_volumes_positive(self, scene):
        truth = json.loads((scene / "truth.json").read_text())
        assert len(truth["interval_volumes_m3"]) == 2
        assert all(v > 0 for v in truth["interval_volumes_m3"])
        assert all(
            box["hi"][2] == truth["building"]["height"] for box in truth["boxes"]
        )

    def test_epochs_shrink_as_demolition_proceeds(self, scene):
        sizes = [len(load_cloud(scene / f"epoch_{k}.ply")) for k in range(3)]
        assert sizes[0] > sizes[1] > sizes[2]


class TestRun:
    def test_reports_written_with_ok_status(self, pipeline_run):
        out, _ = pipeline_run
        report = json.loads((out / "report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert report["report_version"] == 3
        assert len(report["intervals"]) == 2
        assert manifest["status"] == "ok"
        assert manifest["timings_s"]
        for k in range(2):
            tag = f"{k}_{k + 1}"
            for name in (f"labels_{tag}.ply", f"changed_{tag}.ply", f"voxels_{tag}.json"):
                assert (out / name).exists()

    def test_volumes_match_analytic_truth(self, scene, pipeline_run):
        out, _ = pipeline_run
        report = json.loads((out / "report.json").read_text())
        truth = json.loads((scene / "truth.json").read_text())
        for interval, expected in zip(report["intervals"], truth["interval_volumes_m3"]):
            assert interval["volume_m3"] == pytest.approx(expected, rel=0.02)
        timeline = report["timeline"]
        assert timeline["cumulative_volumes_m3"][-1] == pytest.approx(
            sum(truth["interval_volumes_m3"]), rel=0.02
        )

    def test_reruns_are_byte_identical(self, pipeline_run):
        out, first = pipeline_run
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload, f"{name} changed between runs"

    def test_predicted_labels_score_against_truth(self, scene, pipeline_run, capsys):
        out, _ = pipeline_run
        code = main(
            [
                "eval",
                "--predicted",
                str(out / "labels_0_1.ply"),
                "--truth",
                str(scene / "truth_0_1.ply"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["precision"] >= 0.95
        assert payload["metrics"]["recall"] >= 0.95
        assert payload["counts"]["unknown"] == 0


class TestDetectCommand:
    def test_detect_writes_interval_outputs(self, scene, tmp_path, capsys):
        out = tmp_path / "detect"
        code = main(
            [
                "detect",
                "--reference",
                str(scene / "epoch_0.ply"),
                "--other",
                str(scene / "epoch_1.ply"),
                "--output",
                str(out),
                "--grid-size",
                "0.5",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_changed_voxels"] > 0
        assert payload["volume_m3"] > 0
        assert (out / "labels_0_1.ply").exists()
        assert (out / "changed_0_1.ply").exists()
        assert (out / "detect_report.json").exists()

    def test_identical_epochs_detect_nothing(self, scene, tmp_path, capsys):
        out = tmp_path / "nochange"
        code = main(
            [
                "detect",
                "--reference",
                str(scene / "epoch_0.ply"),
                "--other",
                str(scene / "epoch_0.ply"),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_changed_voxels"] == 0
        assert payload["volume_m3"] == 0.0
        labels = load_cloud(out / "labels_0_1.ply")
        assert int(labels.labels.max(initial=0)) == 0


class TestDetectionOverrides:
    """Every detection flag reaches ChangeParams; omitted flags keep defaults."""

    @pytest.fixture
    def detect_params(self, monkeypatch):
        seen = []

        def recording(reference, other, params=None, **kwargs):
            seen.append(params)
            return hierarchical_detect(reference, other, params=params, **kwargs)

        monkeypatch.setattr(cli, "hierarchical_detect", recording)
        return seen

    def _args(self, scene, command, out):
        args = [command, "--reference", str(scene / "epoch_0.ply"), "--other", str(scene / "epoch_1.ply")]
        return args + ["--output", str(out), "--grid-size", "0.5"]

    def test_every_flag_overrides_its_field(self, scene, tmp_path, capsys, detect_params):
        overrides = [
            "--start-depth", "5",
            "--max-depth", "8",
            "--threshold", "1e4",
            "--threshold", "2e4",
            "--threshold", "3e4",
            "--threshold", "4e4",
            "--component-radius", "0.3",
            "--component-min-size", "7",
        ]
        for command, out in (("detect", tmp_path / "detect"), ("volume", tmp_path / "volume.json")):
            assert main(self._args(scene, command, out) + overrides) == 0
        capsys.readouterr()
        expected = ChangeParams(
            start_depth=5,
            max_depth=8,
            thresholds=(1e4, 2e4, 3e4, 4e4),
            component_radius=0.3,
            component_min_size=7,
        )
        assert detect_params == [expected, expected]
        # The written voxels are at the overridden finest depth.
        report = json.loads((tmp_path / "detect" / "detect_report.json").read_text())
        cube = bounding_cube(load_cloud(scene / "epoch_0.ply"))
        assert report["voxel_edge_m"] == cube.edge / 2**8
        assert report["n_changed_voxels"] > 0

    def test_omitted_flags_keep_defaults(self, scene, tmp_path, capsys, detect_params):
        assert main(self._args(scene, "volume", tmp_path / "volume.json")) == 0
        assert detect_params == [ChangeParams()]


class TestVolumeCommand:
    def test_volume_matches_truth(self, scene, tmp_path):
        report = tmp_path / "volume.json"
        code = main(
            [
                "volume",
                "--reference",
                str(scene / "epoch_0.ply"),
                "--other",
                str(scene / "epoch_1.ply"),
                "--grid-size",
                "0.5",
                "--output",
                str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        truth = json.loads((scene / "truth.json").read_text())
        assert payload["volume_m3"] == pytest.approx(truth["interval_volumes_m3"][0], rel=0.02)
        assert payload["cell_size_m"] == 0.5
        assert payload["n_cells"] > 0

    @pytest.mark.parametrize("grid_size", ["nan", "inf"])
    def test_non_finite_grid_size_fails(self, scene, tmp_path, caplog, grid_size):
        report = tmp_path / "volume.json"
        code = main(
            [
                "volume",
                "--reference",
                str(scene / "epoch_0.ply"),
                "--other",
                str(scene / "epoch_1.ply"),
                "--grid-size",
                grid_size,
                "--output",
                str(report),
            ]
        )
        assert code == 1
        assert "cell size must be finite" in caplog.text
        assert not report.exists()


class TestRegisterCommand:
    def test_known_offset_recovered(self, tmp_path):
        rng = np.random.default_rng(21)
        pts = hollow_box(rng, w=10.0, l=8.0, h=5.0, density=30.0)
        rot = Rotation.from_euler("z", 10, degrees=True).as_matrix()
        shift = np.array([1.0, 0.5, 0.2])
        source = tmp_path / "source.ply"
        target = tmp_path / "target.ply"
        aligned = tmp_path / "aligned.ply"
        report = tmp_path / "icp.json"
        save_cloud(source, PointCloud(pts @ rot.T + shift))
        save_cloud(target, PointCloud(pts))
        code = main(
            [
                "register",
                "--source",
                str(source),
                "--target",
                str(target),
                "--output",
                str(aligned),
                "--report",
                str(report),
                "--max-iterations",
                "200",
                "--convergence-threshold",
                "1e-14",
                "--rejection-distance",
                "1000",
                "--trim-fraction",
                "0",
                "--distances",
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["converged"] is True
        assert payload["rms_m"] < 1e-6
        recovered = np.array(payload["rotation"])
        assert np.allclose(recovered @ rot, np.eye(3), atol=1e-6)
        # Plane fits straddling box creases keep the mean away from zero even
        # for a perfect alignment; the median is the clean signal.
        assert payload["distances"]["percentiles_m"]["50"] < 1e-9
        assert payload["distances"]["mean_m"] < 0.01
        assert "distance_stats" not in payload
        np.testing.assert_allclose(load_cloud(aligned).xyz, pts, atol=1e-5)


class TestThreadsFlag:
    """`--threads` follows the config's >= 1 rule on `register`; detection
    makes no kd-tree query that takes a worker count, so `detect` and
    `volume` have no such flag."""

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_register_refuses_count_below_one(self, tmp_path, caplog, threads):
        pts = hollow_box(np.random.default_rng(22), w=4.0, l=4.0, h=2.0, density=10.0)
        cloud = tmp_path / "cloud.ply"
        save_cloud(cloud, PointCloud(pts))
        args = ["register", "--source", str(cloud), "--target", str(cloud)]
        assert main(args + ["--report", str(tmp_path / "icp.json"), "--threads", threads]) == 1
        assert f"threads: must be >= 1, got {threads}" in caplog.text
        assert not (tmp_path / "icp.json").exists()

    @pytest.mark.parametrize("command", ["detect", "volume"])
    def test_detection_commands_have_no_threads_flag(self, scene, tmp_path, capsys, command):
        args = [command, "--reference", str(scene / "epoch_0.ply"), "--other", str(scene / "epoch_1.ply")]
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--output", str(tmp_path / "out"), "--threads", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


class TestRefinePosesCommand:
    def test_scenario_solved_from_file(self, tmp_path):
        scenario_dir = tmp_path / "poses"
        assert main(["synth", "--output", str(scenario_dir), "--pose-scenario"]) == 0
        result = tmp_path / "result.json"
        code = main(
            [
                "refine-poses",
                "--scenario",
                str(scenario_dir / "scenario.json"),
                "--output",
                str(result),
            ]
        )
        assert code == 0
        payload = json.loads(result.read_text())
        assert payload["converged"] is True
        assert payload["rms_px"] < 1e-6
        assert len(payload["new_epoch"]["cameras"]) == 20
        assert len(payload["points"]) == 500


class TestTimelineCommand:
    def test_aggregates_volumes(self, capsys):
        code = main(
            ["timeline", "--timestamps", "0", "10", "30", "--volumes", "5", "10"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cumulative_volumes_m3"] == [5.0, 15.0]
        assert payload["daily_rates_m3_per_day"] == [0.5, 0.5]

    def test_mismatched_counts_fail(self):
        assert main(["timeline", "--timestamps", "0", "10", "--volumes", "5", "9"]) == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_values_fail(self, bad, capsys):
        # These printed a bare NaN or Infinity, which is not JSON, and exited 0.
        assert main(["timeline", "--timestamps", "0", "10", "--volumes", bad]) == 1
        assert main(["timeline", "--timestamps", "0", bad, "2", "--volumes", "5", "9"]) == 1
        assert capsys.readouterr().out == ""


class TestFailureModes:
    def test_missing_input_fails_with_manifest(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "epochs:\n"
            "  - {path: missing_a.ply, timestamp: 0}\n"
            "  - {path: missing_b.ply, timestamp: 1}\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", "--config", str(config)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == "load"
        assert "missing_a.ply" in manifest["error"]

    def test_coincident_points_fail_the_lattice_stage(self, tmp_path, caplog):
        for k in range(2):
            save_cloud(str(tmp_path / f"e{k}.ply"), PointCloud(np.zeros((1, 3))))
        config = tmp_path / "config.yaml"
        config.write_text(
            "epochs:\n"
            f"  - {{path: {tmp_path / 'e0.ply'}, timestamp: 0}}\n"
            f"  - {{path: {tmp_path / 'e1.ply'}, timestamp: 1}}\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", "--config", str(config)]) == 1
        assert "lattice: every point of every cloud coincides" in caplog.text
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == "lattice"
        assert "coincides" in manifest["error"]

    def test_unknown_config_key_fails(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "epochs:\n"
            "  - {path: a.ply, timestamp: 0}\n"
            "  - {path: b.ply, timestamp: 1}\n"
            "detection: {max_depht: 9}\n"
        )
        assert main(["run", "--config", str(config)]) == 1

    def test_mixed_timestamp_kinds_fail(self, tmp_path, caplog):
        config = tmp_path / "config.yaml"
        config.write_text(
            "epochs:\n"
            "  - {path: a.ply, timestamp: 2026-01-01T00:00:00Z}\n"
            "  - {path: b.ply, timestamp: 2026-01-02T00:00:00}\n"
        )
        assert main(["run", "--config", str(config)]) == 1
        assert "mix incompatible kinds" in caplog.text

    def test_eval_requires_labels(self, scene):
        code = main(
            [
                "eval",
                "--predicted",
                str(scene / "epoch_0.ply"),
                "--truth",
                str(scene / "truth_0_1.ply"),
            ]
        )
        assert code == 1

    def test_eval_requires_matching_sizes(self, scene):
        code = main(
            [
                "eval",
                "--predicted",
                str(scene / "truth_0_1.ply"),
                "--truth",
                str(scene / "truth_1_2.ply"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("sigma", ["-0.1", "nan", "inf"])
    def test_synth_refuses_invalid_noise_sigma(self, tmp_path, caplog, sigma):
        code = main(["synth", "--output", str(tmp_path), "--epochs", "2", "--noise-sigma", sigma])
        assert code == 1
        assert "noise_sigma must be finite and >= 0" in caplog.text
        assert not (tmp_path / "truth.json").exists()

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
