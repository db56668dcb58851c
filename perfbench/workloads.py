"""The benchmark's three workloads: scene synthesis, the measured call, and
the output checks and quality scores of one repetition.

`setup(workload, seed)` runs in the benchmark process and writes the inputs
under `inputs/`; `measure(workload, tracer)` runs in a fresh process per
repetition and writes artifacts under `out/`. Both work relative to the
current directory, so no artifact names an absolute path and the digest is
the same in every checkout. The library only ever sees the files `setup`
wrote.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time

import numpy as np

from cloudchange import pipeline
from cloudchange.adjustment import (
    AdjustmentOptions,
    Scenario,
    load_scenario,
    refine_progressive,
    save_scenario,
)
from cloudchange.cloud_io import load_cloud, save_cloud
from cloudchange.config import EpochInput, PipelineConfig, parse_config, serialize_config
from cloudchange.evaluation import change_metrics, confusion_counts
from cloudchange.geometry import ChangeLabel, PointCloud, RigidTransform
from cloudchange.synth import (
    BuildingSpec,
    DemolitionScript,
    PoseScenarioConfig,
    RemovalBox,
    add_noise,
    apply_demolition,
    generate_building,
    generate_pose_scenario,
)

# Site and network sizes, scaled down from the acceptance scenes so that one
# repetition takes a few seconds and a run holds several. The removal boxes
# are fixed, full height and snapped to the 0.5 m grid: the seed drives
# sampling and noise only, so runs with different seeds do the same work.
DEMOLITION_SPEC = BuildingSpec(width=10.0, length=10.0, height=8.0, density=400.0)
DEMOLITION_SCRIPT = DemolitionScript(
    building=DEMOLITION_SPEC,
    boxes=(
        RemovalBox(epoch=1, lo=(1.0, 2.0, 0.0), hi=(4.0, 8.5, 8.0)),
        RemovalBox(epoch=2, lo=(6.0, 1.5, 0.0), hi=(9.0, 8.0, 8.0)),
    ),
)
RESURVEY_SPEC = BuildingSpec(width=8.0, length=8.0, height=5.0, density=100.0)
RESURVEY_SCRIPT = DemolitionScript(
    building=RESURVEY_SPEC,
    boxes=(RemovalBox(epoch=1, lo=(2.0, 1.5, 0.0), hi=(5.5, 6.5, 5.0)),),
)
RESURVEY_SIGMA_M = 0.005
RESURVEY_YAW_DEG = 0.05
RESURVEY_OFFSET_M = (0.02, -0.015, 0.01)
GRID_M = 0.5
POSE_CONFIG = dict(
    n_fixed_cameras=30,
    n_new_cameras=30,
    n_points=250,
    noise_sigma=0.5,
    outlier_fraction=0.01,
)
# At the default tolerance of 1e-12 the last iterations of each solve run at
# the floating-point noise floor, and the iteration count swings from 20 to
# 46 between seeds with the same rejections; at 1e-9 every seed takes 17 or
# 18 accepted steps to the same rejections, so run_s measures the solver,
# not rounding luck.
POSE_OPTIONS = AdjustmentOptions(convergence_tolerance=1e-9)

# Per-layer results that the measured call returns; zero on the workloads
# that do not run the layer.
RESULT_LAYERS = (
    "volumetrics.volume_err_pct",
    "adjustment.reproj_rms_px",
    "adjustment.pose_center_err_mm",
    "adjustment.lm_iterations",
    "adjustment.accepted_ratio",
    "adjustment.outlier_rounds",
    "adjustment.rejected_frac",
    "adjustment.s_per_iteration",
)

INPUT_DIR = "inputs"
OUT_DIR = "out"


class CheckFailed(Exception):
    """An output of the measured call is invalid."""


def _write_cloud_inputs(clouds, truth_labels, volumes, registration: str, seed: int) -> None:
    paths = []
    for k, cloud in enumerate(clouds):
        path = os.path.join(INPUT_DIR, f"epoch_{k}.ply")
        save_cloud(path, PointCloud(cloud.xyz))
        paths.append(path)
    for k, labels in enumerate(truth_labels):
        np.save(os.path.join(INPUT_DIR, f"truth_{k}_{k + 1}.npy"), labels)
    config = PipelineConfig(
        epochs=tuple(EpochInput(path=p, timestamp=float(k)) for k, p in enumerate(paths)),
        registration=registration,
        grid_size=GRID_M,
        output_dir=OUT_DIR,
        seed=seed,
    )
    with open(os.path.join(INPUT_DIR, "config.yaml"), "w") as handle:
        handle.write(serialize_config(config))
    with open(os.path.join(INPUT_DIR, "truth.json"), "w") as handle:
        json.dump({"interval_volumes_m3": [float(v) for v in volumes]}, handle)


def _setup_demolition(seed: int) -> None:
    # Progressive removal: each epoch is the previous one minus its box, so
    # surviving points stay bit-identical.
    clouds = [generate_building(DEMOLITION_SPEC, seed)]
    truth, volumes = [], []
    for epoch in DEMOLITION_SCRIPT.epochs():
        later, labels, volume = apply_demolition(clouds[-1], DEMOLITION_SCRIPT, epoch)
        clouds.append(later)
        truth.append(labels)
        volumes.append(volume)
    _write_cloud_inputs(clouds, truth, volumes, "none", seed)


def _setup_resurvey(seed: int) -> None:
    # Each epoch samples the building with its own seed before the box is
    # removed, so no point repeats between epochs.
    earlier = generate_building(RESURVEY_SPEC, seed)
    _, truth, volume = apply_demolition(earlier, RESURVEY_SCRIPT, 1)
    later, _, _ = apply_demolition(generate_building(RESURVEY_SPEC, seed + 1), RESURVEY_SCRIPT, 1)
    earlier = add_noise(earlier, RESURVEY_SIGMA_M, seed + 1000)
    later = add_noise(later, RESURVEY_SIGMA_M, seed + 1001)
    yaw = math.radians(RESURVEY_YAW_DEG)
    rotation = np.array(
        [[math.cos(yaw), -math.sin(yaw), 0.0], [math.sin(yaw), math.cos(yaw), 0.0], [0.0, 0.0, 1.0]]
    )
    moved = RigidTransform(rotation, np.array(RESURVEY_OFFSET_M)).apply(later.xyz)
    _write_cloud_inputs([earlier, PointCloud(moved)], [truth], [volume], "icp", seed)


def _setup_pose(seed: int) -> None:
    scenario = generate_pose_scenario(PoseScenarioConfig(seed=seed, **POSE_CONFIG))
    save_scenario(scenario.to_scenario(), os.path.join(INPUT_DIR, "scenario.json"))


SETUP = {
    "demolition": _setup_demolition,
    "resurvey": _setup_resurvey,
    "pose": _setup_pose,
}


def setup(workload: str, seed: int) -> None:
    """Synthesize the workload's scene from `seed` and write it to `inputs/`."""
    os.makedirs(INPUT_DIR, exist_ok=True)
    SETUP[workload](seed)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest() -> str:
    """sha256 over every artifact except the manifest, which holds timings."""
    combined = hashlib.sha256()
    for name in sorted(os.listdir(OUT_DIR)):
        if name == "manifest.json":
            continue
        with open(os.path.join(OUT_DIR, name), "rb") as handle:
            combined.update(name.encode() + b"\0" + hashlib.sha256(handle.read()).digest())
    return combined.hexdigest()


def _score(predicted: np.ndarray, truth: np.ndarray):
    """(precision, recall); an undefined score counts as 0."""
    scores = change_metrics(confusion_counts(predicted, truth))
    return scores.precision or 0.0, scores.recall or 0.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _measure_pipeline(tracer) -> dict:
    config = parse_config(os.path.join(INPUT_DIR, "config.yaml"))
    started = time.perf_counter()
    with tracer.span("pipeline.run_pipeline"):
        manifest = pipeline.run_pipeline(config)
    run_s = time.perf_counter() - started
    peak = _peak_rss_mib()

    _require(manifest.get("status") == "ok", f"manifest status {manifest.get('status')!r}")
    n_intervals = len(config.epochs) - 1
    expected = ["report.json", "manifest.json"]
    for i in range(n_intervals):
        tag = f"{i}_{i + 1}"
        expected += [f"labels_{tag}.ply", f"changed_{tag}.ply", f"voxels_{tag}.json"]
    missing = [name for name in expected if not os.path.exists(os.path.join(OUT_DIR, name))]
    _require(not missing, f"missing artifacts {missing}")
    with open(os.path.join(OUT_DIR, "report.json")) as handle:
        billed = [entry["volume_m3"] for entry in json.load(handle)["intervals"]]
    _require(len(billed) == n_intervals, f"{len(billed)} report intervals, expected {n_intervals}")
    _require(all(math.isfinite(v) for v in billed), f"non-finite volume in {billed}")
    with open(os.path.join(INPUT_DIR, "truth.json")) as handle:
        analytic = sum(json.load(handle)["interval_volumes_m3"])

    precision, recall = [], []
    for i in range(n_intervals):
        tag = f"{i}_{i + 1}"
        labels = load_cloud(os.path.join(OUT_DIR, f"labels_{tag}.ply")).labels
        truth = np.load(os.path.join(INPUT_DIR, f"truth_{tag}.npy"))
        n_labels = 0 if labels is None else len(labels)
        _require(
            n_labels == len(truth),
            f"labels_{tag}.ply holds {n_labels} labels for {len(truth)} earlier-epoch points",
        )
        p, r = _score(labels, truth)
        precision.append(p)
        recall.append(r)
    return {
        "run_s": run_s,
        "peak_rss_mib": peak,
        # The worst interval counts.
        "precision": min(precision),
        "recall": min(recall),
        "layers": {"volumetrics.volume_err_pct": 100.0 * abs(sum(billed) - analytic) / analytic},
        "bases": {},
        "digest": _digest(),
    }


def _measure_pose(tracer) -> dict:
    scenario = load_scenario(os.path.join(INPUT_DIR, "scenario.json"))
    started = time.perf_counter()
    with tracer.span("adjustment.refine_progressive"):
        result = refine_progressive(
            scenario.fixed_epochs,
            scenario.new_epoch,
            scenario.points,
            scenario.observations,
            POSE_OPTIONS,
        )
    run_s = time.perf_counter() - started
    peak = _peak_rss_mib()

    injected = scenario.truth["outlier_observations"]
    rejected = result.rejected_observations
    _require(result.converged, "adjustment did not converge")
    missed = sorted(set(injected) - set(rejected))
    _require(not missed, f"{len(missed)} injected outliers not rejected, first {missed[:5]}")

    # Outlier rejection scored like change detection: an injected outlier
    # is a changed item, a rejected observation a flagged one.
    n_obs = len(scenario.observations)
    truth = np.full(n_obs, int(ChangeLabel.UNCHANGED), dtype=np.uint8)
    truth[injected] = int(ChangeLabel.CHANGED)
    flagged = np.full(n_obs, int(ChangeLabel.UNCHANGED), dtype=np.uint8)
    flagged[rejected] = int(ChangeLabel.CHANGED)
    precision, recall = _score(flagged, truth)
    true_centers = {c["id"]: np.array(c["center"]) for c in scenario.truth["new_epoch"]["cameras"]}
    center_err = max(
        float(np.linalg.norm(eo.center - true_centers[cam_id]))
        for cam_id, eo in result.new_cameras.cameras.items()
    )

    estimate = Scenario(
        fixed_epochs=result.fixed_cameras,
        new_epoch=result.new_cameras,
        points=result.points,
        observations=[],
        truth={"rejected_observations": rejected, "rms_px": result.rms},
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    save_scenario(estimate, os.path.join(OUT_DIR, "estimate.json"))

    log = result.iteration_log
    accepted = sum(entry["accepted"] for entry in log)
    return {
        "run_s": run_s,
        "peak_rss_mib": peak,
        "precision": precision,
        "recall": recall,
        "layers": {
            "adjustment.reproj_rms_px": result.rms,
            "adjustment.pose_center_err_mm": 1000.0 * center_err,
            "adjustment.lm_iterations": len(log),
            "adjustment.accepted_ratio": accepted / len(log),
            "adjustment.outlier_rounds": max(entry["round"] for entry in log),
            "adjustment.rejected_frac": len(rejected) / n_obs,
            "adjustment.s_per_iteration": run_s / len(log),
        },
        "bases": {
            "adjustment.accepted_ratio": ["accepted steps", accepted, "LM iterations", len(log)],
            "adjustment.rejected_frac": ["rejected", len(rejected), "observations", n_obs],
            "adjustment.s_per_iteration": ["refine_s", run_s, "LM iterations", len(log)],
        },
        "digest": _digest(),
    }


MEASURE = {
    "demolition": _measure_pipeline,
    "resurvey": _measure_pipeline,
    "pose": _measure_pose,
}


def measure(workload: str, tracer) -> dict:
    """Run the workload's measured call once, check its outputs and score
    them against the synthetic truth. Raises CheckFailed on invalid output."""
    record = MEASURE[workload](tracer)
    record["layers"] = {**dict.fromkeys(RESULT_LAYERS, 0.0), **record["layers"]}
    return record
