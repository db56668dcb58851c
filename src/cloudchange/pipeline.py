"""Batch pipeline: consecutive epoch pairs through registration, change
detection, and volume integration, with deterministic reports.

Every numeric artifact (reports, voxel lists, labeled clouds) is a pure
function of config + inputs, so reruns are byte-identical; wall-clock
timings live in their own manifest field and are the only nondeterminism.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import time
from importlib import metadata
from typing import List

import numpy as np

from .cloud_io import load_cloud, save_cloud
from .config import REPORT_VERSION, PipelineConfig, config_to_dict
from .detection import ChangeSet, Lattice, hierarchical_detect
from .geometry import ChangeLabel, PointCloud, apply_transform
from .registration import icp_align
from .volumetrics import DEFAULT_CELL_SIZE, build_ground_grid, change_volume, timeline_report

logger = logging.getLogger(__name__)

__all__ = ["INTERVAL_COLORS", "StageError", "interval_record", "run_pipeline", "write_interval"]

# One color per epoch interval, cycled; changed clouds from interval k all
# share INTERVAL_COLORS[k % len].
INTERVAL_COLORS = (
    (228, 26, 28),
    (55, 126, 184),
    (77, 175, 74),
    (152, 78, 163),
    (255, 127, 0),
    (166, 86, 40),
)


class StageError(RuntimeError):
    """A pipeline stage failed; message carries the stage tag."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


def _package_version() -> str:
    try:
        return metadata.version("cloudchange")
    except metadata.PackageNotFoundError:
        return "unknown"


def write_json(path, payload: dict) -> None:
    """Sorted-key JSON with a trailing newline: byte-deterministic for a
    given payload."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load_epochs(config: PipelineConfig) -> List[PointCloud]:
    clouds = []
    for epoch in config.epochs:
        if not os.path.exists(epoch.path):
            raise StageError("load", f"input file does not exist: {epoch.path}")
        try:
            clouds.append(load_cloud(epoch.path))
        except Exception as exc:
            raise StageError("load", f"{epoch.path}: {exc}") from exc
    return clouds


def _register_pair(earlier: PointCloud, later: PointCloud, config: PipelineConfig):
    """Align the later epoch onto the earlier; returns (aligned, record)."""
    if config.registration == "none":
        return later, None
    result = icp_align(later, earlier, params=config.icp, threads=config.threads)
    return apply_transform(later, result.transform), result.to_dict()


def write_interval(
    changes: ChangeSet, earlier: PointCloud, later: PointCloud, out_dir: str
) -> None:
    """Write the labeled cloud, the colorized changed subset, and the voxel
    list of the interval `changes.epoch_pair`.

    The voxel codes go to `voxels_<i>_<j>.npy` as uint64; `voxels_<i>_<j>.json`
    holds the lattice metadata, that file's name, the code count and the
    file's sha256."""
    first, second = changes.epoch_pair
    tag = f"{first}_{second}"
    labels = np.full(len(earlier), int(ChangeLabel.UNCHANGED), dtype=np.uint8)
    labels[changes.changed_reference] = int(ChangeLabel.CHANGED)
    save_cloud(os.path.join(out_dir, f"labels_{tag}.ply"), earlier.with_attributes(labels=labels))

    color = INTERVAL_COLORS[first % len(INTERVAL_COLORS)]
    removed = earlier.xyz[changes.changed_reference]
    added = later.xyz[changes.changed_other]
    changed_xyz = np.vstack([removed, added])
    changed = PointCloud(
        changed_xyz,
        colors=np.tile(np.array(color, dtype=np.uint8), (len(changed_xyz), 1)),
        labels=np.full(len(changed_xyz), int(ChangeLabel.CHANGED), dtype=np.uint8),
        epochs=np.concatenate(
            [
                np.full(len(removed), first, dtype=np.int32),
                np.full(len(added), second, dtype=np.int32),
            ]
        ),
    )
    save_cloud(os.path.join(out_dir, f"changed_{tag}.ply"), changed)

    codes_name = f"voxels_{tag}.npy"
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(changes.voxel_codes, dtype=np.uint64))
    with open(os.path.join(out_dir, codes_name), "wb") as handle:
        handle.write(buffer.getbuffer())
    write_json(
        os.path.join(out_dir, f"voxels_{tag}.json"),
        {
            "depth": changes.depth,
            "edge_m": changes.voxel_edge,
            "min_corner": [float(v) for v in changes.cube.min_corner],
            "root_edge_m": float(changes.cube.edge),
            "codes_file": codes_name,
            "n_codes": changes.n_voxels,
            "codes_sha256": hashlib.sha256(buffer.getbuffer()).hexdigest(),
        },
    )


def interval_record(
    changes: ChangeSet, earlier: PointCloud, later: PointCloud, cell_size: float = DEFAULT_CELL_SIZE
) -> dict:
    """The report entry of the interval `changes.epoch_pair`: its detection
    counts and the volume billed on a ground grid of `cell_size` metre
    cells. `run` adds the interval's registration record to it."""
    grid = build_ground_grid(changes, earlier, later, cell_size=cell_size)
    return {
        "epochs": list(changes.epoch_pair),
        "n_changed_voxels": changes.n_voxels,
        "voxel_edge_m": changes.voxel_edge,
        "n_changed_reference": int(len(changes.changed_reference)),
        "n_changed_other": int(len(changes.changed_other)),
        "grid_cells": grid.n_cells,
        "grid_fallback_cells": int(np.sum(grid.fallback)),
        "grid_cell_size_m": grid.cell_size,
        "volume_m3": change_volume(grid),
    }


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every consecutive epoch pair and write artifacts to disk.

    Returns the manifest. Any stage failure raises StageError after writing
    a manifest that marks the run incomplete.
    """
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    timings: dict = {}
    manifest = {
        "package_version": _package_version(),
        "report_version": REPORT_VERSION,
        "seed": config.seed,
        "config": config_to_dict(config),
        "status": "incomplete",
        "timings_s": timings,
    }
    try:
        started = time.perf_counter()
        clouds = _load_epochs(config)
        timings["load"] = time.perf_counter() - started

        # Every interval is registered before any is detected, so the one
        # lattice of the run bounds each aligned later epoch. ICP aligns each
        # epoch onto the previous one only: an aligned cloud is a cloud of
        # its own and gets its own codes. Without registration, epoch k is
        # the `other` of interval k-1 -> k and the `reference` of k -> k+1,
        # and is encoded once.
        laters = []
        registrations = []
        for i in range(len(clouds) - 1):
            try:
                started = time.perf_counter()
                later, registration = _register_pair(clouds[i], clouds[i + 1], config)
                timings[f"interval_{i}_{i + 1}.register"] = time.perf_counter() - started
            except Exception as exc:
                raise StageError(f"register[{i}]", str(exc)) from exc
            laters.append(later)
            registrations.append(registration)
        try:
            lattice = Lattice(clouds[:-1] + laters)
        except Exception as exc:
            raise StageError("lattice", str(exc)) from exc

        intervals = []
        for i, (earlier, later, registration) in enumerate(zip(clouds, laters, registrations)):
            tag = f"interval_{i}_{i + 1}"
            try:
                started = time.perf_counter()
                changes = hierarchical_detect(
                    earlier, later, params=config.detection, epoch_pair=(i, i + 1), lattice=lattice
                )
                timings[f"{tag}.detect"] = time.perf_counter() - started
            except Exception as exc:
                raise StageError(f"detect[{i}]", str(exc)) from exc
            try:
                started = time.perf_counter()
                write_interval(changes, earlier, later, out_dir)
                entry = interval_record(changes, earlier, later, config.grid_size)
                timings[f"{tag}.volume"] = time.perf_counter() - started
            except Exception as exc:
                raise StageError(f"volume[{i}]", str(exc)) from exc
            if registration is not None:
                entry["registration"] = registration
            intervals.append(entry)
            logger.info(
                "interval %d->%d: %d changed voxels, volume %.3f m3",
                i,
                i + 1,
                entry["n_changed_voxels"],
                entry["volume_m3"],
            )

        timeline = timeline_report(
            [e.timestamp for e in config.epochs], [e["volume_m3"] for e in intervals]
        )
        report = {
            "report_version": REPORT_VERSION,
            "config": config_to_dict(config),
            "intervals": intervals,
            "timeline": timeline.to_dict(),
        }
        write_json(os.path.join(out_dir, "report.json"), report)
        manifest["status"] = "ok"
        manifest["intervals"] = intervals
        return manifest
    except StageError as exc:
        manifest["status"] = "failed"
        manifest["failed_stage"] = exc.stage
        manifest["error"] = str(exc)
        raise
    finally:
        write_json(os.path.join(out_dir, "manifest.json"), manifest)
