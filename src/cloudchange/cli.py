"""Command-line driver: each pipeline stage independently invokable, plus
`run` to chain them over a multi-epoch series."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from typing import Optional

from .adjustment import (
    AdjustmentOptions,
    _epoch_to_dict,
    _points_to_list,
    load_scenario,
    refine_progressive,
    save_scenario,
)
from .cloud_io import load_cloud, save_cloud
from .config import (
    EpochInput,
    PipelineConfig,
    parse_config,
    serialize_config,
)
from .detection import ChangeParams, hierarchical_detect
from .evaluation import change_metrics, confusion_counts
from .geometry import apply_transform
from .pipeline import StageError, interval_record, run_pipeline, write_interval, write_json
from .registration import IcpParams, icp_align, point_to_plane_distances
from .synth import (
    BuildingSpec,
    PoseScenarioConfig,
    generate_demolition_series,
    generate_pose_scenario,
)
from .volumetrics import DEFAULT_CELL_SIZE, timeline_report

logger = logging.getLogger(__name__)

_GRID_HELP = f"ground grid cell size, metres (default {DEFAULT_CELL_SIZE})"


def _emit(payload: dict, output: Optional[str]) -> None:
    if output:
        write_json(output, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _add_detection_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("detection overrides")
    group.add_argument("--start-depth", type=int, help="octree depth where scoring begins")
    group.add_argument("--max-depth", type=int, help="finest octree depth")
    group.add_argument(
        "--threshold",
        type=float,
        action="append",
        dest="thresholds",
        help="change threshold; repeat for one value per depth",
    )
    group.add_argument("--component-radius", type=float, help="cluster filter grid cell edge, metres")
    group.add_argument("--component-min-size", type=int, help="minimum cluster size kept")


def _params_from_args(cls, args):
    """`cls` (ChangeParams or IcpParams) with every field whose same-named
    flag was given on the command line overridden; repeated flags give a
    tuple."""
    updates = {}
    for f in dataclasses.fields(cls):
        value = getattr(args, f.name, None)
        if value is not None:
            updates[f.name] = tuple(value) if isinstance(value, list) else value
    return cls(**updates)


def cmd_synth(args) -> int:
    os.makedirs(args.output, exist_ok=True)
    if args.pose_scenario:
        scenario = generate_pose_scenario(PoseScenarioConfig(seed=args.seed))
        path = os.path.join(args.output, "scenario.json")
        save_scenario(scenario.to_scenario(), path)
        print(path)
        return 0
    spec = BuildingSpec(
        width=args.width,
        length=args.length,
        height=args.height,
        story_height=args.story_height,
        density=args.density,
    )
    clouds, truth_labels, script, volumes = generate_demolition_series(
        spec, args.epochs, seed=args.seed, noise_sigma=args.noise_sigma, align=args.grid_size
    )
    epoch_files = []
    truth_files = []
    for k, cloud in enumerate(clouds):
        path = os.path.join(args.output, f"epoch_{k}.ply")
        save_cloud(path, cloud)
        epoch_files.append(path)
    for k, labels in enumerate(truth_labels):
        path = os.path.join(args.output, f"truth_{k}_{k + 1}.ply")
        save_cloud(path, clouds[k].with_attributes(labels=labels))
        truth_files.append(path)
    config = PipelineConfig(
        epochs=tuple(
            EpochInput(path=p, timestamp=float(k)) for k, p in enumerate(epoch_files)
        ),
        registration="none",
        grid_size=args.grid_size,
        output_dir=os.path.join(args.output, "out"),
        seed=args.seed,
    )
    config_path = os.path.join(args.output, "config.yaml")
    with open(config_path, "w") as handle:
        handle.write(serialize_config(config))
    write_json(
        os.path.join(args.output, "truth.json"),
        {
            "building": {
                "width": spec.width,
                "length": spec.length,
                "height": spec.height,
                "story_height": spec.story_height,
                "density": spec.density,
            },
            "boxes": [
                {"epoch": b.epoch, "lo": list(b.lo), "hi": list(b.hi)} for b in script.boxes
            ],
            "interval_volumes_m3": volumes,
            "epoch_files": epoch_files,
            "truth_files": truth_files,
            "noise_sigma": args.noise_sigma,
            "seed": args.seed,
        },
    )
    logger.info(
        "wrote %d epochs (%s points each) to %s",
        len(clouds),
        "/".join(str(len(c)) for c in clouds),
        args.output,
    )
    print(config_path)
    return 0


def cmd_register(args) -> int:
    source = load_cloud(args.source)
    target = load_cloud(args.target)
    result = icp_align(
        source, target, params=_params_from_args(IcpParams, args), threads=args.threads
    )
    aligned = apply_transform(source, result.transform)
    if args.output:
        save_cloud(args.output, aligned)
    payload = result.to_dict()
    if args.distances:
        report = point_to_plane_distances(aligned, target, threads=args.threads)
        payload["distances"] = report.to_dict()
    _emit(payload, args.report)
    return 0


def cmd_refine_poses(args) -> int:
    scenario = load_scenario(args.scenario)
    options = AdjustmentOptions(fixed_handling=args.fixed_handling)
    result = refine_progressive(
        scenario.fixed_epochs,
        scenario.new_epoch,
        scenario.points,
        scenario.observations,
        options=options,
    )
    payload = {
        "converged": result.converged,
        "rms_px": result.rms,
        "iterations": len(result.iteration_log),
        "rejected_observations": list(result.rejected_observations),
        "new_epoch": _epoch_to_dict(result.new_cameras, False),
        "points": _points_to_list(result.points),
    }
    _emit(payload, args.output)
    return 0


def _detect_pair(args):
    """The two clouds of `--reference` and `--other` and the changes between
    them, detected with the command line's detection flags."""
    reference = load_cloud(args.reference)
    other = load_cloud(args.other)
    changes = hierarchical_detect(reference, other, params=_params_from_args(ChangeParams, args))
    return changes, reference, other


def cmd_detect(args) -> int:
    changes, reference, other = _detect_pair(args)
    record = interval_record(changes, reference, other, args.grid_size)
    os.makedirs(args.output, exist_ok=True)
    write_interval(changes, reference, other, args.output)
    write_json(os.path.join(args.output, "detect_report.json"), record)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_volume(args) -> int:
    changes, reference, other = _detect_pair(args)
    _emit(interval_record(changes, reference, other, args.grid_size), args.output)
    return 0


def cmd_timeline(args) -> int:
    report = timeline_report(args.timestamps, args.volumes)
    _emit(report.to_dict(), args.output)
    return 0


def cmd_eval(args) -> int:
    predicted = load_cloud(args.predicted)
    truth = load_cloud(args.truth)
    if predicted.labels is None:
        raise ValueError(f"{args.predicted} carries no change_label property")
    if truth.labels is None:
        raise ValueError(f"{args.truth} carries no change_label property")
    if len(predicted) != len(truth):
        raise ValueError(
            f"clouds differ in size: {len(predicted)} predicted vs {len(truth)} truth"
        )
    counts = confusion_counts(predicted.labels, truth.labels)
    metrics = change_metrics(counts)
    _emit({"counts": counts.to_dict(), "metrics": metrics.to_dict()}, args.output)
    return 0


def cmd_run(args) -> int:
    config = parse_config(args.config)
    overrides = {}
    if args.output is not None:
        overrides["output_dir"] = args.output
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        config = dataclasses.replace(config, **overrides)
    manifest = run_pipeline(config)
    print(os.path.join(config.output_dir, "report.json"))
    return 0 if manifest["status"] == "ok" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudchange",
        description="Octree-based volumetric change detection for multi-temporal point clouds.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic demolition series or pose scenario")
    p.add_argument("--output", required=True, help="directory for generated files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--width", type=float, default=20.0)
    p.add_argument("--length", type=float, default=20.0)
    p.add_argument("--height", type=float, default=10.0)
    p.add_argument("--story-height", type=float, default=3.0)
    p.add_argument("--density", type=float, default=400.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--grid-size", type=float, default=DEFAULT_CELL_SIZE)
    p.add_argument(
        "--pose-scenario",
        action="store_true",
        help="write a camera-network scenario instead of a cloud series",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("register", help="align one cloud onto another with ICP")
    p.add_argument("--source", required=True, help="moving cloud")
    p.add_argument("--target", required=True, help="fixed cloud")
    p.add_argument("--output", help="write the aligned source here")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.add_argument("--threads", type=int, help="kd-tree worker count, >= 1 (default 1)")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--convergence-threshold", type=float)
    p.add_argument("--rejection-distance", type=float)
    p.add_argument("--trim-fraction", type=float)
    p.add_argument(
        "--distances",
        action="store_true",
        help="include point-to-plane distance statistics",
    )
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("refine-poses", help="progressive bundle adjustment on a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--output", help="write the JSON result here instead of stdout")
    p.add_argument(
        "--fixed-handling",
        choices=("exclude", "prior_weight"),
        default="exclude",
        help="hold reference-epoch parameters out of the solve, or pin them with a strong prior",
    )
    p.set_defaults(func=cmd_refine_poses)

    p = sub.add_parser("detect", help="change detection between two epochs")
    p.add_argument("--reference", required=True, help="earlier epoch cloud")
    p.add_argument("--other", required=True, help="later epoch cloud")
    p.add_argument("--output", required=True, help="directory for labeled outputs")
    p.add_argument("--grid-size", type=float, default=DEFAULT_CELL_SIZE, help=_GRID_HELP)
    _add_detection_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("volume", help="changed volume between two epochs")
    p.add_argument("--reference", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--output", help="write the interval record here instead of stdout")
    p.add_argument("--grid-size", type=float, default=DEFAULT_CELL_SIZE, help=_GRID_HELP)
    _add_detection_flags(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("timeline", help="aggregate interval volumes into a timeline")
    p.add_argument(
        "--timestamps", type=float, nargs="+", required=True, help="epoch times in days"
    )
    p.add_argument(
        "--volumes", type=float, nargs="+", required=True, help="one volume per interval"
    )
    p.add_argument("--output")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("eval", help="score predicted change labels against ground truth")
    p.add_argument("--predicted", required=True, help="cloud with predicted change_label")
    p.add_argument("--truth", required=True, help="cloud with ground-truth change_label")
    p.add_argument("--output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output", help="override the config's output directory")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--threads", type=int, help="override the config's worker count")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except StageError as exc:
        logger.error("pipeline stage failed: %s", exc)
        return 1
    except (ValueError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
