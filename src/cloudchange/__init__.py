"""Volumetric change detection for multi-temporal point clouds.

Coarse-to-fine octree comparison of epoch pairs: register, detect changed
voxels by density differences, filter connected components, and integrate
removed volume over a ground grid.
"""

__version__ = "0.1.0"

from .geometry import (
    BoundingCube,
    ChangeLabel,
    PointCloud,
    RigidTransform,
    apply_transform,
    bounding_cube,
)
from .cloud_io import CloudFormatError, load_cloud, save_cloud
from .octree import Octree
from .detection import (
    ChangeParams,
    ChangeSet,
    DetectionStats,
    Lattice,
    component_filter,
    hierarchical_detect,
)
from .registration import (
    DistanceReport,
    IcpParams,
    IcpResult,
    icp_align,
    point_to_plane_distances,
)
from .cameras import (
    EpochCameras,
    ExteriorOrientation,
    ImageObservation,
    ObjectPoint,
    SelfCalibration,
    project_points,
    projection_jacobians,
)
from .adjustment import (
    AdjustmentOptions,
    AdjustmentResult,
    Scenario,
    load_scenario,
    refine_progressive,
    save_scenario,
)
from .evaluation import (
    ChangeMetrics,
    ConfusionCounts,
    DistanceStats,
    change_metrics,
    confusion_counts,
    distance_stats,
)
from .volumetrics import (
    GroundGrid,
    VolumeReport,
    build_ground_grid,
    change_volume,
    timeline_report,
)
from .synth import (
    BuildingSpec,
    ColumnGrid,
    DemolitionScript,
    PoseScenario,
    PoseScenarioConfig,
    RemovalBox,
    RubbleSpec,
    add_noise,
    apply_demolition,
    generate_building,
    generate_demolition_series,
    generate_pose_scenario,
)
from .config import EpochInput, PipelineConfig, parse_config, serialize_config
from .pipeline import StageError, run_pipeline

__all__ = [
    "AdjustmentOptions",
    "AdjustmentResult",
    "BoundingCube",
    "BuildingSpec",
    "ChangeLabel",
    "ChangeMetrics",
    "ChangeParams",
    "ChangeSet",
    "CloudFormatError",
    "ColumnGrid",
    "ConfusionCounts",
    "DemolitionScript",
    "DetectionStats",
    "DistanceReport",
    "DistanceStats",
    "EpochCameras",
    "EpochInput",
    "ExteriorOrientation",
    "GroundGrid",
    "IcpParams",
    "IcpResult",
    "ImageObservation",
    "Lattice",
    "ObjectPoint",
    "Octree",
    "PipelineConfig",
    "PointCloud",
    "PoseScenario",
    "PoseScenarioConfig",
    "RemovalBox",
    "RigidTransform",
    "RubbleSpec",
    "Scenario",
    "SelfCalibration",
    "StageError",
    "VolumeReport",
    "add_noise",
    "apply_demolition",
    "apply_transform",
    "bounding_cube",
    "build_ground_grid",
    "change_metrics",
    "change_volume",
    "component_filter",
    "confusion_counts",
    "distance_stats",
    "generate_building",
    "generate_demolition_series",
    "generate_pose_scenario",
    "hierarchical_detect",
    "icp_align",
    "load_cloud",
    "load_scenario",
    "parse_config",
    "point_to_plane_distances",
    "project_points",
    "projection_jacobians",
    "refine_progressive",
    "run_pipeline",
    "save_cloud",
    "save_scenario",
    "serialize_config",
    "timeline_report",
    "__version__",
]
