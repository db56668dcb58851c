"""Package-level guards."""
import json

import cloudchange


def test_every_export_resolves():
    # A removed name left in __all__ breaks `from cloudchange import *`.
    missing = [name for name in cloudchange.__all__ if not hasattr(cloudchange, name)]
    assert missing == []
    assert len(set(cloudchange.__all__)) == len(cloudchange.__all__)


def test_traced_layer_boundaries_resolve():
    # The benchmark's tracer wraps these module globals by name; a rename
    # would otherwise surface only in a traced benchmark run.
    from cloudchange import detection, pipeline, registration

    traced = {
        detection: ("component_filter", "kdtree", "morton_codes"),
        pipeline: (
            "load_cloud",
            "save_cloud",
            "write_json",
            "icp_align",
            "hierarchical_detect",
            "build_ground_grid",
        ),
        registration: ("kdtree",),
    }
    missing = [
        f"{module.__name__}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_benchmark_pose_uses_resolve(tmp_path):
    # The benchmark's pose workload packs an estimate with no observations
    # as `observations=[]` and the solved `result.points`, counts
    # `len(scenario.observations)` and hands `scenario.points` and
    # `scenario.observations` of a loaded file to `refine_progressive`.
    from cloudchange import (
        PoseScenarioConfig,
        Scenario,
        generate_pose_scenario,
        load_scenario,
        refine_progressive,
        save_scenario,
    )

    config = PoseScenarioConfig(n_fixed_cameras=3, n_new_cameras=3, n_points=20, seed=1)
    path = tmp_path / "scenario.json"
    save_scenario(generate_pose_scenario(config).to_scenario(), path)
    scenario = load_scenario(path)
    assert len(scenario.observations) == 6 * 20
    result = refine_progressive(
        scenario.fixed_epochs, scenario.new_epoch, scenario.points, scenario.observations
    )
    estimate = Scenario(
        fixed_epochs=result.fixed_cameras,
        new_epoch=result.new_cameras,
        points=result.points,
        observations=[],
        truth={"rejected_observations": result.rejected_observations, "rms_px": result.rms},
    )
    assert len(estimate.observations) == 0
    assert estimate.points is result.points
    save_scenario(estimate, tmp_path / "estimate.json")
    saved = json.loads((tmp_path / "estimate.json").read_text())
    assert saved["observations"] == []
    assert [p["track"] for p in saved["points"]] == list(range(20))
    assert [p["position"] for p in saved["points"]] == result.points["position"].tolist()
    loaded = load_scenario(tmp_path / "estimate.json")
    assert loaded.points.tobytes() == result.points.tobytes()
    assert len(loaded.observations) == 0
