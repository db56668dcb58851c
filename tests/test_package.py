"""Package-level guards."""
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
