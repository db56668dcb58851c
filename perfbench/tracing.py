"""Spans around the library's layer boundaries, recorded from outside.

A traced repetition replaces the public functions that `pipeline`,
`detection` and `registration` reach through their module globals with
wrappers that record a span `{name, start, end, parent, repetition}` and the
work counts the call reveals. No library file changes: the wrappers are
installed in the repetition's own process and removed when it ends.
"""
from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from collections import defaultdict

from cloudchange import detection, pipeline, registration

# Span name -> per-layer time metric that sums its durations.
TIME_METRICS = {
    "cloud_io.load_cloud": "cloud_io.load_s",
    "cloud_io.save_cloud": "cloud_io.save_s",
    "pipeline.write_json": "pipeline.write_json_s",
    "registration.icp_align": "registration.icp_s",
    "neighbors.kdtree": "neighbors.kdtree_build_s",
    "detection.hierarchical_detect": "detection.detect_s",
    "detection.component_filter": "detection.component_filter_s",
    "volumetrics.build_ground_grid": "volumetrics.ground_grid_s",
}

# Parent span -> suffix of the Morton-code metrics called under it: index
# build inside detection, ChangeSet.contains re-encoding inside the grid.
MORTON_PARENTS = {
    "detection.hierarchical_detect": "detect",
    "volumetrics.build_ground_grid": "ground_grid",
}


# Work counts recorded at the same boundaries; zero where a layer did not run.
COUNT_METRICS = (
    "cloud_io.save_bytes",
    "pipeline.write_json_bytes",
    "registration.icp_iterations",
    "octree.morton_codes_s.detect",
    "octree.morton_codes_s.ground_grid",
    "octree.morton_codes_points.detect",
    "octree.morton_codes_points.ground_grid",
    "detection.changed_voxels",
    "detection.raw_changed_points",
    "detection.changed_points",
    "detection.component_filter_points",
    "volumetrics.grid_cells",
    "volumetrics.fallback_cells",
)


class NullTracer:
    """Tracing off: spans cost nothing and record nothing."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Spans and counts of one repetition, kept in memory."""

    def __init__(self, repetition: int) -> None:
        self.repetition = repetition
        self.spans: list = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0.0)
        self.radii: list = []
        self._stack: list = []
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "repetition": self.repetition,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def parent_name(self, record: dict):
        parent = record["parent"]
        return None if parent is None else self.spans[parent]["name"]

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace `module.attr` with a spanned call; `count(tracer, record,
        args, result)` runs after the span closes, so it is not timed."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if count is not None:
                count(self, record, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self) -> None:
        self.wrap(pipeline, "load_cloud", "cloud_io.load_cloud")
        self.wrap(pipeline, "save_cloud", "cloud_io.save_cloud", _count_bytes("cloud_io.save_bytes"))
        self.wrap(pipeline, "write_json", "pipeline.write_json", _count_bytes("pipeline.write_json_bytes"))
        self.wrap(pipeline, "icp_align", "registration.icp_align", _count_icp)
        self.wrap(pipeline, "hierarchical_detect", "detection.hierarchical_detect", _count_detect)
        self.wrap(pipeline, "build_ground_grid", "volumetrics.build_ground_grid", _count_grid)
        self.wrap(detection, "morton_codes", "octree.morton_codes", _count_morton)
        self.wrap(detection, "component_filter", "detection.component_filter", _count_filter)
        self.wrap(detection, "kdtree", "neighbors.kdtree")
        self.wrap(registration, "kdtree", "neighbors.kdtree")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> tuple:
        """(per-layer metrics, ratio bases) of this repetition."""
        total, own = span_times(self.spans)
        metrics = {metric: total.get(name, 0.0) for name, metric in TIME_METRICS.items()}
        metrics.update(self.counts)
        metrics["detection.self_s"] = own.get("detection.hierarchical_detect", 0.0)
        metrics["pipeline.self_s"] = own.get("pipeline.run_pipeline", 0.0)
        metrics["detection.component_radius_m"] = statistics.median(self.radii) if self.radii else 0.0
        bases = {}

        def ratio(metric, num_name, num, den_name, den):
            metrics[metric] = num / den if den else 0.0
            bases[metric] = [num_name, num, den_name, den]

        ratio("registration.icp_s_per_iter", "registration.icp_s", metrics["registration.icp_s"],
              "registration.icp_iterations", metrics["registration.icp_iterations"])
        ratio("detection.filter_keep_ratio", "detection.changed_points", metrics["detection.changed_points"],
              "detection.raw_changed_points", metrics["detection.raw_changed_points"])
        ratio("volumetrics.fallback_ratio", "fallback cells", metrics.pop("volumetrics.fallback_cells"),
              "volumetrics.grid_cells", metrics["volumetrics.grid_cells"])
        return metrics, bases


def span_times(spans: list) -> tuple:
    """(total, self) seconds per span name. Self time is a span's duration
    minus the durations of its direct children."""
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    total = defaultdict(float)
    own = defaultdict(float)
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        total[span["name"]] += duration
        own[span["name"]] += duration - children[index]
    return total, own


def _count_bytes(metric: str):
    def count(tracer, record, args, result):
        tracer.counts[metric] += os.path.getsize(args[0])

    return count


def _count_icp(tracer, record, args, result):
    tracer.counts["registration.icp_iterations"] += result.iterations


def _count_detect(tracer, record, args, result):
    tracer.counts["detection.changed_voxels"] += result.n_voxels
    tracer.counts["detection.raw_changed_points"] += len(result.raw_changed_reference) + len(
        result.raw_changed_other
    )
    tracer.counts["detection.changed_points"] += len(result.changed_reference) + len(
        result.changed_other
    )


def _count_grid(tracer, record, args, result):
    tracer.counts["volumetrics.grid_cells"] += result.n_cells
    tracer.counts["volumetrics.fallback_cells"] += int(result.fallback.sum())


def _count_morton(tracer, record, args, result):
    suffix = MORTON_PARENTS[tracer.parent_name(record)]
    tracer.counts[f"octree.morton_codes_s.{suffix}"] += record["end"] - record["start"]
    tracer.counts[f"octree.morton_codes_points.{suffix}"] += len(args[0])


def _count_filter(tracer, record, args, result):
    tracer.counts["detection.component_filter_points"] += len(args[0])
    tracer.radii.append(float(args[1]))
