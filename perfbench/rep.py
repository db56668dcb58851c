"""One repetition of a workload's measured call, in its own process.

Usage: python3 perfbench/rep.py WORKLOAD REPETITION TRACED RESULT_JSON

Runs in the run directory that holds `inputs/`, so that peak RSS belongs to
this one repetition. Writes a JSON record to RESULT_JSON: the measured
numbers, or the reason the repetition failed.
"""
from __future__ import annotations

import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

from cloudchange.neighbors import query_workers  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    workload, repetition, traced, result_path = argv
    tracer = tracing.Tracer(int(repetition)) if traced == "1" else tracing.NullTracer()
    record = {"ok": False, "traced": traced == "1", "kdtree_workers": query_workers()}
    try:
        if traced == "1":
            tracer.install()
        record.update(workloads.measure(workload, tracer))
        record["ok"] = True
    except workloads.CheckFailed as exc:
        record["error"] = f"check failed: {exc}"
    except Exception:
        # A library error is a failed repetition, not a crashed benchmark.
        record["error"] = traceback.format_exc()
    finally:
        if traced == "1":
            tracer.uninstall()
    if record["ok"] and traced == "1":
        layers, bases = tracer.layer_metrics()
        record["layers"].update(layers)
        record["bases"].update(bases)
        record["spans"] = tracer.spans
    with open(result_path, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
