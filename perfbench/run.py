"""cloudchange benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {demolition,resurvey,pose} \\
        --seed N --seconds S --trace {0,1}

The seed makes the scene; the library only receives the generated input
files. Set-up (synthesis plus writing the inputs) runs several times and its
median is `setup_s`. The measured call then runs in a fresh process per
repetition until S seconds have passed, so each repetition has its own peak
RSS. Every repetition's outputs are checked; one that raises, fails a check
or writes artifacts differing from the first repetition's (the determinism
digest) counts as failed.

`precision` and `recall` score each interval's changed points against the
synthetic truth, and the worst interval counts; on `pose` they score the
rejected observations against the injected outliers. Volume error,
reprojection RMS and camera-centre error exist on one kind of workload only,
so they are per-layer metrics, and failed repetitions are reported as the
result's `failed` out of `attempted`.

With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json, medians over repetitions. With --trace 1 repetitions
alternate between traced and untraced, and the last line holds the
per-layer metrics, medians over traced repetitions, with the traced/untraced
run_s difference as `trace.overhead_pct`. The full record (environment,
workload rationale, per-repetition numbers, digests and, when traced, every
span) is written under .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
# Never used while tuning the benchmark or a change; rerun a claim on it.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 7
# One run must end within 180 s; stop starting repetitions well before.
RUN_LIMIT_S = 150.0
# Single-threaded BLAS keeps repetitions comparable on a shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_repetitions(workload: str, seconds: float, trace: int, env: dict, started: float):
    """Fresh-process repetitions until `seconds` have passed (and, when
    tracing, at least one traced and one untraced)."""
    reps = []
    measure_start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - measure_start
        kinds = {rep["traced"] for rep in reps}
        enough = elapsed >= seconds and (not trace or kinds == {True, False})
        if reps and (enough or time.perf_counter() - started + longest > RUN_LIMIT_S):
            break
        index = len(reps)
        traced = bool(trace) and index % 2 == 0
        shutil.rmtree("out", ignore_errors=True)
        result_path = f"rep_{index}.json"
        rep_start = time.perf_counter()
        try:
            subprocess.run(
                [sys.executable, os.path.join(HERE, "rep.py"), workload, str(index),
                 "1" if traced else "0", result_path],
                env=env,
                stdout=sys.stderr,
                timeout=max(RUN_LIMIT_S + 20.0 - (rep_start - started), 1.0),
                check=False,
            )
            with open(result_path) as handle:
                rep = json.load(handle)
        except subprocess.TimeoutExpired:
            rep = {"ok": False, "traced": traced, "error": "repetition timed out"}
        except (OSError, ValueError) as exc:
            rep = {"ok": False, "traced": traced, "error": f"no result: {exc}"}
        longest = max(longest, time.perf_counter() - rep_start)
        reps.append(rep)
        if not rep["ok"] and rep.get("error") == "repetition timed out":
            break
    reference = next((rep["digest"] for rep in reps if rep["ok"]), None)
    for rep in reps:
        if rep["ok"] and rep["digest"] != reference:
            rep["ok"] = False
            rep["error"] = f"artifact digest {rep['digest']} differs from {reference}"
    return reps


def _flat_spans(reps) -> list:
    """Every traced repetition's spans in one list, parents re-indexed."""
    spans = []
    for rep in reps:
        offset = len(spans)
        spans += [
            dict(span, parent=None if span["parent"] is None else span["parent"] + offset)
            for span in rep["spans"]
        ]
    return spans


def _print_trace(spans: list, n_reps: int, run_s: float) -> None:
    """Total and self time per span name and per layer, per repetition."""
    import tracing

    total, own = tracing.span_times(spans)
    calls = {name: sum(1 for span in spans if span["name"] == name) for name in total}
    root = max(total.values())
    print(f"# traced repetitions: {n_reps}; shares are of the root span, "
          f"{root / n_reps:.4f} s per repetition (untraced run_s {run_s:.4f} s)")
    print(f"# {'span':34s} {'calls':>6s} {'total_s':>10s} {'self_s':>10s} {'self share':>10s}")
    for name in sorted(total, key=lambda k: -own[k]):
        print(f"# {name:34s} {calls[name] / n_reps:6.1f} {total[name] / n_reps:10.4f} "
              f"{own[name] / n_reps:10.4f} {own[name] / root:10.1%}")
    layers = {}
    for name in total:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own[name]
    print("# self time per layer: " + ", ".join(
        f"{layer} {seconds / n_reps:.4f} s ({seconds / root:.1%})"
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    args = _parse(argv, sorted(why))
    if not os.path.isfile(os.path.join(ROOT, "src", "cloudchange", "__init__.py")):
        print(f"error: no cloudchange sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    run_dir = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.chdir(run_dir)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workloads.INPUT_DIR, ignore_errors=True)
        begin = time.perf_counter()
        workloads.setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - begin)

    reps = _run_repetitions(args.workload, args.seconds, args.trace, dict(os.environ), started)
    good = [rep for rep in reps if rep["ok"]]
    failed = len(reps) - len(good)
    for index, rep in enumerate(reps):
        if not rep["ok"]:
            print(f"repetition {index} failed: {rep['error']}", file=sys.stderr)

    environment = _environment()
    environment["kdtree_workers"] = next(
        (rep["kdtree_workers"] for rep in reps if "kdtree_workers" in rep), None
    )
    untraced = [rep for rep in good if not rep["traced"]]
    traced = [rep for rep in good if rep["traced"]]
    run_s = _median([rep["run_s"] for rep in untraced])
    if args.trace:
        wanted = spec["per_layer"]
        if not traced or not untraced:
            print("error: no successful traced and untraced repetition pair", file=sys.stderr)
            return 1
        values = {name: _median([rep["layers"][name] for rep in traced]) for name in traced[0]["layers"]}
        traced_run_s = _median([rep["run_s"] for rep in traced])
        values["trace.overhead_pct"] = 100.0 * (traced_run_s / run_s - 1.0)
        bases = {
            name: [num, _median([rep["bases"][name][1] for rep in traced]),
                   den, _median([rep["bases"][name][3] for rep in traced])]
            for name, (num, _, den, _) in traced[0]["bases"].items()
        }
        bases["trace.overhead_pct"] = ["traced run_s", traced_run_s, "untraced run_s", run_s]
    else:
        wanted = spec["end_to_end"]
        if not untraced:
            print("error: every repetition failed", file=sys.stderr)
            return 1
        values = {
            "run_s": run_s,
            "setup_s": _median(setup_times),
            "peak_rss_mib": _median([rep["peak_rss_mib"] for rep in untraced]),
            "precision": _median([rep["precision"] for rep in untraced]),
            "recall": _median([rep["recall"] for rep in untraced]),
        }
        bases = {}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics the benchmark does not produce: {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    digests = sorted({rep["digest"] for rep in reps if "digest" in rep})
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "setup_s": setup_times,
        "digest": digests[0] if len(digests) == 1 else digests,
        "metrics": metrics,
        "bases": bases,
        "repetitions": [{k: v for k, v in rep.items() if k != "spans"} for rep in reps],
    }
    with open("result.json", "w") as handle:
        json.dump(record, handle, indent=1)
    spans = _flat_spans(traced)
    if spans:
        with open("spans.json", "w") as handle:
            json.dump(spans, handle)
    for name in (workloads.INPUT_DIR, workloads.OUT_DIR):
        shutil.rmtree(name, ignore_errors=True)
    for index in range(len(reps)):
        if os.path.exists(f"rep_{index}.json"):
            os.remove(f"rep_{index}.json")

    print(f"# workload {args.workload}, seed {args.seed} (held-out seed {HELD_OUT_SEED}): "
          f"{why[args.workload]}")
    print("# environment: " + ", ".join(f"{k} {v}" for k, v in environment.items()))
    print(f"# repetitions: {len(reps)} attempted, {failed} failed, "
          f"{len(untraced)} untraced and {len(traced)} traced ok; digest {record['digest']}")
    print(f"# run_s per untraced repetition: {[round(rep['run_s'], 4) for rep in untraced]}")
    if args.trace:
        _print_trace(spans, len(traced), run_s)
    for name, entry in metrics.items():
        base = f"  ({bases[name][1]:g} {bases[name][0]} / {bases[name][3]:g} {bases[name][2]})" if name in bases else ""
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}{base}")
    print(f"# full record: {os.path.relpath(os.path.join(run_dir, 'result.json'), ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
