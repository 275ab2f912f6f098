"""Benchmark of the nashinduce CLI: verdict correctness, latency, per-layer spans.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the run times every scheduled CLI call untraced and
reports the end-to-end metrics; with ``--trace 1`` it makes the calls of one
round twice, untraced and traced, and reports the per-layer metrics. The
last line of standard output is one JSON object; the lines before it are a
readable table with the environment.

Exit codes: 0 on a completed run (whatever the program's verdicts), 2 when the
package sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: one BLAS thread, at or below nproc on any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path.endswith(".so"):
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def failure_causes(outcomes) -> dict:
    """Calls with a wrong exit or verdict, counted by command, game family,
    state dimension and answer."""
    causes = {}
    for o in outcomes:
        if not (o.exit_ok and o.verdict_ok):
            family, _, rest = o.call.game.name.partition("-")
            size = rest.split("-")[0] if family != "bundled" else rest
            key = f"{o.call.command} {family} {size}: {o.note}"
            causes[key] = causes.get(key, 0) + 1
    return dict(sorted(causes.items()))


def timed_run(workloads, cli, name, seed, seconds, workdir, import_s) -> dict:
    speed = workloads.Speed()
    setup_times, scaled, calls, missing = [], [], [], []
    for r in range(workloads.ROUNDS):
        t0 = time.perf_counter()
        round_calls, round_missing = workloads.WORKLOADS[name](r, workdir)
        setup_times.append(time.perf_counter() - t0)
        scaled.append(speed.scale() * setup_times[-1])
        calls += round_calls
        missing += round_missing
    setup_s = scaled[0] / setup_times[0] * import_s + statistics.median(scaled)
    outcomes = workloads.measure(cli, workloads.schedule(calls, seed), seconds, workdir, speed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(workdir, "calls.jsonl"), "w", encoding="utf-8") as fh:
        for o in outcomes:
            fh.write(json.dumps({"command": o.call.command,
                                 "problem": os.path.basename(o.call.problem),
                                 "exit": o.code, "expected_exit": o.call.game.expect[
                                     o.call.command]["exit"], "ms": o.ms, "scale": o.scale,
                                 "verdict_ok": o.verdict_ok, "wrong": o.wrong,
                                 "timed_out": o.timed_out, "note": o.note}) + "\n")
    return {
        "metrics": workloads.end_to_end_metrics(outcomes, setup_s, peak_mb),
        "attempted": len(outcomes),
        "failed": sum(o.crashed or o.timed_out for o in outcomes),
        "correct": not any(o.wrong or o.crashed for o in outcomes),
        "info": {"calls": workloads.call_counts(outcomes), "missing_cells": missing,
                 "speed_scale_min_median_max": speed.summary(),
                 "import_s": import_s, "round_setup_s": setup_times,
                 "timed_out": sum(o.timed_out for o in outcomes),
                 "wrong_exit": sum(not o.exit_ok for o in outcomes),
                 "wrong_answers": [f"{o.call.command}:{o.call.game.name}"
                                   for o in outcomes if o.wrong],
                 "not_ok": failure_causes(outcomes)},
    }


def traced_run(workloads, tracing, cli, name, seed, seconds, workdir) -> dict:
    speed = workloads.Speed()
    tracer = tracing.Tracer()
    tracer.begin_trace("setup:r0")
    tracer.install()
    try:
        calls, missing = workloads.WORKLOADS[name](0, workdir)
    finally:
        tracer.uninstall()
    scales = {0: speed.scale()}
    order = workloads.schedule(calls, seed)
    passes = workloads.measure_traced(cli, order, seconds, workdir, tracer, speed)
    scales.update(passes["trace_scale"])
    metrics = tracing.per_layer_metrics(tracer, scales)
    metrics["tracing.overhead_ratio"] = (
        passes["traced_ms"] / max(passes["untraced_ms"], 1e-9), "ratio")
    spans_path = os.path.join(workdir, "spans.npz")
    tracer.save(spans_path)
    return {
        "metrics": metrics,
        "attempted": len(passes["trace_scale"]),
        "failed": len(order) - len(passes["trace_scale"]),
        "correct": not passes["wrong"],
        "info": {"speed_scale_min_median_max": speed.summary(),
                 "spans": len(tracer.start), "span_file": os.path.relpath(spans_path, ROOT),
                 "traced_calls": len(passes["trace_scale"]), "missing_cells": missing},
    }


def print_table(name: str, result: dict, env: dict) -> None:
    print(f"workload {name}: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric:55s} {value:16.6f} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ladder", "time-domain"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nashinduce", "cli.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    import nashinduce.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported nashinduce from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if args.trace:
        result = traced_run(workloads, tracing, cli, args.workload, args.seed,
                            args.seconds, workdir)
    else:
        result = timed_run(workloads, cli, args.workload, args.seed, args.seconds,
                           workdir, import_s)
    env = environment()
    print_table(args.workload, result, env)
    with open(os.path.join(workdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, **result}, fh, indent=1)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
