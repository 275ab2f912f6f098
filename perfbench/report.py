"""Run every workload untraced and traced and print every metric.

    python3 perfbench/report.py [--seed N] [--seconds S] [--json OUT]

For each workload the table gives each metric's name, value, unit and
direction ("lower" or "higher" is better), the bound of end-to-end metrics,
and the environment line of the run: Python, numpy and scipy versions, BLAS
thread count and nproc. ``--json`` also writes all of it to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--json", default=None, help="also write the results here")
    args = ap.parse_args(argv)

    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    collected = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            summary = os.path.join(HERE, "out", f"{workload}-s{args.seed}-t{trace}",
                                   "summary.json")
            with open(summary, encoding="utf-8") as fh:
                detail = json.load(fh)
            result["environment"] = detail["environment"]
            result["info"] = detail["info"]
            collected[f"{workload} trace={trace}"] = result
            print(f"== {workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            print("   " + ", ".join(f"{k}={v}" for k, v in result["environment"].items()))
            for name, m in result["metrics"].items():
                bound = meta[name].get("bound")
                print(f"   {name:55s} {m['value']:16.6f} {m['unit']:6s} "
                      f"{meta[name]['better']:6s} {'' if bound is None else f'bound {bound}'}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "runs": collected},
                      fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
