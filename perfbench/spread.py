#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload batch_highreuse --seeds 1-10 [--trace 0]

For every metric it prints the median over the runs, the interquartile range
as a share of the median (statistics.quantiles(values, n=4)), and the bound
from BENCHMARK.json. A run that fails or reports correct=false is listed and
stops the script with exit code 1, and so does a run whose metric names
differ from the BENCHMARK.json list for its --trace mode.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    want = {m["name"] for m in bench["end_to_end" if args.trace == "0" else "per_layer"]}

    values = {}
    for seed in seeds_of(args.seeds):
        t0 = time.time()
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        if p.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
            sys.exit(1)
        res = json.loads(last)
        print(f"seed {seed}: {time.time() - t0:.1f}s correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        if not res["correct"]:
            print(p.stdout, file=sys.stderr)
            sys.exit(1)
        if set(res["metrics"]) != want:
            print(f"seed {seed}: metrics differ from BENCHMARK.json: missing "
                  f"{sorted(want - set(res['metrics']))}, extra {sorted(set(res['metrics']) - want)}",
                  file=sys.stderr)
            sys.exit(1)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':30} {'median':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(name)
        flag = "" if b is None or spread <= b / 3 else "  <-- above bound/3"
        print(f"{name:30} {med:12.6g} {spread:8.3f} {b if b is not None else '':>6}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()
