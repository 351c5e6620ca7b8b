#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload W [--workload W ...] --seeds 1-10

Runs perfbench/run.py once per seed (untraced) and prints, per metric, the
median of the runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in args.workload:
        values = {}
        for s in seeds(args.seeds):
            t0 = time.monotonic()
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", w, "--seed", str(s),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {s}: correct={result['correct']} failed={result['failed']}")
            line = []
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                line.append(f"{name}={m['value']:.4g}")
            print(f"{w} seed {s} ({time.monotonic() - t0:.0f} s): " + " ".join(line), flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med
            print(f"{w:13s} {name:13s} median={med:10.4g} iqr/median={share:.4f}"
                  f" bound={bounds[name]} ({share / bounds[name]:.2f} of bound)", flush=True)


if __name__ == "__main__":
    main()
