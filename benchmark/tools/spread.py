#!/usr/bin/env python3
"""Run the benchmark the way the driver does and report how steady it is.

From the repository root:

    python3 benchmark/tools/spread.py [--runs 10] [--workload NAME ...] [--trace 0|1]

For each workload the command in BENCHMARK.json is run `--runs` times, each
with another `--seed`, and for every end-to-end metric the distance between
the first and third quartile of the values (statistics.quantiles, n=4) is
printed as a share of their median, beside the metric's bound. A spread
above a third of the bound is marked `>1/3`, above the bound `MISSES`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    table = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    failed = False
    for workload in workloads:
        values = {m["name"]: [] for m in table}
        walls = []
        for i in range(args.runs):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]),
                "--trace", args.trace,
            ]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - start)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {args.first_seed + i}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload}: incorrect result {result}")
            for m in table:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"== {workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s each")
        for m in table:
            v = values[m["name"]]
            med = statistics.median(v)
            if len(v) >= 2 and med:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None and m["name"] != "setup_s":
                if spread > bound:
                    verdict, failed = "MISSES", True
                elif spread > bound / 3:
                    verdict = ">1/3"
            shown = " ".join(f"{x:.4g}" for x in v)
            bound_txt = f"bound {bound:.0%}" if bound is not None else ""
            print(f"  {m['name']:<28} median {med:>12.5g} {m['unit']:<7} spread {spread:6.1%} {bound_txt:<10} {verdict:<6} [{shown}]")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
