#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command in BENCHMARK.json once per seed on each named workload and
prints, per metric, the median of the runs and the distance between their
first and third quartiles as a share of that median (the spread the
benchmark's bounds are checked against), next to the metric's bound.

    python3 perfbench/spread.py --workload serve-sweep --runs 5
    python3 perfbench/spread.py --workload all --runs 10 --first-seed 100

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    worst_ok = True
    for workload in workloads:
        runs = [
            run_once(bench, workload, args.first_seed + i, args.trace)
            for i in range(args.runs)
        ]
        print(f"{workload}: {args.runs} runs")
        for m in metrics:
            values = [r[m["name"]] for r in runs if r.get(m["name"]) is not None]
            if len(values) < 2:
                print(f"  {m['name']:32s} too few values: {values}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                ok = spread <= bound / 3
                worst_ok &= spread <= bound
                flag = "ok" if ok else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print(
                f"  {m['name']:32s} median {med:12.5g} {m['unit']:6s} spread {spread:7.4f}"
                + (f"  bound {bound:5.3f} {flag}" if bound is not None else "")
                + f"  [{' '.join(f'{v:.4g}' for v in values)}]"
            )
    sys.exit(0 if worst_ok else 1)


if __name__ == "__main__":
    main()
