#!/usr/bin/env python3
"""Run the ledger benchmark on several seeds and report each metric's spread.

For every workload and metric this prints the median of the runs and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. Run from the repository root:

    python3 ledger/spread.py --workloads sweep_cold pipe_warm --seeds 5
    python3 ledger/spread.py --seeds 10 --trace 1

By default each run goes through BENCHMARK.json's command; --bin runs an
already-built benchmark executable instead.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed\n{out.stdout}")
    return result["metrics"]


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--bin", help="benchmark executable to run directly")
    opts = parser.parse_args()

    command = [opts.bin] if opts.bin else spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in opts.workloads:
        runs = [
            run_once(command, workload, seed, opts.seconds, opts.trace)
            for seed in range(opts.first_seed, opts.first_seed + opts.seeds)
        ]
        print(f"== {workload} ({len(runs)} runs)")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OK" if spread < bound / 3 else "  WIDE"
            unit = runs[0][name]["unit"]
            bound_text = f" bound {bound}" if bound is not None else ""
            print(f"  {name:34} median {median:14.6g} {unit:8} spread {spread:7.4f}{bound_text}{flag}")
    if opts.trace == 0:
        print(f"widest spread / bound: {worst:.3f} (target below 0.333)")


if __name__ == "__main__":
    main()
