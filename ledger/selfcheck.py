#!/usr/bin/env python3
"""Attribution self-check: an injected 2x slowdown of one layer shows up.

The benchmark's `--inject arith.counts` makes `paper_eval` count every
program twice (the second count must equal the first). This script runs
the benchmark with and without it and shows that

  1. the layer's own metric doubles: arith.counts.calls and
     arith.counts.busy_ms on the traced paper_eval run,
  2. the end-to-end metric of the workload using that layer moves beyond
     its bound: wall_s on paper_eval,
  3. the bypass workload stays within its bounds: every end-to-end metric
     of sweep_cold, which counts no circuits.

Run from the repository root; it exits 1 if any of the three fails.

    python3 ledger/selfcheck.py [--bin path/to/qre-ledger] [--seconds 8] [--pairs 3]

Each comparison takes the median ratio over alternating plain and injected
runs, so a change of machine speed between two runs does not decide it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def metrics(command, workload, seconds, trace, inject):
    args = command + ["--workload", workload, "--seed", "1",
                      "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        args += ["--inject", "arith.counts"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: checks failed\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", help="benchmark executable to run directly")
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--pairs", type=int, default=3,
                        help="plain/injected run pairs per comparison")
    opts = parser.parse_args()
    command = [opts.bin] if opts.bin else spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True

    def ratios(workload, trace):
        """Median injected/plain ratio per metric over alternating pairs,
        so a drift in machine speed between runs does not decide it."""
        pairs = [(metrics(command, workload, opts.seconds, trace, False),
                  metrics(command, workload, opts.seconds, trace, True))
                 for _ in range(opts.pairs)]
        return {name: statistics.median(slow[name] / base[name] for base, slow in pairs)
                for name in pairs[0][0] if pairs[0][0][name]}

    r = ratios("paper_eval", 1)
    for name in ["arith.counts.calls", "arith.counts.busy_ms"]:
        good = 1.8 <= r[name] <= 2.2
        ok &= good
        print(f"layer    paper_eval {name:28} x{r[name]:.3f}  {'ok' if good else 'FAIL'} (expect ~2)")

    r = ratios("paper_eval", 0)
    good = r["wall_s"] > 1 + bounds["wall_s"]
    ok &= good
    print(f"user     paper_eval {'wall_s':28} x{r['wall_s']:.3f}  {'ok' if good else 'FAIL'} "
          f"(expect beyond bound {bounds['wall_s']})")

    r = ratios("sweep_cold", 0)
    for name, bound in bounds.items():
        good = abs(r[name] - 1) <= bound
        ok &= good
        print(f"bypass   sweep_cold {name:28} x{r[name]:.3f}  {'ok' if good else 'FAIL'} "
              f"(expect within {bound})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
