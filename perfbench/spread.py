#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]

Runs perfbench/run.py on seeds 1-10 for each workload, for BENCHMARK.json's
run_seconds, and prints, per end-to-end metric, the median over the runs and
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to the
metric's bound.  Exits 1 when a spread exceeds a third of its bound, or a
run fails or fails its check.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload:
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            steady = steady and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            ok = share <= bounds[name] / 3
            steady = steady and ok
            print(f"{workload:15s} {name:18s} median {med:.6g}  spread "
                  f"{share:.4f}  bound {bounds[name]}  "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
