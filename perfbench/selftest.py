#!/usr/bin/env python3
"""Self-test of the benchmark on short-horizon versions of every workload.

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and run.py name the same workloads, that every
metric prints with its unit in both the untraced and the traced mode, that
every rep's correctness check passes, and that spatial-100k's simulated
digest is equal at 1 and N worker threads.  Exits 0 when all hold.
"""

import contextlib
import io
import json
import sys

import run

# Simulated seconds per workload: long enough to reach each check (sync,
# the gateway crash and re-attach), short enough to finish in seconds.
HORIZONS = {
    "paper-fig4": 30.0,
    "spatial-100k": 0.3,
    "cluster-faults": 150.0,
}


def main():
    failures = []

    def expect(cond, what):
        print(("PASS " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(run.SETUPS),
           "BENCHMARK.json names run.py's workloads")

    for workload, horizon in HORIZONS.items():
        for trace in (False, True):
            mode = "traced" if trace else "untraced"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.bench(workload, seed=1, seconds=0, trace=trace,
                          horizon=horizon)
            lines = out.getvalue().strip().splitlines()
            result = json.loads(lines[-1])
            units = run.metric_units("per_layer" if trace else "end_to_end")
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   f"{workload} {mode}: result has exactly the contract keys")
            expect(all(result["metrics"].get(name, {}).get("unit") == unit
                       and isinstance(result["metrics"][name]["value"],
                                      (int, float))
                       for name, unit in units.items())
                   and len(result["metrics"]) == len(units),
                   f"{workload} {mode}: every metric prints with its unit")
            expect(all(any(line.split()[1:2] == [name]
                           and line.endswith(" " + unit) for line in lines)
                       for name, unit in units.items()),
                   f"{workload} {mode}: every metric has a readable line")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} {mode}: the correctness checks pass")
            if workload == "spatial-100k" and not trace:
                # One timed rep at 1 thread plus the determinism rep at N;
                # `correct` requires their digests to be equal.
                expect(result["correct"] and result["attempted"] == 2,
                       f"spatial-100k digest equal at 1 and "
                       f"{run.CHECK_THREADS} threads")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
