#!/usr/bin/env python3
"""SSTSP simulator benchmark: one workload, one seed, one timed run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_rep (the simulator library from src/ plus perfbench_rep.cpp
from this directory) under .bench_build/, then runs repetitions ("reps") of
the workload on seed N for about S seconds, each rep in a fresh process.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it pairs
untraced and traced reps and prints the per-layer split.  Every rep's
simulated outcome is checked, and all reps of a run must agree on it; the
last line of stdout is one JSON object:

    {"correct": ..., "attempted": reps, "failed": reps, "metrics": {...}}

BENCHMARK.json names the metrics and their units; perfbench/README.md says
what each workload and metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"

# Constructions per rep of each workload; setup_s is the fastest of all the
# run's constructions.  The legacy networks build in well under a
# millisecond, so they repeat more.
SETUPS = {
    "paper-fig4": 151,
    "spatial-100k": 3,
    "cluster-faults": 501,
}

# Worker threads of spatial-100k's untimed determinism rep; its timed reps
# run on one.
CHECK_THREADS = max(2, min(4, os.cpu_count() or 2))

# The timed reps of round k run pinned to CPUS[k % len(CPUS)], so a run
# samples every core (see fastest()).
CPUS = sorted(os.sched_getaffinity(0))

# Simulated results shown beside the check verdict (null where the workload
# does not define them).
QUALITY = ["sync_latency_s", "attack_max_us", "steady_max_us",
           "cluster_spread_us", "recovery_s", "audit_records"]

REP_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def metric_units(kind):
    """{name: unit} of BENCHMARK.json's "end_to_end" or "per_layer" list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def build():
    """Configures and builds perfbench_rep; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("simulator sources (src/) are missing")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return BUILD_DIR / "perfbench_rep"


def run_rep(binary, workload, seed, trace=False, observers=True,
            horizon=None, threads=None, setups=None, cpu=None):
    """Runs one rep in its own process, on `cpu` if given; returns its JSON
    record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--setups", str(setups or SETUPS[workload]),
           "--observers", "1" if observers else "0",
           "--out-dir", str(OUT_DIR)]
    if trace:
        cmd.append("--trace")
    if horizon is not None:
        cmd += ["--horizon", str(horizon)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S, preexec_fn=pin)
    if proc.returncode != 0:
        raise BenchError(f"{workload} rep exited {proc.returncode}: "
                         + proc.stderr.strip())
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep_plan(workload, trace):
    """The reps of one round: (label, trace, observers)."""
    if not trace:
        return [("plain", False, True)]
    plan = [("plain", False, True), ("traced", True, True)]
    if workload == "cluster-faults":
        plan.append(("bare", False, False))  # observers off, for obs.self_s
    return plan


def measure(binary, workload, seed, seconds, trace, horizon=None):
    """Runs rounds of reps, all on `seed`, as long as the next round is
    expected to end within `seconds` (at least one round); returns
    {label: [records]}."""
    plan = rep_plan(workload, trace)
    reps = {label: [] for label, _, _ in plan}
    start = time.monotonic()
    rounds = 0
    while True:
        cpu = CPUS[rounds % len(CPUS)]
        for label, traced, observers in plan:
            reps[label].append(run_rep(binary, workload, seed, traced,
                                       observers, horizon, cpu=cpu))
        rounds += 1
        if (time.monotonic() - start) * (rounds + 1) / rounds > seconds:
            break
    if workload == "spatial-100k":
        # Untimed: the sharded kernel's output must not depend on how many
        # worker threads run its shards.
        reps["threads"] = [run_rep(binary, workload, seed, horizon=horizon,
                                   threads=CHECK_THREADS, setups=1)]
    return reps


def judge(reps):
    """Per-rep verdicts: its own check, and the same simulated digest as
    every other rep of the run (whatever the tracing, observers or
    threads)."""
    records = [r for label in reps for r in reps[label]]
    reference = records[0]["digest"]
    verdicts = []
    for r in records:
        why = r["check_why"]
        if r["digest"] != reference:
            why = (why + "; " if why else "") + "simulated digest differs"
        verdicts.append((r["check_ok"] and r["digest"] == reference, why))
    return verdicts


def median(records, key):
    return statistics.median(r[key] for r in records)


def fastest(records, key):
    """Sum over the run's slices of the fastest rep's time in each slice.

    Reps of one seed execute the same events slice by slice, so they differ
    in a slice only by what the host did meanwhile.  On a shared host a
    core's speed can flip between a fast state and one ~1.5x slower, for
    seconds to minutes (measured on a 4-core x86 VM, in roughly even
    shares), while some other core is fast: the median rep lands in either
    state, the fastest per slice, with the reps spread over the cores,
    rarely in the slow one."""
    return sum(min(times) for times in zip(*(r[key] for r in records)))


def end_to_end(reps, verdicts):
    plain = reps["plain"]
    return {
        "sim_node_s_per_s": plain[0]["node_s"] / fastest(plain,
                                                         "slice_wall_s"),
        "setup_s": min(r["setup_s"] for r in plain),
        "cpu_s": fastest(plain, "slice_cpu_s"),
        "peak_rss_mb": median(plain, "peak_rss_mb"),
        "check_pass_share": sum(1 for ok, _ in verdicts if ok) / len(verdicts),
    }


def per_layer(reps):
    traced = reps["traced"]
    values = {key: median(traced, key) for key in traced[0]
              if "." in key}
    plain_run = median(reps["plain"], "run_s")
    values["trace.overhead_share"] = median(traced, "run_s") / plain_run - 1.0
    values["obs.self_s"] = (plain_run - median(reps["bare"], "run_s")
                            if "bare" in reps else 0.0)
    return values


def report(workload, seed, reps, verdicts, values, units):
    """Human-readable lines (every metric with its unit, the check verdict
    and the simulated results), then the result object as the last line."""
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"{workload}: metrics missing: "
                         + ", ".join(sorted(missing)))
    failed = sum(1 for ok, _ in verdicts if not ok)
    first = reps["plain"][0]
    for key, unit in units.items():
        print(f"{workload}  {key:34s} {values[key]:.6g} {unit}")
    quality = " ".join(f"{k}={first[k]}" for k in QUALITY)
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"{workload}  check {verdict}: {len(verdicts) - failed}/"
          f"{len(verdicts)} reps passed, seed {seed}, "
          f"digest {first['digest']}, {quality}")
    for ok, why in verdicts:
        if not ok:
            print(f"{workload}  check failure: {why}")
    result = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def bench(workload, seed, seconds, trace, horizon=None):
    units = metric_units("per_layer" if trace else "end_to_end")
    binary = build()
    reps = measure(binary, workload, seed, seconds, trace, horizon)
    verdicts = judge(reps)
    values = per_layer(reps) if trace else end_to_end(reps, verdicts)
    return report(workload, seed, reps, verdicts, values, units)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        bench(args.workload, args.seed, args.seconds, args.trace == 1)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
