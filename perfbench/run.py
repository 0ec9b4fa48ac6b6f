#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <cold_mix|warm_session|storm>
                             --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the library sources plus
the pti_perfbench program, Release) into .bench_build/perfbench; later runs
only rebuild what changed. The program's last stdout line is the JSON
result; its metric names are checked against BENCHMARK.json before it is
passed on.

Counts that must repeat exactly for a seed (bytes_per_push on storm, the
per-kind exchanges_per_push and session.entries_per_batch) are kept in a
ledger under .bench_build; a later run of the same seed that disagrees
prints a '# flag:' line.

Exits non-zero, without printing a result, when the library sources or
the toolchain are missing, the build fails or the program fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pti_perfbench")
REPORT_DIR = os.path.join(ROOT, ".bench_build", "reports")
LEDGER = os.path.join(ROOT, ".bench_build", "perfbench-ledger.json")
RUN_TIMEOUT_S = 170

KINDS = ("push", "typeinfo", "code", "session", "batch")
REPEATING = {
    False: {"storm": ["bytes_per_push"]},
    True: {
        "cold_mix": [f"transport.{k}.exchanges_per_push" for k in KINDS],
        "warm_session": ["session.entries_per_batch"] +
                        [f"transport.{k}.exchanges_per_push" for k in KINDS],
    },
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "interop.hpp")):
        fail("library sources not found under src/; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except OSError as e:
            fail(f"cannot run {step[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def ledger_flags(workload, seed, trace, metrics):
    names = REPEATING[trace].get(workload, [])
    if not names:
        return []
    try:
        with open(LEDGER, encoding="utf-8") as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    flags = []
    for name in names:
        key = f"{workload}:{seed}:{name}"
        value = metrics[name]["value"]
        old = ledger.get(key)
        if old is not None and not math.isclose(old, value, rel_tol=1e-9, abs_tol=1e-12):
            flags.append(f"# flag: {name} for seed {seed} was {old!r}, now {value!r}")
        ledger[key] = value
    with open(LEDGER, "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(REPORT_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", REPORT_DIR]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit code {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{args.workload} did not end with a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    if list(result["metrics"]) != expected_names(bool(args.trace)):
        fail("metric names differ from BENCHMARK.json")
    flags = ledger_flags(args.workload, args.seed, bool(args.trace), result["metrics"])
    for line in lines[:-1] + flags + lines[-1:]:
        print(line)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
