#!/usr/bin/env python3
"""Bench-regression gate: a fresh (smoke-scale) bench run must agree with
the committed BENCH_*.json trajectory.

Two kinds of checks, both robust to smoke-scale iteration counts:

* Deterministic counters (wire bytes, message counts, fanout targets,
  accept/reject totals) are fixed by the seeds and the protocol — they do
  not depend on the machine or on --benchmark_min_time. A fresh run must
  reproduce the committed value within a small tolerance band; drifting
  outside it means the protocol's cost model changed without the
  trajectory being regenerated.

* Ratio invariants (the cached conformance check beats the uncached one,
  the inverted index beats the per-peer scan at 10^5 subscribers, the
  batched session row stays under the cold protocol's storm bytes) are
  the perf claims ROADMAP.md leans on, stated as wide-margin ratios so
  scheduler noise cannot flip them.

Usage:
    tools/check_bench_regression.py <fresh_dir> [--baseline <dir>]
                                    [--tolerance 0.10]

<fresh_dir> holds the just-produced BENCH_<name>.json files (run_benches.sh
--smoke writes them); --baseline defaults to the repo root (the committed
trajectory). Exits nonzero on the first report after printing one
"bench_regression: PASS/FAIL" line per check.
"""

import argparse
import json
import os
import sys

# (file, benchmark name, counter) triples whose values are deterministic
# functions of the fixed seeds — the committed trajectory pins them. The
# envelope rows pin the size of the hybrid message per encoding (Person as
# soap/binary/xml, a width-32 object as soap).
DETERMINISTIC = [
    ("BENCH_transport.json", "BM_Protocol/0/100", "wire_bytes"),
    ("BENCH_transport.json", "BM_Protocol/0/100", "messages"),
    ("BENCH_transport.json", "BM_Protocol/1/100", "wire_bytes"),
    ("BENCH_transport.json", "BM_ProtocolRejection/0", "wire_bytes"),
    ("BENCH_transport.json", "BM_ProtocolRejection/1", "wire_bytes"),
    ("BENCH_scale.json", "BM_IndexFanout/10000", "targets"),
    ("BENCH_scale.json", "BM_IndexFanout/100000", "targets"),
    ("BENCH_scale.json", "BM_ScenarioPublishStorm/1000/0", "accepts"),
    ("BENCH_scale.json", "BM_ScenarioPublishStorm/1000/2", "accepts"),
    ("BENCH_scale.json", "BM_ScenarioPublishStorm/16000/0", "net_bytes"),
    ("BENCH_scale.json", "BM_ScenarioPublishStorm/16000/3", "net_bytes"),
    ("BENCH_envelope.json", "BM_EnvelopeBuild/0", "message_bytes"),
    ("BENCH_envelope.json", "BM_EnvelopeBuild/1", "message_bytes"),
    ("BENCH_envelope.json", "BM_EnvelopeBuild/2", "message_bytes"),
    ("BENCH_envelope.json", "BM_EnvelopeBuild/3", "message_bytes"),
    ("BENCH_conformance.json", "BM_ImplicitCheckCached", "cache_hit_rate"),
    ("BENCH_conformance.json", "BM_ImplicitCheckCached", "allocs_per_iter"),
]

# (file, numerator bench, denominator bench, metric, max ratio): the fresh
# run's numerator/denominator must stay BELOW the bound. Bounds leave wide
# margin over the committed trajectory so smoke-scale noise cannot trip
# them, while a real inversion (cache slower than cold, scan beating the
# index, batching costing bytes) still fails loudly.
RATIO_BELOW = [
    # The cached conformance check is ~two orders faster than the uncached
    # walk; even heavily perturbed it must stay well under half.
    ("BENCH_conformance.json", "BM_ImplicitCheckCached", "BM_ImplicitCheckUncached",
     "real_time", 0.5),
    # Index fanout vs the O(population) per-peer scan at 10^5 subscribers.
    ("BENCH_scale.json", "BM_IndexFanout/100000", "BM_PerPeerScanFanout/100000",
     "real_time", 0.5),
    # The batched-session cold-heavy storm moves no more bytes than the
    # cold protocol (deterministic counters — the bound is exact).
    ("BENCH_scale.json", "BM_ScenarioPublishStorm/16000/3",
     "BM_ScenarioPublishStorm/16000/0", "net_bytes", 1.0),
]

failures = []


def report(ok, message):
    print(f"bench_regression: {'PASS' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def load(directory, filename):
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def metric(row, key):
    value = row.get(key)
    return float(value) if isinstance(value, (int, float)) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh_dir", help="directory of freshly produced BENCH_*.json")
    parser.add_argument("--baseline", default=".",
                        help="committed trajectory directory (default: repo root)")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("BENCH_REGRESSION_TOLERANCE", 0.10)),
                        help="relative band for deterministic counters (default 0.10)")
    args = parser.parse_args()

    caches = {}

    def rows(directory, filename):
        key = (directory, filename)
        if key not in caches:
            caches[key] = load(directory, filename)
        return caches[key]

    for filename, bench, counter in DETERMINISTIC:
        fresh = rows(args.fresh_dir, filename)
        base = rows(args.baseline, filename)
        if fresh is None:
            report(False, f"{filename} missing from fresh run")
            continue
        if base is None or bench not in base:
            # A row not yet in the committed trajectory (new bench): nothing
            # to regress against until the trajectory is regenerated.
            print(f"bench_regression: SKIP {filename}:{bench}:{counter} (no baseline row)")
            continue
        if bench not in fresh:
            report(False, f"{filename}:{bench} missing from fresh run")
            continue
        fresh_value = metric(fresh[bench], counter)
        base_value = metric(base[bench], counter)
        if fresh_value is None or base_value is None:
            report(False, f"{filename}:{bench}:{counter} not recorded")
            continue
        band = args.tolerance * max(abs(base_value), 1.0)
        ok = abs(fresh_value - base_value) <= band
        report(ok, f"{filename}:{bench}:{counter} fresh={fresh_value:g} "
                   f"baseline={base_value:g} (band ±{band:g})")

    for filename, numerator, denominator, key, bound in RATIO_BELOW:
        fresh = rows(args.fresh_dir, filename)
        if fresh is None:
            report(False, f"{filename} missing from fresh run")
            continue
        if numerator not in fresh or denominator not in fresh:
            report(False, f"{filename}: {numerator} / {denominator} missing from fresh run")
            continue
        num = metric(fresh[numerator], key)
        den = metric(fresh[denominator], key)
        if not num or not den:
            report(False, f"{filename}:{numerator}:{key} not recorded")
            continue
        ratio = num / den
        report(ratio <= bound,
               f"{filename}: {numerator}/{denominator} {key} ratio "
               f"{ratio:.3f} <= {bound:g}")

    if failures:
        print(f"bench_regression: {len(failures)} check(s) FAILED")
        return 1
    print("bench_regression: ALL GREEN")
    return 0


if __name__ == "__main__":
    sys.exit(main())
