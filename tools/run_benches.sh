#!/usr/bin/env bash
# Builds the benchmark binaries in Release and records their results as
# BENCH_<name>.json at the repo root — the bench trajectory consumed by
# ROADMAP.md's performance notes. Usage:
#
#   tools/run_benches.sh                # conformance + typedesc + concurrent + api + envelope
#                                       # + transport + scale
#   tools/run_benches.sh all            # every bench binary
#   tools/run_benches.sh --smoke        # CI mode: every binary, tiny iteration
#                                       # counts, JSON validated, nothing at the
#                                       # repo root overwritten
#   BENCH_MIN_TIME=0.5 tools/run_benches.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
MIN_TIME=${BENCH_MIN_TIME:-0.2}
SMOKE=0

# The single source of truth for "every bench binary" — both `all` and
# `--smoke` use it, so a new bench cannot be added to one and silently
# escape the other.
ALL_BENCHES=(conformance typedesc concurrent api envelope invocation object_serial transport ablation scale)

if [[ "${1:-}" == "--smoke" ]]; then
  # Smoke mode exists so bench code cannot bit-rot: every binary must run
  # end to end and emit parseable JSON, at iteration counts small enough
  # for a CI job. Results are scratch — they never touch BENCH_*.json.
  SMOKE=1
  MIN_TIME=0.01
  BENCHES=("${ALL_BENCHES[@]}")
elif [[ "${1:-}" == "all" ]]; then
  BENCHES=("${ALL_BENCHES[@]}")
else
  BENCHES=(conformance typedesc concurrent api envelope transport scale)
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
targets=()
for b in "${BENCHES[@]}"; do targets+=("bench_$b"); done
cmake --build "$BUILD_DIR" -j --target "${targets[@]}"

OUT_DIR=.
if [[ "$SMOKE" == "1" ]]; then
  # SMOKE_OUT_DIR lets CI keep the smoke JSONs (artifact upload); without
  # it they land in a scratch dir that vanishes on exit.
  if [[ -n "${SMOKE_OUT_DIR:-}" ]]; then
    OUT_DIR=$SMOKE_OUT_DIR
    mkdir -p "$OUT_DIR"
  else
    OUT_DIR=$(mktemp -d)
    trap 'rm -rf "$OUT_DIR"' EXIT
  fi
fi

# Validates that a bench emitted well-formed JSON with a nonempty
# "benchmarks" array. Prefers python3; falls back to a structural grep so
# minimal images still get a (weaker) check.
check_json() {
  local file=$1
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$file" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
benches = doc.get("benchmarks")
if not isinstance(benches, list) or not benches:
    sys.exit(f"{sys.argv[1]}: no benchmarks recorded")
EOF
  else
    grep -q '"benchmarks"' "$file" && grep -q '"name"' "$file"
  fi
}

# Console table for the human; the JSON trajectory file is written by the
# library itself (the "# paper: ..." banners only go to stdout, so the JSON
# stays clean).
for b in "${BENCHES[@]}"; do
  echo "== bench_$b =="
  "$BUILD_DIR/bench_$b" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$OUT_DIR/BENCH_$b.json" \
    --benchmark_out_format=json
  if [[ "$SMOKE" == "1" ]]; then
    if check_json "$OUT_DIR/BENCH_$b.json"; then
      echo "run_benches: PASS bench_$b (valid JSON)"
    else
      echo "run_benches: FAIL bench_$b (invalid or empty JSON)"
      exit 1
    fi
  fi
done

if [[ "$SMOKE" == "1" ]]; then
  # Regression gate: the smoke run's deterministic counters (wire bytes,
  # message counts, fanout targets) must match the committed BENCH_*.json
  # trajectory, and the headline ratio claims must still hold.
  if command -v python3 > /dev/null 2>&1; then
    python3 tools/check_bench_regression.py "$OUT_DIR" --baseline .
  else
    echo "run_benches: SKIP bench-regression gate (python3 unavailable)"
  fi
  echo "run_benches: SMOKE GREEN (${#BENCHES[@]} binaries)"
else
  echo "Wrote: $(ls BENCH_*.json | tr '\n' ' ')"
fi
