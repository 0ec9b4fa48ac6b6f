#!/usr/bin/env bash
# The full gate in one command — the same stages CI runs, fail-fast, with
# one PASS/FAIL summary line per stage and a distinct exit code per stage
# so automation can tell *what* broke without parsing logs. Usage:
#
#   tools/run_checks.sh            # everything (what CI runs)
#   FAST=1 tools/run_checks.sh     # tsan ctest restricted to the concurrency-
#                                  # sensitive suites (transport/concurrency/
#                                  # fuzz/socket) — the ones instrumentation
#                                  # is for
#   ASAN=1 tools/run_checks.sh     # also build + run the asan preset
#   SOAK=1 tools/run_checks.sh     # also run the adversarial soak gate
#                                  # (tools/run_soak.sh — minutes, not
#                                  # seconds; see SOAK_SECONDS there)
#
# Parallelism: CMAKE_BUILD_PARALLEL_LEVEL and CTEST_PARALLEL_LEVEL are
# honored when set (otherwise the presets' defaults apply).
#
# Exit codes (fail-fast: the first failing stage's code is returned):
#   10 debug configure/build   20 debug ctest
#   30 tsan  configure/build   40 tsan  ctest
#   42 tsan repeats (50x) of the endpoint-contract, detach and
#      backpressure tests — the locking EndpointRegistry owns (also
#      under FAST=1)
#   35 ubsan configure/build   45 ubsan ctest   (halts on the first report)
#   50 asan  configure/build   60 asan  ctest    (ASAN=1 only)
#   70 clang-format gate       80 adversarial soak gate (SOAK=1 only)
#   90 megasim scale smoke (10^4-peer deterministic scenario, Release,
#      wall-clock ceiling SCALE_SMOKE_SECONDS, default 300)
#   95 session equivalence gate (Release: the differential session suite +
#      the session fuzz/megasim equivalence sweeps, batched paths included,
#      every socket equivalence sweep and the frame codec suite)
#   97 bench regression gate (smoke-scale bench run; deterministic
#      counters compared against the committed BENCH_*.json trajectory)
#   98 benchmark correctness smoke (every perfbench workload for 2 s:
#      outcome checks only, timings not gated)
set -uo pipefail

cd "$(dirname "$0")/.."

BUILD_JOBS=()
if [[ -n "${CMAKE_BUILD_PARALLEL_LEVEL:-}" ]]; then
  BUILD_JOBS=(-j "$CMAKE_BUILD_PARALLEL_LEVEL")
fi
CTEST_JOBS=()
if [[ -n "${CTEST_PARALLEL_LEVEL:-}" ]]; then
  CTEST_JOBS=(-j "$CTEST_PARALLEL_LEVEL")
fi

# stage <exit-code> <name> <command...>: runs the command, prints exactly
# one "run_checks: PASS/FAIL <name>" line, exits with <exit-code> on
# failure (fail-fast).
stage() {
  local code=$1 name=$2
  shift 2
  echo "== ${name} =="
  if "$@"; then
    echo "run_checks: PASS ${name}"
  else
    echo "run_checks: FAIL ${name} (exit code ${code})"
    exit "${code}"
  fi
}

build_preset() {
  local preset=$1
  cmake --preset "${preset}" > /dev/null && \
    cmake --build --preset "${preset}" "${BUILD_JOBS[@]}"
}

TSAN_FILTER=()
if [[ "${FAST:-0}" == "1" ]]; then
  TSAN_FILTER=(-R 'test_concurrency|test_transport|test_protocol_fuzz|test_socket_transport|test_frame_codec|test_governance|test_soak|test_session')
fi

stage 10 "configure + build: debug preset" build_preset debug
stage 20 "ctest: debug preset" ctest --preset debug "${CTEST_JOBS[@]}"
stage 30 "configure + build: tsan preset" build_preset tsan
stage 40 "ctest: tsan preset" ctest --preset tsan "${CTEST_JOBS[@]}" "${TSAN_FILTER[@]}"

# The test list lives in tools/tsan_repeats.sh, which CI's tsan leg runs too.
stage 42 "tsan repeats: endpoint and send_async contracts, detach, backpressure, runs (50x)" tools/tsan_repeats.sh
stage 35 "configure + build: ubsan preset" build_preset ubsan
stage 45 "ctest: ubsan preset" ctest --preset ubsan "${CTEST_JOBS[@]}"
if [[ "${ASAN:-0}" == "1" ]]; then
  stage 50 "configure + build: asan preset" build_preset asan
  stage 60 "ctest: asan preset" ctest --preset asan "${CTEST_JOBS[@]}"
fi
stage 70 "clang-format gate" tools/check_format.sh
if [[ "${SOAK:-0}" == "1" ]]; then
  stage 80 "adversarial soak gate" tools/run_soak.sh
fi

# The megasim scale gate: a fixed-seed 10^4-peer scenario, run twice in
# Release, must produce byte-identical digests inside the wall-clock
# ceiling. The nightly soak sweeps the same test at 10^5 (tsan) and 10^6
# (release); this stage keeps the per-push cost honest. PTI_SIM_PEERS
# overrides the population, SCALE_SMOKE_SECONDS the ceiling.
scale_smoke() {
  cmake --preset release > /dev/null && \
    cmake --build --preset release "${BUILD_JOBS[@]}" --target test_sim && \
    PTI_SIM_PEERS="${PTI_SIM_PEERS:-10000}" PTI_SIM_RUNS=2 \
      timeout "${SCALE_SMOKE_SECONDS:-300}" \
      build-bench/test_sim --gtest_filter='SimScale.*'
}
stage 90 "megasim scale smoke (10^4 peers, deterministic)" scale_smoke

# The session equivalence gate (Release): the session layer must produce
# the same verdict/delivery stream as the cold protocol. The targets and
# filters live in tools/session_equivalence.sh, which CI's
# session-equivalence job runs too.
stage 95 "session equivalence gate (Release differential suite)" tools/session_equivalence.sh

# The bench-regression gate: every bench binary runs end to end at smoke
# iteration counts and tools/check_bench_regression.py compares the
# deterministic counters against the committed BENCH_*.json trajectory
# (and re-asserts the headline ratio claims). Same command CI's
# bench-smoke job runs.
stage 97 "bench regression gate (smoke counters vs trajectory)" tools/run_benches.sh --smoke

# The repository benchmark's outcome checks: each workload runs for 2 s
# and exits 1 when a push fails its check (a wrong verdict or getter
# value, or a storm cycle whose accept digest differs from the
# sessions-off run). Timings are printed, not gated.
bench_correctness() {
  local workload
  for workload in cold_mix warm_session storm; do
    python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 2 --trace 0 || return 1
  done
}
stage 98 "benchmark correctness smoke (perfbench outcome checks)" bench_correctness

echo "run_checks: ALL GREEN"
