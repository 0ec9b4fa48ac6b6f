// pti_perfbench — runs one benchmark workload and prints its metrics.
//
//   pti_perfbench --workload <cold_mix|warm_session|storm> --seed <n>
//                 --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace is 0 and the per-layer metrics
// when it is 1. The line before it stamps the host context; lines starting
// with '#' are the human-readable report. Exit code 1 when any outcome
// check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "workloads.hpp"

namespace {

using pti::perfbench::Metric;

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out.push_back(ch);
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string load_average() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "[]";
  return "[" + json_number(load[0]) + ", " + json_number(load[1]) + ", " +
         json_number(load[2]) + "]";
}

bool optimised_build() {
  const std::string_view type = PTI_BENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "pti_perfbench: %s\nusage: pti_perfbench --workload <cold_mix|warm_session|"
               "storm> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pti::perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        usage("unknown flag");
      }
    } catch (const std::logic_error&) {
      usage("malformed number");
    }
  }
  bool known = false;
  for (const std::string& name : pti::perfbench::workload_names()) {
    known = known || name == options.workload;
  }
  if (!known) usage("unknown or missing --workload");
  if (!(options.seconds > 0 && options.seconds <= 600)) usage("--seconds out of range");

  const std::string load_start = load_average();
  pti::perfbench::Outcome outcome;
  try {
    outcome = pti::perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pti_perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  const bool correct = outcome.failed == 0 && outcome.checks_passed;

  const std::string context =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"load_avg_start\": " + load_start + ", \"load_avg_end\": " + load_average() +
      ", \"compiler\": " + json_string(PTI_BENCH_COMPILER) +
      ", \"build_type\": " + json_string(PTI_BENCH_BUILD_TYPE) +
      ", \"optimised\": " + (optimised_build() ? "true" : "false") +
      ", \"workload\": " + json_string(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + json_number(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") + "}";
  if (!optimised_build()) std::printf("# WARNING: unoptimised build, timings are not comparable\n");
  for (const std::string& note : outcome.notes) std::printf("# %s\n", note.c_str());

  const auto& shown = options.trace ? outcome.per_layer : outcome.end_to_end;
  std::printf("{\"context\": %s}\n", context.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), json_metrics(shown).c_str());
  return correct ? 0 : 1;
}
