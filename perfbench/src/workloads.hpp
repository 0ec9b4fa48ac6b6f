// The benchmark's three workloads and the metrics each run reports.
//
//   cold_mix      the paper's optimistic protocol with SOAP payloads and no
//                 sessions: 1 sync push in 4 carries a type the receiver
//                 has never seen, the rest (and periodic windows of 16
//                 unbatched send_async pushes) resend recent types.
//   warm_session  sessions with binary payloads and 16-entry batching
//                 windows, every type introduced during set-up: each client
//                 alternates one sync push with one batched window.
//   storm         sim::Scenario with 16000 peers running the standard
//                 script (storms, churn, a partition wave, settle) with
//                 batched sessions; repeated whole scenarios.
//
// The socket workloads run one closed-loop client thread driving a
// sender -> receiver pair over a loopback SocketTransport.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pti::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span dump of a traced run ("" writes none).
  std::string out_dir;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable report lines (reconciliation, overhead, checks).
  std::vector<std::string> notes;
  /// False when a check other than a push outcome failed (the trace
  /// reconciliation).
  bool checks_passed = true;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Outcome run_workload(const Options& options);

}  // namespace pti::perfbench
