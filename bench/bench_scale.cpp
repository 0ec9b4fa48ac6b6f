// E-scale — population-scale matching and the megasim (ISSUE 8).
//
// The paper ran two hosts; the claim that matters at population scale is
// architectural: interest matching must not degrade linearly in the number
// of PEERS when only a handful of TYPES are relevant to a publish. These
// benches quantify that:
//
//   * IndexFanout vs PerPeerScanFanout — one publish's target discovery
//     through the shared transport::InterestIndex (scan DISTINCT interests,
//     walk matching posting lists) against the pre-index baseline (visit
//     every subscriber's own interest list). Same subscriber population,
//     same accept set, identical output; the index must win from ~10^4
//     subscribers up, and the gap must widen at 10^5.
//   * IndexSubscribeChurn — steady-state cost of one join/leave cycle
//     (subscriber slot, two COW interest registrations, posting-list
//     append/tombstone, epoch retire) on an already-populated index.
//   * ScenarioPublishStorm — whole-megasim cost per delivered push
//     (population bring-up included), optimistic vs eager, with the wire
//     bytes each mode moved as counters — the paper's savings claim read
//     at 10^3..10^4 peers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/scenario.hpp"
#include "transport/interest_index.hpp"
#include "util/epoch.hpp"
#include "util/interning.hpp"
#include "util/rng.hpp"

namespace {

using pti::sim::ScenarioConfig;
using pti::sim::ScenarioResult;
using pti::sim::ScenarioScript;
using pti::transport::InterestIndex;
using pti::transport::SubscriberId;
using pti::util::InternedName;

constexpr std::size_t kFamilies = 64;
constexpr std::size_t kGroups = 16;
constexpr std::size_t kInterestsPerSub = 2;

const std::vector<InternedName>& family_names() {
  static const std::vector<InternedName> names = [] {
    std::vector<InternedName> out;
    out.reserve(kFamilies);
    for (std::size_t i = 0; i < kFamilies; ++i) {
      out.push_back(pti::util::SymbolTable::global().intern("scalebench.F" +
                                                            std::to_string(i)));
    }
    return out;
  }();
  return names;
}

/// Family index of an interned family name, by its id's raw value (the
/// group probe both fan-out paths share).
std::uint32_t family_of(InternedName interest) {
  static const std::vector<std::uint32_t> by_id = [] {
    std::vector<std::uint32_t> out;
    for (std::uint32_t f = 0; f < kFamilies; ++f) {
      const std::uint32_t id = family_names()[f].value();
      if (id >= out.size()) out.resize(id + 1, 0);
      out[id] = f;
    }
    return out;
  }();
  return by_id[interest.value()];
}

/// Draws the same interest assignment the scan baseline uses, so both
/// benches discover identical target sets.
std::vector<std::vector<std::uint32_t>> subscriber_families(std::size_t subs) {
  pti::util::Rng rng(99);
  std::vector<std::vector<std::uint32_t>> families(subs);
  for (std::size_t s = 0; s < subs; ++s) {
    for (std::size_t k = 0; k < kInterestsPerSub; ++k) {
      const auto family = static_cast<std::uint32_t>(rng.next_below(kFamilies));
      auto& mine = families[s];
      if (std::find(mine.begin(), mine.end(), family) == mine.end()) {
        mine.push_back(family);
      }
    }
  }
  return families;
}

/// Mean targets over one cycle of all kGroups publish groups, computed
/// outside the timed loop so the counter does not depend on how many
/// iterations the benchmark library chose.
template <typename Fanout>
double mean_targets(const Fanout& fanout) {
  std::size_t total = 0;
  for (std::uint64_t group = 0; group < kGroups; ++group) total += fanout(group);
  return static_cast<double>(total) / static_cast<double>(kGroups);
}

void BM_IndexFanout(benchmark::State& state) {
  pti::bench::paper_reference(
      "E-scale/index", "target discovery per publish; distinct-interest scan + "
                       "posting walk, independent of population size");
  const auto subs = static_cast<std::size_t>(state.range(0));
  const auto assignment = subscriber_families(subs);
  InterestIndex index;
  for (std::size_t s = 0; s < subs; ++s) {
    const SubscriberId sub = index.add_subscriber();
    for (const std::uint32_t family : assignment[s]) {
      index.add_interest(sub, family_names()[family]);
    }
  }

  std::vector<SubscriberId> out;
  InterestIndex::FanoutScratch scratch;
  const auto fanout = [&](std::uint64_t group) {
    index.collect_matches(
        [group](InternedName interest) { return family_of(interest) % kGroups == group; },
        out, scratch);
    return out.size();
  };
  std::uint64_t published = 0;
  for (auto _ : state) {
    fanout(published++ % kGroups);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["subs"] = static_cast<double>(subs);
  state.counters["targets"] = mean_targets(fanout);
}
BENCHMARK(BM_IndexFanout)->Arg(1000)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_PerPeerScanFanout(benchmark::State& state) {
  pti::bench::paper_reference(
      "E-scale/scan", "pre-index baseline: every subscriber's own interest "
                      "list visited per publish — O(population)");
  const auto subs = static_cast<std::size_t>(state.range(0));
  const auto assignment = subscriber_families(subs);

  std::vector<SubscriberId> out;
  const auto fanout = [&](std::uint64_t group) {
    out.clear();
    for (std::size_t s = 0; s < subs; ++s) {
      for (const std::uint32_t family : assignment[s]) {
        if (family % kGroups == group) {
          out.push_back(static_cast<SubscriberId>(s));
          break;
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out.size();
  };
  std::uint64_t published = 0;
  for (auto _ : state) {
    fanout(published++ % kGroups);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["subs"] = static_cast<double>(subs);
  state.counters["targets"] = mean_targets(fanout);
}
BENCHMARK(BM_PerPeerScanFanout)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_IndexSubscribeChurn(benchmark::State& state) {
  pti::bench::paper_reference(
      "E-scale/churn", "join+leave cycle against a populated index: slot "
                       "reuse, COW registration, tombstone, epoch retire");
  const auto subs = static_cast<std::size_t>(state.range(0));
  const auto assignment = subscriber_families(subs);
  InterestIndex index;
  for (std::size_t s = 0; s < subs; ++s) {
    const SubscriberId sub = index.add_subscriber();
    for (const std::uint32_t family : assignment[s]) {
      index.add_interest(sub, family_names()[family]);
    }
  }

  std::uint64_t cycle = 0;
  for (auto _ : state) {
    const SubscriberId sub = index.add_subscriber();
    index.add_interest(sub, family_names()[cycle % kFamilies]);
    index.add_interest(sub, family_names()[(cycle + 7) % kFamilies]);
    index.remove_subscriber(sub);
    if (++cycle % 4096 == 0) index.epochs().try_reclaim();
  }
  index.epochs().try_reclaim();
  state.counters["subs"] = static_cast<double>(subs);
}
BENCHMARK(BM_IndexSubscribeChurn)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_ScenarioPublishStorm(benchmark::State& state) {
  pti::bench::paper_reference(
      "E-scale/storm", "full megasim publish storm (bring-up included); "
                       "optimistic vs eager wire bytes at population scale");
  const auto peers = static_cast<std::size_t>(state.range(0));
  const bool eager = state.range(1) == 1;
  const bool sessions = state.range(1) >= 2;  // session-layer optimistic
  const bool batched = state.range(1) == 3;   // + batching window, shared intros
  ScenarioConfig config;
  config.seed = 42;
  config.peers = peers;
  config.types = kFamilies;
  config.type_groups = kGroups;
  config.mode = eager ? pti::transport::ProtocolMode::Eager
                      : pti::transport::ProtocolMode::Optimistic;
  config.use_sessions = sessions;
  if (batched) config.session_batch = 16;
  ScenarioScript script;
  script.publish_storm(peers / 10);

  std::uint64_t deliveries = 0;
  for (auto _ : state) {
    const ScenarioResult result = pti::sim::run_scenario(config, script);
    deliveries += result.stats.deliveries;
    state.counters["net_bytes"] = static_cast<double>(result.stats.net_bytes);
    state.counters["net_msgs"] = static_cast<double>(result.stats.net_messages);
    state.counters["accepts"] = static_cast<double>(result.stats.accepts);
    state.counters["rejects"] = static_cast<double>(result.stats.rejects);
    benchmark::DoNotOptimize(result.trace_digest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(deliveries));
  state.SetLabel(eager ? "eager"
                       : (batched ? "session-batched"
                                  : (sessions ? "session" : "optimistic")));
}
BENCHMARK(BM_ScenarioPublishStorm)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Args({4000, 2})
    ->Args({16000, 0})
    ->Args({16000, 2})
    ->Args({16000, 3})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
