#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/epoch.hpp"

namespace pti::sim {

namespace {

/// Event tags mixed into the trace digest — stable small constants, never
/// pointers or interned ids.
enum : std::uint64_t {
  kTagPublish = 1,
  kTagDrop = 2,
  kTagAccept = 3,
  kTagReject = 4,
  kTagLeave = 5,
  kTagJoin = 6,
  kTagPartition = 7,
  kTagHeal = 8,
};

/// Interest draws per peer (a repeated family is dropped).
constexpr std::size_t kInterestsPerPeer = 2;
/// Skew of type popularity (0 would be uniform).
constexpr double kZipfExponent = 1.0;
/// Virtual spacing of scripted events.
constexpr std::uint64_t kEventIntervalNs = 50'000;
/// Deliveries between epoch reclaim sweeps.
constexpr std::size_t kReclaimEvery = 4096;

/// Splits one user seed into independent streams (universe, loop, net) so
/// reseeding one subsystem never perturbs another's draws.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t z = seed + stream * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return z ^ (z >> 31);
}

}  // namespace

// ---------------------------------------------------------------------------
// ScenarioScript

ScenarioScript& ScenarioScript::publish_storm(std::size_t publishes) {
  steps_.push_back({Step::Kind::PublishStorm, publishes, 0, 0});
  return *this;
}

ScenarioScript& ScenarioScript::churn(std::size_t leaves, std::size_t rejoins) {
  steps_.push_back({Step::Kind::Churn, leaves, rejoins, 0});
  return *this;
}

ScenarioScript& ScenarioScript::partition_wave(std::size_t pairs,
                                               std::uint64_t heal_after_ns) {
  steps_.push_back({Step::Kind::PartitionWave, pairs, 0, heal_after_ns});
  return *this;
}

ScenarioScript& ScenarioScript::settle(std::uint64_t idle_ns) {
  steps_.push_back({Step::Kind::Settle, 0, 0, idle_ns});
  return *this;
}

ScenarioScript ScenarioScript::standard(std::size_t peers) {
  // Storm sizes scale sublinearly with the population so the 10^6 sweep
  // stays a fan-out stress (huge subscriber sets) rather than a pure
  // message-count grind.
  const std::size_t storm = std::max<std::size_t>(peers / 10, 16);
  const std::size_t churned = std::max<std::size_t>(peers / 20, 4);
  const std::size_t pairs = std::max<std::size_t>(peers / 100, 2);
  ScenarioScript script;
  script.publish_storm(storm)
      .churn(churned, churned / 2)
      .partition_wave(pairs, 500'000)
      .publish_storm(storm)
      .settle(2'000'000)
      .churn(churned / 2, churned / 2)
      .publish_storm(storm / 2);
  return script;
}

// ---------------------------------------------------------------------------
// Scenario

Scenario::Scenario(const ScenarioConfig& config)
    : config_(config),
      net_(derive_seed(config.seed, 3)),
      loop_(derive_seed(config.seed, 2), &net_.clock()) {
  defer_deliveries_ = config_.use_sessions && config_.session_batch > 1;
  TypeUniverseConfig universe_config;
  universe_config.seed = derive_seed(config.seed, 1);
  universe_config.families = config.types;
  universe_config.groups = config.type_groups;
  universe_ = std::make_unique<TypeUniverse>(universe_config, hub_);

  // Zipf CDF over families: weight of rank k is (k+1)^-s.
  zipf_cdf_.resize(universe_->type_count());
  double total = 0.0;
  for (std::size_t k = 0; k < zipf_cdf_.size(); ++k) {
    total += std::pow(static_cast<double>(k + 1), -kZipfExponent);
    zipf_cdf_[k] = total;
  }
  for (double& c : zipf_cdf_) c /= total;

  // Build and join the population. Interests are drawn from the same
  // skewed distribution publishes use, so popular types have both the
  // most traffic and the most subscribers — the regime where an inverted
  // index pays and a per-peer scan drowns.
  const std::uint32_t count = static_cast<std::uint32_t>(config_.peers);
  peers_.reserve(count);
  live_.reserve(count);
  live_pos_.resize(count);
  sub_to_peer_.assign(count, 0);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto peer = std::make_unique<LightweightPeer>(i, net_, *universe_, hub_, config_.mode,
                                                  config_.use_sessions);
    std::vector<std::uint32_t> families;
    for (std::size_t k = 0; k < kInterestsPerPeer; ++k) {
      const std::uint32_t family = draw_family();
      if (std::find(families.begin(), families.end(), family) == families.end()) {
        families.push_back(family);
      }
    }
    peer->set_interests(std::move(families));
    peer->join();
    sub_to_peer_[peer->subscriber()] = i;
    live_pos_[i] = live_.size();
    live_.push_back(i);
    peers_.push_back(std::move(peer));
  }
  stats_.joins += count;
}

Scenario::~Scenario() = default;

ScenarioResult Scenario::run(const ScenarioScript& script) {
  cursor_ns_ = loop_.now_ns();
  for (const ScenarioScript::Step& step : script.steps_) {
    switch (step.kind) {
      case ScenarioScript::Step::Kind::PublishStorm:
        for (std::size_t i = 0; i < step.a; ++i) {
          loop_.at(cursor_ns_, [this] { fire_publish(); });
          cursor_ns_ += kEventIntervalNs;
        }
        break;
      case ScenarioScript::Step::Kind::Churn:
        for (std::size_t i = 0; i < std::max(step.a, step.b); ++i) {
          if (i < step.a) {
            loop_.at(cursor_ns_, [this] { fire_churn_leave(); });
            cursor_ns_ += kEventIntervalNs;
          }
          if (i < step.b) {
            loop_.at(cursor_ns_, [this] { fire_churn_rejoin(); });
            cursor_ns_ += kEventIntervalNs;
          }
        }
        break;
      case ScenarioScript::Step::Kind::PartitionWave:
        for (std::size_t i = 0; i < step.a; ++i) {
          const std::uint64_t heal_after = step.duration_ns;
          loop_.at(cursor_ns_, [this, heal_after] { fire_partition(heal_after); });
          cursor_ns_ += kEventIntervalNs;
        }
        break;
      case ScenarioScript::Step::Kind::Settle:
        cursor_ns_ += step.duration_ns;
        loop_.at(cursor_ns_, [] {});
        break;
    }
  }
  loop_.run();
  flush_session_batches();

  // Final reclaim sweep: with every event fired and no pins live, the
  // retired COW snapshots and directories must all free here — the leak
  // check the soak gate leans on.
  hub_.interests().epochs().try_reclaim();

  for (const auto& peer : peers_) {
    const PeerCounters& c = peer->counters();
    stats_.typeinfo_requests += c.typeinfo_requests;
    stats_.code_requests += c.code_requests;
    stats_.code_bytes_fetched += c.code_bytes_fetched;
  }
  stats_.net_messages = net_.stats().messages.get();
  stats_.net_bytes = net_.stats().bytes.get();
  stats_.net_drops = net_.stats().drops.get();
  stats_.virtual_time_ns = net_.clock().now_ns();
  stats_.index_subscribers = hub_.interests().subscriber_count();
  stats_.index_entries = hub_.interests().entry_count();

  ScenarioResult result;
  result.stats = stats_;
  result.trace_digest = trace_digest_;
  result.accept_digest = accept_digest_;
  std::uint64_t h = util::kFnvOffset64;
  const std::uint64_t fields[] = {
      stats_.publishes,   stats_.deliveries, stats_.accepts,
      stats_.rejects,     stats_.drops,      stats_.leaves,
      stats_.joins,       stats_.partitions, stats_.heals,
      stats_.typeinfo_requests, stats_.code_requests, stats_.code_bytes_fetched,
      stats_.net_messages, stats_.net_bytes, stats_.net_drops,
      stats_.virtual_time_ns, stats_.index_subscribers, stats_.index_entries,
      stats_.session_batch_frames, stats_.session_batch_entries,
  };
  for (const std::uint64_t field : fields) {
    h ^= field;
    h *= util::kFnvPrime64;
  }
  result.stats_digest = h;
  return result;
}

void Scenario::fire_publish() {
  if (live_.size() < 2) return;
  const std::uint32_t publisher = pick_live_peer();
  const std::uint32_t family = draw_family();
  ++stats_.publishes;
  match_targets(family, peers_[publisher]->subscriber(), target_scratch_);
  mix_trace(kTagPublish, publisher, family, target_scratch_.size());

  if (defer_deliveries_) {
    // Batched session mode: park the deliveries; the window closes when a
    // (publisher, target) pair fills or a state-changing event is next.
    bool full = false;
    for (const transport::SubscriberId sub : target_scratch_) {
      const std::uint32_t target = sub_to_peer_[sub];
      ++stats_.deliveries;
      const auto slot = static_cast<std::uint32_t>(pending_deliveries_.size());
      pending_deliveries_.push_back({publisher, target, family, kNoDelivery, {}});
      const std::uint64_t key = (std::uint64_t{publisher} << 32) | target;
      const auto next = static_cast<std::uint32_t>(pending_pairs_.size());
      const auto [ordinal, first_touch] = pending_pair_of_.try_emplace(key, next);
      if (first_touch) {
        pending_pairs_.push_back({slot, slot, 0});
      } else {
        pending_deliveries_[pending_pairs_[ordinal].tail].next = slot;
        pending_pairs_[ordinal].tail = slot;
      }
      if (++pending_pairs_[ordinal].count >= config_.session_batch) full = true;
    }
    if (full) flush_session_batches();
    return;
  }

  for (const transport::SubscriberId sub : target_scratch_) {
    const std::uint32_t target = sub_to_peer_[sub];
    ++stats_.deliveries;
    mix_delivery(target, family, peers_[publisher]->publish_to(*peers_[target], family));
    maybe_reclaim();
  }
}

void Scenario::mix_delivery(std::uint32_t target, std::uint32_t family,
                            const LightweightPeer::PushOutcome& outcome) {
  if (outcome.dropped) {
    ++stats_.drops;
    mix_trace(kTagDrop, target, family);
  } else if (outcome.delivered) {
    ++stats_.accepts;
    mix_trace(kTagAccept, target, family, outcome.matched);
    accept_digest_ ^= (static_cast<std::uint64_t>(target) << 32) | family;
    accept_digest_ *= util::kFnvPrime64;
    accept_digest_ ^= (std::uint64_t{1} << 40) | outcome.matched;
    accept_digest_ *= util::kFnvPrime64;
  } else {
    ++stats_.rejects;
    mix_trace(kTagReject, target, family);
    accept_digest_ ^= (static_cast<std::uint64_t>(target) << 32) | family;
    accept_digest_ *= util::kFnvPrime64;
    accept_digest_ ^= std::uint64_t{0};
    accept_digest_ *= util::kFnvPrime64;
  }
}

void Scenario::flush_session_batches() {
  if (pending_deliveries_.empty()) return;
  // Frames go out pair by pair in first-touch order, each pair's chain cut
  // into chunks of session_batch; the digests fold in ORIGINAL delivery
  // order below — batching regroups the wire, never the verdict stream.
  for (const PendingPair& pair : pending_pairs_) {
    for (std::uint32_t slot = pair.head; slot != kNoDelivery;) {
      frame_slots_.clear();
      frame_families_.clear();
      for (; slot != kNoDelivery && frame_slots_.size() < config_.session_batch;
           slot = pending_deliveries_[slot].next) {
        frame_slots_.push_back(slot);
        frame_families_.push_back(pending_deliveries_[slot].family);
      }
      const PendingDelivery& head = pending_deliveries_[frame_slots_.front()];
      peers_[head.publisher]->publish_batch_to(*peers_[head.target], frame_families_,
                                               frame_outcomes_);
      for (std::size_t k = 0; k < frame_slots_.size(); ++k) {
        pending_deliveries_[frame_slots_[k]].outcome = frame_outcomes_[k];
      }
      ++stats_.session_batch_frames;
      stats_.session_batch_entries += frame_slots_.size();
    }
  }

  for (const PendingDelivery& d : pending_deliveries_) {
    mix_delivery(d.target, d.family, d.outcome);
    maybe_reclaim();
  }
  pending_deliveries_.clear();
  pending_pairs_.clear();
  pending_pair_of_.clear();
}

void Scenario::fire_churn_leave() {
  flush_session_batches();
  if (live_.size() <= 1) return;
  const std::uint32_t peer = pick_live_peer();
  peers_[peer]->leave();
  remove_from_live(peer);
  departed_.push_back(peer);
  ++stats_.leaves;
  mix_trace(kTagLeave, peer);
}

void Scenario::fire_churn_rejoin() {
  flush_session_batches();
  if (departed_.empty()) return;
  const std::uint32_t peer = departed_.front();
  departed_.pop_front();
  peers_[peer]->join();
  sub_to_peer_[peers_[peer]->subscriber()] = peer;
  live_pos_[peer] = live_.size();
  live_.push_back(peer);
  ++stats_.joins;
  mix_trace(kTagJoin, peer);
}

void Scenario::fire_partition(std::uint64_t heal_after_ns) {
  flush_session_batches();
  if (live_.size() < 2) return;
  const std::uint32_t a = pick_live_peer();
  std::uint32_t b = pick_live_peer();
  if (a == b) b = live_[(live_pos_[a] + 1) % live_.size()];
  net_.partition(peers_[a]->name(), peers_[b]->name());
  net_.partition(peers_[b]->name(), peers_[a]->name());
  ++stats_.partitions;
  mix_trace(kTagPartition, a, b);
  loop_.after(heal_after_ns, [this, a, b] {
    // Close the window under the PRE-heal link state: deferred deliveries
    // must drop exactly where their unbatched counterparts would have.
    flush_session_batches();
    net_.heal_partition(peers_[a]->name(), peers_[b]->name());
    net_.heal_partition(peers_[b]->name(), peers_[a]->name());
    ++stats_.heals;
    mix_trace(kTagHeal, a, b);
  });
}

void Scenario::match_targets(std::uint32_t family, transport::SubscriberId publisher,
                             std::vector<transport::SubscriberId>& out) {
  out.clear();
  const std::uint32_t group = universe_->group_of(family);
  if (config_.use_inverted_index) {
    // Route through the shared engine: one scan over DISTINCT interests,
    // then a posting-list walk per match.
    // Only the fanout_cap + 1 smallest ids can survive the publisher's
    // removal and the cap below, so the index selects just those.
    const std::size_t limit = config_.fanout_cap == transport::InterestIndex::kWholeUnion
                                  ? config_.fanout_cap
                                  : config_.fanout_cap + 1;
    hub_.interests().collect_matches(
        [&](util::InternedName id) {
          const std::uint32_t interest = universe_->interest_of_id(id);
          return interest != TypeUniverse::kNoType && universe_->group_of(interest) == group;
        },
        out, fanout_scratch_, limit);
  } else {
    // Baseline (pre-index shape): visit EVERY live peer's own interest
    // list — O(population) per publish regardless of how few types match.
    for (const std::uint32_t peer : live_) {
      for (const std::uint32_t interest : peers_[peer]->interest_families()) {
        if (universe_->group_of(interest) == group) {
          out.push_back(peers_[peer]->subscriber());
          break;
        }
      }
    }
    std::sort(out.begin(), out.end());
  }
  out.erase(std::remove(out.begin(), out.end(), publisher), out.end());
  if (out.size() > config_.fanout_cap) out.resize(config_.fanout_cap);
}

std::uint32_t Scenario::pick_live_peer() {
  return live_[loop_.rng().next_below(live_.size())];
}

std::uint32_t Scenario::draw_family() {
  const double u = loop_.rng().next_double();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const std::size_t rank =
      it == zipf_cdf_.end() ? zipf_cdf_.size() - 1
                            : static_cast<std::size_t>(it - zipf_cdf_.begin());
  return static_cast<std::uint32_t>(rank);
}

void Scenario::remove_from_live(std::uint32_t peer) {
  const std::size_t pos = live_pos_[peer];
  const std::uint32_t last = live_.back();
  live_[pos] = last;
  live_pos_[last] = pos;
  live_.pop_back();
}

void Scenario::maybe_reclaim() {
  if (++since_reclaim_ < kReclaimEvery) return;
  since_reclaim_ = 0;
  hub_.interests().epochs().try_reclaim();
}

void Scenario::mix_trace(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                         std::uint64_t d) noexcept {
  trace_digest_ ^= a;
  trace_digest_ *= util::kFnvPrime64;
  trace_digest_ ^= b;
  trace_digest_ *= util::kFnvPrime64;
  trace_digest_ ^= c;
  trace_digest_ *= util::kFnvPrime64;
  trace_digest_ ^= d;
  trace_digest_ *= util::kFnvPrime64;
}

ScenarioResult run_scenario(const ScenarioConfig& config, const ScenarioScript& script) {
  Scenario scenario(config);
  return scenario.run(script);
}

}  // namespace pti::sim
