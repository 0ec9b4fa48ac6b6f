// Megasim determinism and shared-index semantics (ISSUE 8 tentpole).
//
// Four layers under test:
//
//   EventLoop        (time, seq)-ordered firing, clock coupling, clamping.
//   InterestIndex    declaration-order matching, idempotent registration,
//                    LIFO id reuse, tombstone compaction, sorted-union
//                    fan-out — plus a churn test that TSan watches:
//                    concurrent subscribe/unsubscribe against pinned
//                    snapshot readers.
//   LightweightPeer  the session answers no scenario produces, against a
//                    scripted endpoint: one replay per Reset, a failing
//                    batch entry answered alone, a Reset's known hashes.
//   Scenario         the determinism contract: same seed => byte-identical
//                    trace/accept/stats digests, invariant under host
//                    thread count; eager and optimistic modes agree on
//                    every accept/reject verdict while optimistic moves
//                    fewer bytes; the inverted index and the per-peer-scan
//                    baseline produce identical runs.
//
// SimScale.PopulationScenario is the CI scale gate: peers default to 3000
// for plain ctest; the scale-smoke stage sets PTI_SIM_PEERS=10000 and the
// nightly soak sweeps 10^5 (and 10^6 on big iron). The scenario runs
// PTI_SIM_RUNS times (default 2) and every run must produce the same
// digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/lightweight_peer.hpp"
#include "sim/scenario.hpp"
#include "sim/type_universe.hpp"
#include "transport/assembly_hub.hpp"
#include "transport/interest_index.hpp"
#include "transport/message.hpp"
#include "transport/sim_network.hpp"
#include "transport/transport_error.hpp"
#include "util/epoch.hpp"
#include "util/interning.hpp"
#include "util/sim_clock.hpp"

namespace pti {
namespace {

using sim::EventLoop;
using sim::LightweightPeer;
using sim::Scenario;
using sim::ScenarioConfig;
using sim::ScenarioResult;
using sim::ScenarioScript;
using transport::InterestIndex;
using transport::Message;
using transport::SessionAck;
using transport::SessionBatch;
using transport::SessionBatchAck;
using transport::SessionPush;
using transport::SessionStatus;
using transport::SubscriberId;
using util::InternedName;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0' ? std::strtoull(raw, nullptr, 10) : fallback;
}

InternedName intern(const std::string& s) { return util::SymbolTable::global().intern(s); }

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoopTest, FiresInTimeThenScheduleOrder) {
  EventLoop loop(1);
  std::vector<int> order;
  loop.at(200, [&] { order.push_back(3); });
  loop.at(100, [&] { order.push_back(1); });
  loop.at(100, [&] { order.push_back(2); });  // same tick: schedule order
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now_ns(), 200u);
}

TEST(EventLoopTest, EventsMayScheduleMoreEventsAndPastClampsToNow) {
  EventLoop loop(1);
  std::vector<int> order;
  loop.at(100, [&] {
    order.push_back(1);
    loop.at(50, [&] { order.push_back(2); });  // in the past: fires next
    loop.after(10, [&] { order.push_back(3); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now_ns(), 110u);
}

TEST(EventLoopTest, RunUntilAdvancesSharedClock) {
  util::SimClock clock;
  EventLoop loop(1, &clock);
  int fired = 0;
  loop.at(100, [&] { fired++; });
  loop.at(900, [&] { fired++; });
  EXPECT_EQ(loop.run_until(500), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.now_ns(), 500u);  // advanced to the horizon, not the event
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(clock.now_ns(), 900u);
}

// --- InterestIndex -----------------------------------------------------------

TEST(InterestIndexTest, MatchFirstHonorsDeclarationOrder) {
  InterestIndex index;
  const SubscriberId sub = index.add_subscriber();
  const InternedName a = intern("simidx.order.A");
  const InternedName b = intern("simidx.order.B");
  const InternedName c = intern("simidx.order.C");
  index.add_interest(sub, b);
  index.add_interest(sub, a);
  index.add_interest(sub, c);

  // Everything matches: the FIRST DECLARED interest wins, not the lowest id.
  const auto any = index.match_first(sub, [](InternedName) { return true; });
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(*any, b);

  // A selective acceptor sees candidates in declaration order too.
  std::vector<InternedName> seen;
  const auto last = index.match_first(sub, [&](InternedName interest) {
    seen.push_back(interest);
    return interest == c;
  });
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(*last, c);
  EXPECT_EQ(seen, (std::vector<InternedName>{b, a, c}));
}

TEST(InterestIndexTest, RegistrationIsIdempotent) {
  InterestIndex index;
  const SubscriberId sub = index.add_subscriber();
  const InternedName a = intern("simidx.idem.A");
  index.add_interest(sub, a);
  index.add_interest(sub, a);  // duplicate pair: no-op
  EXPECT_EQ(index.entry_count(), 1u);
  EXPECT_EQ(index.interest_count(), 1u);

  EXPECT_THROW(index.add_interest(sub, InternedName()), transport::TransportError);
  EXPECT_THROW(index.add_interest(sub + 100, a), transport::TransportError);
}

TEST(InterestIndexTest, SubscriberIdsAreDenseAndReusedLifo) {
  InterestIndex index;
  const SubscriberId s0 = index.add_subscriber();
  const SubscriberId s1 = index.add_subscriber();
  const SubscriberId s2 = index.add_subscriber();
  EXPECT_EQ(s1, s0 + 1);
  EXPECT_EQ(s2, s0 + 2);

  index.remove_subscriber(s1);
  index.remove_subscriber(s2);
  EXPECT_FALSE(index.is_live(s1));
  // LIFO reuse: the most recently freed id comes back first — this is what
  // keeps churned scenario replays deterministic.
  EXPECT_EQ(index.add_subscriber(), s2);
  EXPECT_EQ(index.add_subscriber(), s1);
  EXPECT_TRUE(index.is_live(s1));
}

TEST(InterestIndexTest, PostingListsSurviveTombstoneCompaction) {
  InterestIndex index;
  const InternedName hot = intern("simidx.compact.Hot");
  std::vector<SubscriberId> subs;
  for (int i = 0; i < 400; ++i) {
    const SubscriberId sub = index.add_subscriber();
    index.add_interest(sub, hot);
    subs.push_back(sub);
  }
  // Remove enough for erase() to trip compaction (tombstones > live).
  for (int i = 0; i < 300; ++i) index.remove_subscriber(subs[i]);

  std::vector<SubscriberId> collected;
  ASSERT_EQ(index.collect_subscribers(hot, collected), 100u);
  // Subscription order of the survivors is preserved across compaction.
  EXPECT_EQ(collected, std::vector<SubscriberId>(subs.begin() + 300, subs.end()));
  index.epochs().try_reclaim();
}

TEST(InterestIndexTest, CollectMatchesReturnsSortedUnion) {
  InterestIndex index;
  const InternedName x = intern("simidx.union.X");
  const InternedName y = intern("simidx.union.Y");
  const SubscriberId s0 = index.add_subscriber();
  const SubscriberId s1 = index.add_subscriber();
  const SubscriberId s2 = index.add_subscriber();
  index.add_interest(s2, x);
  index.add_interest(s0, x);
  index.add_interest(s0, y);
  index.add_interest(s1, y);

  std::vector<SubscriberId> out;
  InterestIndex::FanoutScratch scratch;
  // Accept both interests: s0 subscribes to both but appears once.
  ASSERT_EQ(index.collect_matches([](InternedName) { return true; }, out, scratch), 3u);
  EXPECT_EQ(out, (std::vector<SubscriberId>{s0, s1, s2}));

  out.clear();
  ASSERT_EQ(index.collect_matches(
                [&](InternedName interest) { return interest == y; }, out, scratch),
            2u);
  EXPECT_EQ(out, (std::vector<SubscriberId>{s0, s1}));

  // A capped fan-out keeps the `limit` smallest DISTINCT subscribers of
  // the union (what the scenario keeps after dropping the publisher and
  // truncating), so each case compares against the full sorted union cut
  // the same way.
  const InternedName a = intern("simidx.cap.A");
  const InternedName b = intern("simidx.cap.B");
  const InternedName c = intern("simidx.cap.C");
  std::vector<SubscriberId> subs{s0, s1, s2};
  for (int i = 3; i < 300; ++i) subs.push_back(index.add_subscriber());
  // Posting lists in scrambled insertion order, overlapping: the even ids
  // below 100 appear under both A and B, so duplicates straddle every
  // small cut; ids run to 299, across five bitmap words; C is rejected.
  for (int i = 99; i >= 0; --i) index.add_interest(subs[i], a);
  for (int i = 0; i < 150; i += 2) index.add_interest(subs[i], b);
  for (int i = 299; i >= 130; i -= 3) index.add_interest(subs[i], b);
  for (int i = 0; i < 300; ++i) index.add_interest(subs[i], c);
  const auto accept = [&](InternedName interest) { return interest == a || interest == b; };

  // Reference: the posting lists of A and B, sorted and deduplicated.
  std::vector<SubscriberId> full;
  index.collect_subscribers(a, full);
  index.collect_subscribers(b, full);
  std::sort(full.begin(), full.end());
  full.erase(std::unique(full.begin(), full.end()), full.end());
  ASSERT_EQ(full.size(), 179u);
  index.collect_matches(accept, out, scratch);
  ASSERT_EQ(out, full);

  for (const std::size_t limit : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{65}, std::size_t{100}, std::size_t{101},
                                  std::size_t{130}, full.size(), full.size() + 1,
                                  std::size_t{5000}}) {
    std::vector<SubscriberId> expected = full;
    expected.resize(std::min(limit, full.size()));
    ASSERT_EQ(index.collect_matches(accept, out, scratch, limit), expected.size());
    EXPECT_EQ(out, expected) << "limit " << limit;
  }

  // The scenario's use: publisher inside the first cap + 1, then removed
  // and truncated, equals the full union with the publisher removed.
  const std::size_t cap = 16;
  for (const SubscriberId publisher : {full[0], full[7], full[cap], full[cap + 1]}) {
    index.collect_matches(accept, out, scratch, cap + 1);
    out.erase(std::remove(out.begin(), out.end(), publisher), out.end());
    out.resize(std::min(out.size(), cap));
    std::vector<SubscriberId> expected = full;
    expected.erase(std::remove(expected.begin(), expected.end(), publisher), expected.end());
    expected.resize(cap);
    EXPECT_EQ(out, expected) << "publisher " << publisher;
  }

  // The scratch bitmap is left clear: an empty selection finds nothing.
  EXPECT_EQ(index.collect_matches([](InternedName) { return false; }, out, scratch), 0u);
}

// The TSan target: writers churn subscriptions on a shared index while
// pinned readers walk snapshots and an epoch thread reclaims. Run under
// the tsan preset this asserts the epoch invariant (pinned readers never
// touch freed storage); under plain builds it is a liveness smoke.
TEST(InterestIndexTest, ConcurrentChurnWithPinnedReaders) {
  InterestIndex index;
  const int kInterests = 8;
  std::vector<InternedName> names;
  for (int i = 0; i < kInterests; ++i) {
    names.push_back(intern("simidx.churn.T" + std::to_string(i)));
  }

  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      util::Rng rng(100 + w);
      for (int round = 0; round < 400; ++round) {
        const SubscriberId sub = index.add_subscriber();
        for (int i = 0; i < kInterests; ++i) {
          if (rng.next_bool(0.5)) index.add_interest(sub, names[i]);
        }
        index.remove_subscriber(sub);
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      std::vector<SubscriberId> subs;
      std::vector<InternedName> interests;
      std::vector<SubscriberId> fanout;
      InterestIndex::FanoutScratch scratch;
      for (int round = 0; round < 600; ++round) {
        util::EpochManager::Pin pin(index.epochs());
        subs.clear();
        index.collect_subscribers(names[round % kInterests], subs);
        interests.clear();
        index.collect_interests(interests);
        for (const SubscriberId sub : subs) {
          if (const auto* held = index.interests_of(sub)) {
            for (const InternedName interest : *held) ASSERT_TRUE(interest.valid());
          }
        }
        // The capped fan-out walks the same snapshots as it marks its bitmap.
        const auto parity = (round + r) % 2;
        const auto same_parity = [&](InternedName interest) {
          return (std::find(names.begin(), names.end(), interest) - names.begin()) % 2 ==
                 parity;
        };
        index.collect_matches(same_parity, fanout, scratch, 16);
        ASSERT_LE(fanout.size(), 16u);
        ASSERT_TRUE(std::is_sorted(fanout.begin(), fanout.end()));
        ASSERT_EQ(std::adjacent_find(fanout.begin(), fanout.end()), fanout.end());
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) index.epochs().try_reclaim();
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(index.subscriber_count(), 0u);
  EXPECT_EQ(index.entry_count(), 0u);
  index.epochs().try_reclaim();
}

// --- LightweightPeer session paths ------------------------------------------
//
// The sender cases push to a target that never joined: a scripted endpoint
// attached under the target's name answers for it and sees every exchange.
// The receiver cases send frames straight into a joined peer from a sender
// name with no endpoint, so any nested fetch the receiver makes fails.

struct SessionRig {
  transport::SimNetwork net;
  transport::AssemblyHub hub;
  sim::TypeUniverse universe{sim::TypeUniverseConfig{5, 8, 4}, hub};

  [[nodiscard]] std::unique_ptr<LightweightPeer> peer(std::uint32_t index) {
    return std::make_unique<LightweightPeer>(index, net, universe, hub,
                                             transport::ProtocolMode::Optimistic, true);
  }
  /// A kind-9 push of `family` under `token` that introduces `introduced`.
  [[nodiscard]] SessionPush push(std::uint64_t token, std::uint32_t family,
                                 const std::vector<std::uint32_t>& introduced) const {
    SessionPush push;
    push.token = token;
    push.wire_types = {family + 1};
    push.encoding = universe.payload_encoding();
    push.payload = universe.payload_bytes(family);
    for (const std::uint32_t f : introduced) {
      transport::SessionIntro intro;
      intro.wire_id = f + 1;
      intro.type_name = universe.publisher_type_name(f);
      intro.description_xml = universe.description_xml(f);
      intro.assembly_name = universe.assembly_name(f);
      push.intros.push_back(std::move(intro));
    }
    return push;
  }
};

Message ack_reply(const Message& request, SessionAck ack) {
  return Message{request.recipient, request.sender, std::move(ack)};
}

TEST(LightweightPeerSession, ResetGetsOneReplayThatCarriesTheIntro) {
  SessionRig rig;
  const auto sender = rig.peer(0);
  const auto target = rig.peer(1);  // never joins: the script answers for it
  const std::uint32_t family = 2;
  const std::uint32_t matched = 5;  // the sender must read this from the ack
  std::vector<SessionPush> seen;
  bool reset_next = false;
  rig.net.attach(target->name(), [&](const Message& request) {
    seen.push_back(std::get<SessionPush>(request.payload));
    if (std::exchange(reset_next, false)) {
      return ack_reply(request, {SessionStatus::Reset, false, "session state lost", {}});
    }
    return ack_reply(request,
                     {SessionStatus::Ok, true, rig.universe.interest_type_name(matched), {}});
  });

  // First contact: the intro rides along, and the Ok ack commits it.
  ASSERT_TRUE(sender->publish_to(*target, family).delivered);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].intros.size(), 1u);

  seen.clear();
  reset_next = true;
  const LightweightPeer::PushOutcome outcome = sender->publish_to(*target, family);
  ASSERT_EQ(seen.size(), 2u);  // the push and its one replay
  EXPECT_TRUE(seen[0].intros.empty());
  ASSERT_EQ(seen[1].intros.size(), 1u);
  EXPECT_EQ(seen[1].intros[0].wire_id, family + 1);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_FALSE(outcome.dropped);
  EXPECT_EQ(outcome.matched, matched);
}

TEST(LightweightPeerSession, BatchResetSlotGetsExactlyOneReplay) {
  SessionRig rig;
  const auto sender = rig.peer(0);
  const auto target = rig.peer(1);
  int exchanges = 0;
  rig.net.attach(target->name(), [&](const Message& request) {
    ++exchanges;
    if (std::holds_alternative<SessionBatch>(request.payload)) {
      SessionBatchAck back;
      const std::string matched = rig.universe.interest_type_name(0);
      back.entries.push_back({SessionStatus::Ok, true, matched, {}});
      back.entries.push_back({SessionStatus::Reset, false, "session state lost", {}});
      back.entries.push_back({SessionStatus::Ok, false, "no interest conforms", {}});
      return Message{request.recipient, request.sender, std::move(back)};
    }
    // The middle slot's replay is Reset again.
    return ack_reply(request, {SessionStatus::Reset, false, "session state lost", {}});
  });

  std::vector<LightweightPeer::PushOutcome> out;
  sender->publish_batch_to(*target, {0, 1, 2}, out);
  EXPECT_EQ(exchanges, 2);  // the frame, then one replay of slot 1
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].delivered);
  EXPECT_EQ(out[0].matched, 0u);
  EXPECT_TRUE(out[1].dropped);
  EXPECT_FALSE(out[2].delivered);
  EXPECT_FALSE(out[2].dropped);
}

TEST(LightweightPeerSession, FailingBatchEntryAnswersOnlyItsOwnSlot) {
  SessionRig rig;
  std::vector<std::uint32_t> conformant;  // families that conform to their own interest
  for (std::uint32_t f = 0; f < rig.universe.type_count(); ++f) {
    if (rig.universe.conforms(f, f)) conformant.push_back(f);
  }
  ASSERT_GE(conformant.size(), 2u);
  const std::uint32_t fetched = conformant[0];
  const std::uint32_t prepaid = conformant[1];
  const auto receiver = rig.peer(1);
  receiver->set_interests({fetched, prepaid});
  receiver->join();
  const auto conforms = [&](std::uint32_t f) {
    return rig.universe.conforms(f, fetched) || rig.universe.conforms(f, prepaid);
  };
  std::uint32_t rejected = 0;
  while (conforms(rejected)) ++rejected;
  ASSERT_LT(rejected, rig.universe.type_count());

  SessionBatch batch;
  batch.entries.push_back(rig.push(7, rejected, {rejected}));
  // Accepted but not loaded: the code fetch goes back to a sender with no
  // endpoint and fails.
  batch.entries.push_back(rig.push(7, fetched, {fetched}));
  batch.entries.push_back(rig.push(7, prepaid, {prepaid}));
  batch.entries.back().intro_assembly_names.push_back(rig.universe.assembly_name(prepaid));

  const Message reply = rig.net.send(Message{"ghost", receiver->name(), std::move(batch)});
  ASSERT_TRUE(std::holds_alternative<SessionBatchAck>(reply.payload));
  const std::vector<SessionAck>& slots = std::get<SessionBatchAck>(reply.payload).entries;
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].status, SessionStatus::Ok);
  EXPECT_FALSE(slots[0].delivered);
  EXPECT_EQ(slots[1].status, SessionStatus::Error);
  EXPECT_FALSE(slots[1].delivered);
  EXPECT_EQ(slots[2].status, SessionStatus::Ok);
  EXPECT_TRUE(slots[2].delivered);
  // The first interest in declaration order that `prepaid` conforms to.
  const std::uint32_t matched = rig.universe.conforms(prepaid, fetched) ? fetched : prepaid;
  EXPECT_EQ(slots[2].detail, rig.universe.interest_type_name(matched));
}

TEST(LightweightPeerSession, UnknownWireIdResetCarriesKnownDescriptionHashes) {
  SessionRig rig;
  const auto receiver = rig.peer(1);
  receiver->join();  // no interests: every verdict is a reject, no fetch

  // Token 7 introduces families 1 and 3; their descriptions crossed.
  const Message first =
      rig.net.send(Message{"ghost", receiver->name(), rig.push(7, 3, {3, 1})});
  ASSERT_TRUE(std::holds_alternative<SessionAck>(first.payload));
  EXPECT_EQ(std::get<SessionAck>(first.payload).status, SessionStatus::Ok);

  // Token 8 introduced nothing, so its wire id is unknown.
  const Message second = rig.net.send(Message{"ghost", receiver->name(), rig.push(8, 3, {})});
  ASSERT_TRUE(std::holds_alternative<SessionAck>(second.payload));
  const auto& reset = std::get<SessionAck>(second.payload);
  EXPECT_EQ(reset.status, SessionStatus::Reset);
  EXPECT_FALSE(reset.delivered);
  EXPECT_EQ(reset.known_desc_hashes, (std::vector<std::uint64_t>{
                                         rig.universe.description_hash(1),
                                         rig.universe.description_hash(3)}));
}

// --- Scenario determinism ----------------------------------------------------

ScenarioConfig small_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.peers = 400;
  config.types = 24;
  config.type_groups = 6;
  config.fanout_cap = 32;
  return config;
}

TEST(ScenarioDeterminism, SameSeedByteIdenticalDigests) {
  const ScenarioScript script = ScenarioScript::standard(400);
  const ScenarioResult first = sim::run_scenario(small_config(7), script);
  const ScenarioResult second = sim::run_scenario(small_config(7), script);
  EXPECT_EQ(first.trace_digest, second.trace_digest);
  EXPECT_EQ(first.accept_digest, second.accept_digest);
  EXPECT_EQ(first.stats_digest, second.stats_digest);
  EXPECT_EQ(first.stats.net_bytes, second.stats.net_bytes);

  // The run did real work in every dimension the digest covers.
  EXPECT_GT(first.stats.publishes, 0u);
  EXPECT_GT(first.stats.accepts, 0u);
  EXPECT_GT(first.stats.rejects, 0u);
  EXPECT_GT(first.stats.leaves, 0u);
  EXPECT_GT(first.stats.partitions, 0u);
  EXPECT_EQ(first.stats.heals, first.stats.partitions);
}

TEST(ScenarioDeterminism, DifferentSeedDiverges) {
  const ScenarioScript script = ScenarioScript::standard(400);
  const ScenarioResult a = sim::run_scenario(small_config(7), script);
  const ScenarioResult b = sim::run_scenario(small_config(8), script);
  EXPECT_NE(a.trace_digest, b.trace_digest);
}

// Independent scenarios on four host threads, all interning into the one
// global symbol table concurrently, must each reproduce the single-threaded
// digest — i.e. digests must not depend on raw interned-id values.
TEST(ScenarioDeterminism, HostThreadCountInvariant) {
  const ScenarioScript script = ScenarioScript::standard(400);
  const ScenarioResult reference = sim::run_scenario(small_config(11), script);

  std::vector<ScenarioResult> results(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = sim::run_scenario(small_config(11), script); });
  }
  for (std::thread& t : threads) t.join();
  for (const ScenarioResult& result : results) {
    EXPECT_EQ(result.trace_digest, reference.trace_digest);
    EXPECT_EQ(result.accept_digest, reference.accept_digest);
    EXPECT_EQ(result.stats_digest, reference.stats_digest);
  }
}

// A dense little population (60 peers, 30 partitioned pairs) makes storms
// reliably cross live partitions, so the drop path is exercised — and must
// replay byte-identically like everything else.
TEST(ScenarioDeterminism, ChurnAndPartitionWavesReplay) {
  ScenarioConfig config;
  config.seed = 13;
  config.peers = 60;
  config.types = 8;
  config.type_groups = 2;
  config.fanout_cap = 16;
  ScenarioScript script;
  script.churn(20, 10)
      .partition_wave(30, 10'000'000)
      .publish_storm(200)
      .settle(20'000'000)
      .churn(5, 5)
      .publish_storm(50);
  const ScenarioResult a = sim::run_scenario(config, script);
  const ScenarioResult b = sim::run_scenario(config, script);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.stats_digest, b.stats_digest);
  EXPECT_EQ(a.stats.leaves, 25u);
  EXPECT_EQ(a.stats.joins, 60u + 15u);
  EXPECT_EQ(a.stats.partitions, 30u);
  EXPECT_EQ(a.stats.heals, 30u);
  EXPECT_GT(a.stats.drops, 0u);  // the storm overlapped live partitions
}

// --- Protocol-mode and matching-path equivalence -----------------------------

TEST(ScenarioEquivalence, EagerAndOptimisticAgreeOnEveryVerdict) {
  const ScenarioScript script = ScenarioScript::standard(1000);
  ScenarioConfig config;
  config.seed = 21;
  config.peers = 1000;
  config.mode = transport::ProtocolMode::Optimistic;
  const ScenarioResult optimistic = sim::run_scenario(config, script);
  config.mode = transport::ProtocolMode::Eager;
  const ScenarioResult eager = sim::run_scenario(config, script);

  // Same seed, same universe, same matrix: identical accept/reject stream.
  EXPECT_EQ(optimistic.accept_digest, eager.accept_digest);
  EXPECT_EQ(optimistic.stats.accepts, eager.stats.accepts);
  EXPECT_EQ(optimistic.stats.rejects, eager.stats.rejects);

  // The paper's claim, end to end: optimistic rejections skip the type
  // bundle, so the same verdicts cost fewer wire bytes.
  EXPECT_GT(optimistic.stats.rejects, 0u);
  EXPECT_LT(optimistic.stats.net_bytes, eager.stats.net_bytes);
  EXPECT_GT(optimistic.stats.typeinfo_requests, 0u);
  EXPECT_EQ(eager.stats.typeinfo_requests, 0u);
}

TEST(ScenarioEquivalence, InvertedIndexAndPerPeerScanProduceIdenticalRuns) {
  const ScenarioScript script = ScenarioScript::standard(600);
  ScenarioConfig config;
  config.seed = 23;
  config.peers = 600;
  // Both delivery modes: cold pushes, and the batched sessions the
  // benchmark storm runs (where target order also shapes the frames).
  for (const bool batched : {false, true}) {
    config.use_sessions = batched;
    config.session_batch = batched ? 16 : 1;
    config.use_inverted_index = true;
    const ScenarioResult indexed = sim::run_scenario(config, script);
    config.use_inverted_index = false;
    const ScenarioResult scanned = sim::run_scenario(config, script);

    EXPECT_EQ(indexed.trace_digest, scanned.trace_digest) << "batched " << batched;
    EXPECT_EQ(indexed.accept_digest, scanned.accept_digest) << "batched " << batched;
    EXPECT_EQ(indexed.stats_digest, scanned.stats_digest) << "batched " << batched;
    EXPECT_EQ(indexed.stats.session_batch_frames, scanned.stats.session_batch_frames);
  }
}

// Golden digests: fixed-seed runs whose trace, accept and stats digests
// are pinned to recorded values, so a change that reorders SessionBatch
// frames, moves a wire byte or changes a target set fails here even when
// both sides of an equivalence test move together. (The accept digest
// ignores frame order and the bench gate allows a band on bytes; the
// stats digest folds net_bytes, net_messages and session_batch_frames
// exactly.) The dense population repeats (publisher, target) pairs, so
// frames carry several entries, and the long partitions cause drops.
// Regenerate these values only for a deliberate change to the protocol's
// wire or the scenario's event stream. (net_bytes counts frame bytes plus
// simulated assembly bytes, Message::wire_size().)
TEST(ScenarioGolden, FixedSeedDigestsArePinned) {
  ScenarioConfig config;
  config.seed = 43;
  config.peers = 48;
  config.types = 16;
  config.type_groups = 4;
  config.fanout_cap = 12;
  ScenarioScript script;
  script.publish_storm(300)
      .churn(6, 3)
      .partition_wave(10, 5'000'000)
      .publish_storm(300)
      .settle(2'000'000)
      .churn(3, 3)
      .publish_storm(150);

  const ScenarioResult cold = sim::run_scenario(config, script);
  EXPECT_EQ(cold.trace_digest, 0x84d3444a0de2478fULL);
  EXPECT_EQ(cold.accept_digest, 0xbb0a59d715db786bULL);
  EXPECT_EQ(cold.stats_digest, 0x24e22c38246e6a22ULL);
  EXPECT_EQ(cold.stats.net_bytes, 7733933u);
  EXPECT_EQ(cold.stats.drops, 10u);

  config.use_sessions = true;
  config.session_batch = 4;
  const ScenarioResult batched = sim::run_scenario(config, script);
  EXPECT_EQ(batched.trace_digest, 0x3c2f471e140578afULL);
  EXPECT_EQ(batched.accept_digest, 0xbb0a59d715db786bULL);
  EXPECT_EQ(batched.stats_digest, 0x475cabe700330759ULL);
  EXPECT_EQ(batched.stats.net_bytes, 6145301u);
  EXPECT_EQ(batched.stats.session_batch_frames, 7136u);
  EXPECT_EQ(batched.stats.session_batch_entries, 9000u);

  // Unbatched sessions: every delivery is one kind-9 SessionPush.
  config.session_batch = 1;
  const ScenarioResult unbatched = sim::run_scenario(config, script);
  EXPECT_EQ(unbatched.trace_digest, 0x84d3444a0de2478fULL);
  EXPECT_EQ(unbatched.accept_digest, 0xbb0a59d715db786bULL);
  EXPECT_EQ(unbatched.stats_digest, 0x4c1b5cdd63e101d1ULL);
  EXPECT_EQ(unbatched.stats.net_bytes, 6197224u);
  EXPECT_EQ(unbatched.stats.session_batch_frames, 0u);

  // Eager batched sessions: intros prepay their assemblies.
  config.mode = transport::ProtocolMode::Eager;
  config.session_batch = 4;
  const ScenarioResult eager = sim::run_scenario(config, script);
  EXPECT_EQ(eager.trace_digest, 0x3c2f471e140578afULL);
  EXPECT_EQ(eager.accept_digest, 0xbb0a59d715db786bULL);
  EXPECT_EQ(eager.stats_digest, 0x8488353e1c6f7801ULL);
  EXPECT_EQ(eager.stats.net_bytes, 13259469u);
  EXPECT_EQ(eager.stats.code_requests, 0u);
}

TEST(ScenarioEquivalence, SessionModeAgreesWhileWireCostCollapses) {
  // A deliberately small, churn-heavy population so sender/receiver pairs
  // repeat a lot: that is where the session layer earns its keep. The
  // verdict/accept stream must be byte-identical to the non-session run —
  // sessions change how metadata travels, never what is decided — while
  // the exchange count and wire bytes drop (intros piggyback inline, so
  // the nested TypeInfoRequest traffic disappears entirely).
  ScenarioScript script;
  script.publish_storm(1500).churn(4, 4).publish_storm(1000).settle(5'000'000);
  ScenarioConfig config;
  config.seed = 29;
  config.peers = 16;
  config.types = 8;
  config.mode = transport::ProtocolMode::Optimistic;
  config.use_sessions = false;
  const ScenarioResult cold = sim::run_scenario(config, script);
  config.use_sessions = true;
  const ScenarioResult session = sim::run_scenario(config, script);

  EXPECT_EQ(session.accept_digest, cold.accept_digest);
  EXPECT_EQ(session.stats.accepts, cold.stats.accepts);
  EXPECT_EQ(session.stats.rejects, cold.stats.rejects);
  EXPECT_EQ(session.stats.deliveries, cold.stats.deliveries);
  EXPECT_EQ(session.stats.drops, cold.stats.drops);

  // The collapse: same verdicts, strictly fewer exchanges and bytes.
  EXPECT_GT(cold.stats.typeinfo_requests, 0u);
  EXPECT_EQ(session.stats.typeinfo_requests, 0u);
  EXPECT_LT(session.stats.net_messages, cold.stats.net_messages);
  EXPECT_LT(session.stats.net_bytes, cold.stats.net_bytes);

  // Determinism holds in session mode too: same seed, same digests.
  const ScenarioResult replay = sim::run_scenario(config, script);
  EXPECT_EQ(replay.trace_digest, session.trace_digest);
  EXPECT_EQ(replay.accept_digest, session.accept_digest);
  EXPECT_EQ(replay.stats_digest, session.stats_digest);
}

// Batched session mode regroups the wire — SessionBatch frames carry many
// pushes per (publisher, target) pair — but must NOT regroup the verdict
// stream: the accept digest folds per delivery in original order and has
// to land byte-identical to both the unbatched session run and the cold
// run, across churn, partitions and heals (windows close before every
// state-changing event).
TEST(ScenarioEquivalence, BatchedSessionsReproduceTheVerdictStream) {
  ScenarioScript script;
  script.publish_storm(1200)
      .churn(4, 4)
      .partition_wave(6, 400'000)
      .publish_storm(900)
      .settle(5'000'000)
      .publish_storm(400);
  ScenarioConfig config;
  config.seed = 31;
  config.peers = 24;
  config.types = 12;
  config.type_groups = 4;
  config.fanout_cap = 16;
  config.use_sessions = false;
  const ScenarioResult cold = sim::run_scenario(config, script);
  config.use_sessions = true;
  const ScenarioResult session = sim::run_scenario(config, script);
  config.session_batch = 8;
  const ScenarioResult batched = sim::run_scenario(config, script);

  EXPECT_EQ(batched.accept_digest, session.accept_digest);
  EXPECT_EQ(batched.accept_digest, cold.accept_digest);
  EXPECT_EQ(batched.stats.accepts, cold.stats.accepts);
  EXPECT_EQ(batched.stats.rejects, cold.stats.rejects);
  EXPECT_EQ(batched.stats.deliveries, cold.stats.deliveries);
  EXPECT_EQ(batched.stats.drops, cold.stats.drops);

  // The batching was real: frames carried more entries than frames, and
  // every deferred delivery went out through a batch frame.
  EXPECT_GT(batched.stats.session_batch_frames, 0u);
  EXPECT_GT(batched.stats.session_batch_entries, batched.stats.session_batch_frames);
  EXPECT_EQ(session.stats.session_batch_frames, 0u);
  // Fewer frames on the wire than unbatched session mode sent messages.
  EXPECT_LT(batched.stats.net_messages, session.stats.net_messages);
  EXPECT_LE(batched.stats.net_bytes, session.stats.net_bytes);

  // Determinism holds under batching: same seed, same digests.
  const ScenarioResult replay = sim::run_scenario(config, script);
  EXPECT_EQ(replay.trace_digest, batched.trace_digest);
  EXPECT_EQ(replay.accept_digest, batched.accept_digest);
  EXPECT_EQ(replay.stats_digest, batched.stats_digest);
}

// The shared-intro pay-off at population scale: a 16k-peer cold-heavy
// storm (almost every (sender, target) pair is first contact) used to be
// the session layer's worst case — every pair re-shipped the description
// XML the receiver already held. With receivers advertising description
// hashes and senders consulting the hub registry, a hot description
// crosses once per RECEIVER, so batched session bytes drop below even the
// cold protocol (which pays a TypeInfoRequest round trip per receiver).
TEST(ScenarioEquivalence, SharedIntrosBeatColdOnAColdHeavyStorm) {
  const std::size_t peers = env_u64("PTI_SIM_BATCH_PEERS", 16384);
  ScenarioScript script;
  script.publish_storm(2500);
  ScenarioConfig config;
  config.seed = 37;
  config.peers = peers;
  config.types = 64;
  config.type_groups = 16;
  config.fanout_cap = 16;
  config.use_sessions = false;
  const ScenarioResult cold = sim::run_scenario(config, script);
  config.use_sessions = true;
  config.session_batch = 16;
  const ScenarioResult batched = sim::run_scenario(config, script);

  EXPECT_EQ(batched.accept_digest, cold.accept_digest);
  EXPECT_EQ(batched.stats.accepts, cold.stats.accepts);
  EXPECT_EQ(batched.stats.rejects, cold.stats.rejects);
  EXPECT_GT(batched.stats.session_batch_frames, 0u);
  EXPECT_LE(batched.stats.net_bytes, cold.stats.net_bytes);
  EXPECT_LT(batched.stats.net_messages, cold.stats.net_messages);
  ::testing::Test::RecordProperty("cold_bytes", std::to_string(cold.stats.net_bytes));
  ::testing::Test::RecordProperty("session_bytes",
                                  std::to_string(batched.stats.net_bytes));
}

// --- Scale gate --------------------------------------------------------------

// Env knobs:
//   PTI_SIM_PEERS  population size (default 3000; smoke 10^4; soak 10^5+)
//   PTI_SIM_RUNS   determinism repetitions (default 2; every run must match)
//   PTI_SIM_SEED   scenario seed (default 42)
TEST(SimScale, PopulationScenario) {
  const std::size_t peers = env_u64("PTI_SIM_PEERS", 3000);
  const std::size_t runs = std::max<std::uint64_t>(env_u64("PTI_SIM_RUNS", 2), 1);
  ScenarioConfig config;
  config.seed = env_u64("PTI_SIM_SEED", 42);
  config.peers = peers;
  config.types = 64;
  config.type_groups = 16;
  const ScenarioScript script = ScenarioScript::standard(peers);

  ScenarioResult reference;
  for (std::size_t run = 0; run < runs; ++run) {
    const ScenarioResult result = sim::run_scenario(config, script);
    if (run == 0) {
      reference = result;
      EXPECT_GE(result.stats.index_subscribers, peers - peers / 10);
      EXPECT_GT(result.stats.accepts, 0u);
      EXPECT_GT(result.stats.rejects, 0u);
      EXPECT_GT(result.stats.net_bytes, 0u);
      ::testing::Test::RecordProperty("peers", static_cast<int>(peers));
      ::testing::Test::RecordProperty(
          "net_messages", std::to_string(result.stats.net_messages));
      ::testing::Test::RecordProperty("trace_digest",
                                      std::to_string(result.trace_digest));
    } else {
      EXPECT_EQ(result.trace_digest, reference.trace_digest) << "run " << run;
      EXPECT_EQ(result.accept_digest, reference.accept_digest) << "run " << run;
      EXPECT_EQ(result.stats_digest, reference.stats_digest) << "run " << run;
    }
  }
}

}  // namespace
}  // namespace pti
