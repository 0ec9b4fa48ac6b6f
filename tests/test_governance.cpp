// Hostile-peer resource governance: epoch-based reclamation (pin ->
// retire -> reclaim), cold-entry eviction of the interned-name table and
// the conformance cache, per-peer quotas at the transport seam, and the
// ResourceGovernor sweep that ties them together. The classified
// ResourceExhausted error contract — every quota or hard-cap violation
// surfaces as pti::ResourceExhaustedError on every transport — is pinned
// here too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "conform/conformance_cache.hpp"
#include "core/expected.hpp"
#include "core/resource_governor.hpp"
#include "fixtures/sample_types.hpp"
#include "reflect/introspect.hpp"
#include "reflect/type_builder.hpp"
#include "reflect/type_registry.hpp"
#include "reflect/value.hpp"
#include "serial/typedesc_xml.hpp"
#include "transport/assembly_hub.hpp"
#include "transport/async_transport.hpp"
#include "transport/peer.hpp"
#include "transport/peer_quota.hpp"
#include "transport/sim_network.hpp"
#include "transport/socket_transport.hpp"
#include "transport_types.hpp"
#include "util/epoch.hpp"
#include "util/error.hpp"
#include "util/interning.hpp"

namespace pti {
namespace {

using conform::CachedVerdict;
using conform::ConformanceCache;
using transport::AssemblyHub;
using transport::AsyncTransport;
using transport::CodeRequest;
using transport::ErrorReply;
using transport::Message;
using transport::Peer;
using transport::PeerQuotaConfig;
using transport::PeerQuotaTable;
using transport::PushAck;
using transport::SimNetwork;
using transport::SocketTransport;
using transport::SocketTransportConfig;
using transport::TypeInfoRequest;
using util::EpochManager;
using util::InternedName;
using util::SymbolTable;

// --- EpochManager ------------------------------------------------------------

TEST(EpochManager, ReclaimsImmediatelyWhenUnpinned) {
  EpochManager em;
  bool deleted = false;
  em.retire(&deleted, [](void* p) { *static_cast<bool*>(p) = true; });
  EXPECT_EQ(em.retired_count(), 1u);
  EXPECT_TRUE(em.quiescent());
  EXPECT_EQ(em.try_reclaim(), 1u);
  EXPECT_TRUE(deleted);
  EXPECT_EQ(em.retired_count(), 0u);
  EXPECT_EQ(em.reclaimed_total(), 1u);
}

TEST(EpochManager, PinDefersReclamation) {
  EpochManager em;
  bool deleted = false;
  {
    const EpochManager::Pin pin(em);
    EXPECT_FALSE(em.quiescent());
    // Retired while a pin from the same epoch is live: must survive.
    em.retire(&deleted, [](void* p) { *static_cast<bool*>(p) = true; });
    EXPECT_EQ(em.try_reclaim(), 0u);
    EXPECT_FALSE(deleted);
  }
  EXPECT_TRUE(em.quiescent());
  EXPECT_EQ(em.try_reclaim(), 1u);
  EXPECT_TRUE(deleted);
}

TEST(EpochManager, LaterPinDoesNotProtectEarlierRetire) {
  EpochManager em;
  bool deleted = false;
  em.retire(&deleted, [](void* p) { *static_cast<bool*>(p) = true; });
  em.advance();
  // This pin was taken AFTER the retire's epoch, so it cannot be holding
  // a reference to the retired object.
  const EpochManager::Pin pin(em);
  EXPECT_EQ(em.try_reclaim(), 1u);
  EXPECT_TRUE(deleted);
}

TEST(EpochManager, SlotsAreRecycledAcrossThreads) {
  EpochManager em;
  // Hundreds of short-lived pinning threads must not leak slots: the
  // Treiber free stack hands the same slots back out.
  for (int round = 0; round < 100; ++round) {
    std::thread([&em] { const EpochManager::Pin pin(em); }).join();
  }
  EXPECT_TRUE(em.quiescent());
  int n = 0;
  em.retire(&n, [](void*) {});
  EXPECT_EQ(em.try_reclaim(), 1u);
}

// --- SymbolTable eviction / hard cap ----------------------------------------

TEST(SymbolTableGovernance, EvictsOnlyColdNames) {
  SymbolTable table;
  EpochManager em;
  const InternedName cold = table.intern("governance.cold");
  const InternedName hot = table.intern("governance.hot");
  table.advance_tick();
  table.advance_tick();
  // Touch `hot` after the ticks so only `cold` is idle.
  EXPECT_EQ(table.find("governance.hot"), hot);
  EXPECT_EQ(table.evict_cold(em, 2, 100), 1u);
  EXPECT_FALSE(table.find("governance.cold").valid());
  EXPECT_TRUE(table.folded(cold).empty());
  EXPECT_EQ(table.hash(cold), 0u);
  EXPECT_EQ(table.find("governance.hot"), hot);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_GE(em.try_reclaim(), 1u);  // the retired folded string
}

TEST(SymbolTableGovernance, InUseVetoBlocksEviction) {
  SymbolTable table;
  EpochManager em;
  const InternedName pinned = table.intern("governance.pinned");
  table.advance_tick();
  table.advance_tick();
  EXPECT_EQ(table.evict_cold(em, 1, 100,
                             [&](InternedName id) { return id == pinned; }),
            0u);
  EXPECT_EQ(table.find("governance.pinned"), pinned);
}

TEST(SymbolTableGovernance, EvictedSlotsAreRecycled) {
  SymbolTable table;
  EpochManager em;
  const auto shard_of = [](std::string_view name) {
    const std::uint64_t h = util::fold_hash(name);
    return (h ^ (h >> 32)) & 15u;
  };
  const std::string first = "governance.recycle.me";
  // Recycling is per shard, so the successor must fold into the same one.
  std::string second;
  for (int i = 0;; ++i) {
    second = "governance.recycled." + std::to_string(i);
    if (shard_of(second) == shard_of(first)) break;
  }
  const InternedName old_id = table.intern(first);
  table.advance_tick();
  ASSERT_EQ(table.evict_cold(em, 1, 1), 1u);
  // The next same-shard intern reuses the slot: the id VALUE repeats, but
  // it now means the new name — which is exactly why long-lived
  // structures must veto eviction of ids they hold.
  const InternedName fresh = table.intern(second);
  EXPECT_EQ(fresh, old_id);
  EXPECT_EQ(table.folded(fresh), util::to_lower(second));
  EXPECT_EQ(table.size(), 1u);
  (void)em.try_reclaim();
}

TEST(SymbolTableGovernance, MaxEvictBoundsOneSweep) {
  SymbolTable table;
  EpochManager em;
  for (int i = 0; i < 64; ++i) {
    (void)table.intern("governance.bulk." + std::to_string(i));
  }
  table.advance_tick();
  EXPECT_EQ(table.evict_cold(em, 1, 10), 10u);
  EXPECT_EQ(table.size(), 54u);
  (void)em.try_reclaim();
}

TEST(SymbolTableGovernance, ShardCapThrowsClassifiedResourceExhausted) {
  SymbolTable table;
  // Fill ONE shard to its 256K-slot cap: generate names and keep those
  // whose folded hash lands in shard 0 (mirrors the internal placement:
  // xor-folded FNV & (16 - 1)). Filtering keeps this to ~256K interns
  // instead of ~4M.
  const auto shard_of = [](std::string_view name) {
    const std::uint64_t h = util::fold_hash(name);
    return (h ^ (h >> 32)) & 15u;
  };
  constexpr std::uint32_t kShardCap = 256u * 1024u;
  std::uint32_t interned = 0;
  std::uint64_t i = 0;
  try {
    while (interned <= kShardCap) {
      const std::string name = "capfill." + std::to_string(i++);
      if (shard_of(name) != 0) continue;
      (void)table.intern(name);
      ++interned;
    }
    FAIL() << "shard cap did not throw";
  } catch (const pti::ResourceExhaustedError& e) {
    EXPECT_EQ(interned, kShardCap);
    // The classification layer maps it to ErrorCode::ResourceExhausted —
    // NOT std::length_error or a generic internal error.
    try {
      throw;
    } catch (...) {
      const core::Error error = core::Error::from_current_exception();
      EXPECT_EQ(error.code, core::ErrorCode::ResourceExhausted);
    }
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
}

// --- ConformanceCache eviction ----------------------------------------------

class CacheGovernanceTest : public ::testing::Test {
 protected:
  [[nodiscard]] static ConformanceCache::Key key_of(std::string_view source,
                                                    std::string_view target) {
    SymbolTable& symbols = SymbolTable::global();
    return {symbols.intern(source), symbols.intern(target), 7u};
  }

  void insert(const ConformanceCache::Key& key, bool conformant) {
    cache_.insert(key.source, key.target, key.options_fingerprint,
                  CachedVerdict{conformant, {}});
  }

  [[nodiscard]] const CachedVerdict* lookup(const ConformanceCache::Key& key) {
    return cache_.lookup(key.source, key.target, key.options_fingerprint);
  }

  ConformanceCache cache_;
  EpochManager em_;
};

TEST_F(CacheGovernanceTest, EvictColdRemovesOnlyIdleEntries) {
  const auto cold = key_of("cachegov.cold.src", "cachegov.cold.dst");
  const auto hot = key_of("cachegov.hot.src", "cachegov.hot.dst");
  insert(cold, true);
  insert(hot, false);
  cache_.advance_tick();
  cache_.advance_tick();
  ASSERT_NE(lookup(hot), nullptr);  // stamps hot at the current tick
  const std::size_t evicted = cache_.evict_cold(em_, 2, 100);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(lookup(cold), nullptr);
  ASSERT_NE(lookup(hot), nullptr);
  EXPECT_FALSE(lookup(hot)->conformant);
  EXPECT_EQ(cache_.stats().evictions, 1u);
  (void)em_.try_reclaim();
}

TEST_F(CacheGovernanceTest, EpochClearEmptiesEverything) {
  const auto a = key_of("cachegov.clear.a", "cachegov.clear.b");
  const auto b = key_of("cachegov.clear.c", "cachegov.clear.d");
  insert(a, true);
  insert(b, true);
  cache_.clear(em_);
  EXPECT_EQ(lookup(a), nullptr);
  EXPECT_EQ(lookup(b), nullptr);
  EXPECT_EQ(cache_.stats().evictions, 2u);
  EXPECT_GE(em_.try_reclaim(), 2u);
}

TEST_F(CacheGovernanceTest, PinnedVerdictSurvivesEviction) {
  const auto key = key_of("cachegov.pin.src", "cachegov.pin.dst");
  insert(key, true);
  const EpochManager::Pin pin(em_);
  const CachedVerdict* held = lookup(key);
  ASSERT_NE(held, nullptr);
  cache_.advance_tick();
  cache_.advance_tick();
  EXPECT_EQ(cache_.evict_cold(em_, 1, 100), 1u);
  EXPECT_EQ(lookup(key), nullptr);  // unreachable for NEW readers...
  EXPECT_EQ(em_.try_reclaim(), 0u);  // ...but not freed under our pin
  EXPECT_TRUE(held->conformant);     // still safely dereferenceable
}

// --- PeerQuotaTable ----------------------------------------------------------

TEST(PeerQuota, DisabledTableAdmitsEverything) {
  PeerQuotaTable table;
  EXPECT_FALSE(table.enabled());
  table.set_default({});  // no limits -> still disabled
  EXPECT_FALSE(table.enabled());
}

TEST(PeerQuota, FrameSizeCapRejects) {
  PeerQuotaTable table;
  PeerQuotaConfig config;
  config.max_frame_bytes = 100;
  table.set_default(config);
  EXPECT_TRUE(table.enabled());
  EXPECT_NO_THROW(table.admit_frame("mallory", 100, 0));
  EXPECT_THROW(table.admit_frame("mallory", 101, 0), pti::ResourceExhaustedError);
  EXPECT_EQ(table.stats().rejected_frame_size, 1u);
}

TEST(PeerQuota, TokenBucketRefillsOverTime) {
  PeerQuotaTable table;
  PeerQuotaConfig config;
  config.bytes_per_sec = 1000;  // bucket depth defaults to the rate
  table.set_default(config);
  EXPECT_NO_THROW(table.admit_frame("mallory", 1000, 0));
  EXPECT_THROW(table.admit_frame("mallory", 600, 0), pti::ResourceExhaustedError);
  EXPECT_EQ(table.stats().rejected_rate, 1u);
  // Half a (virtual) second refills 500 bytes.
  EXPECT_NO_THROW(table.admit_frame("mallory", 500, 500'000'000));
  EXPECT_THROW(table.admit_frame("mallory", 1, 500'000'000),
               pti::ResourceExhaustedError);
  // A rejected frame consumes nothing: the 500 bytes accrued by the next
  // half second are all still available.
  EXPECT_NO_THROW(table.admit_frame("mallory", 500, 1'000'000'000));
}

TEST(PeerQuota, BurstBytesSetsBucketDepth) {
  PeerQuotaTable table;
  PeerQuotaConfig config;
  config.bytes_per_sec = 10;
  config.burst_bytes = 5000;
  table.set_default(config);
  EXPECT_NO_THROW(table.admit_frame("mallory", 5000, 0));
  // The bucket never refills past its depth.
  EXPECT_THROW(table.admit_frame("mallory", 5001, 3'600'000'000'000ULL),
               pti::ResourceExhaustedError);
}

TEST(PeerQuota, InflightGuardReleasesSlot) {
  PeerQuotaTable table;
  PeerQuotaConfig config;
  config.max_inflight = 2;
  table.set_default(config);
  auto a = table.acquire_inflight("mallory");
  auto b = table.acquire_inflight("mallory");
  EXPECT_THROW((void)table.acquire_inflight("mallory"), pti::ResourceExhaustedError);
  EXPECT_EQ(table.stats().rejected_inflight, 1u);
  {
    PeerQuotaTable::InflightGuard c = std::move(a);  // slot travels with the move
    EXPECT_THROW((void)table.acquire_inflight("mallory"),
                 pti::ResourceExhaustedError);
  }
  EXPECT_NO_THROW((void)table.acquire_inflight("mallory"));
}

TEST(PeerQuota, NameBudgetIsCumulative) {
  PeerQuotaTable table;
  PeerQuotaConfig config;
  config.max_new_names = 10;
  table.set_default(config);
  EXPECT_NO_THROW(table.charge_new_names("mallory", 6));
  EXPECT_NO_THROW(table.charge_new_names("mallory", 4));
  EXPECT_THROW(table.charge_new_names("mallory", 1), pti::ResourceExhaustedError);
  EXPECT_EQ(table.stats().rejected_names, 1u);
  // A rejected charge consumes nothing; zero-count charges always pass.
  EXPECT_NO_THROW(table.charge_new_names("mallory", 0));
  // Budgets are per peer.
  EXPECT_NO_THROW(table.charge_new_names("honest", 10));
}

TEST(PeerQuota, PerPeerOverrideBeatsDefault) {
  PeerQuotaTable table;
  PeerQuotaConfig generous;
  generous.max_frame_bytes = 1000;
  PeerQuotaConfig strict;
  strict.max_frame_bytes = 10;
  table.set_default(generous);
  table.set_quota("MALLORY", strict);  // case-insensitive, like endpoint maps
  EXPECT_THROW(table.admit_frame("mallory", 11, 0), pti::ResourceExhaustedError);
  EXPECT_NO_THROW(table.admit_frame("honest", 11, 0));
}

TEST(PeerQuota, IdentityFloodSharesOverflowBucket) {
  PeerQuotaTable table;
  PeerQuotaConfig config;
  config.max_new_names = 5;
  table.set_default(config);
  table.set_max_tracked_peers(2);
  table.charge_new_names("peer-a", 1);
  table.charge_new_names("peer-b", 1);
  EXPECT_EQ(table.tracked_peers(), 2u);
  // Every identity past the cap shares ONE budget: a flood of fresh names
  // starves itself, not the table.
  EXPECT_NO_THROW(table.charge_new_names("flood-1", 3));
  EXPECT_NO_THROW(table.charge_new_names("flood-2", 2));
  EXPECT_THROW(table.charge_new_names("flood-3", 1), pti::ResourceExhaustedError);
  EXPECT_EQ(table.tracked_peers(), 2u);
}

// --- Quota enforcement at the transport seam ---------------------------------

/// What one quota-refused request costs in NetStats and virtual time. The
/// in-process transports run admission before any charge. On
/// SocketTransport the requester charges the request when it writes it, and
/// the serving side refuses it after it crossed the wire; charging it there
/// instead would let a request the link model drops put bytes on the wire
/// (see SocketTransport.DropProbabilityDropsBeforeAnyByteMoves).
template <class T>
struct RefusedRequestCharge {
  static constexpr std::uint64_t messages = 0;
  static constexpr std::uint64_t bytes = 0;
  static constexpr std::uint64_t clock_ns = 0;
};
template <>
struct RefusedRequestCharge<SocketTransport> {
  static constexpr std::uint64_t messages = 1;
  static constexpr std::uint64_t bytes = 40;  // the request's wire_size()
  static constexpr std::uint64_t clock_ns = 1'003'200;  // 1 ms + 40 B at 100 Mbit/s
};

template <class T>
class TransportQuotaRefusal : public ::testing::Test {};
TYPED_TEST_SUITE(TransportQuotaRefusal, testing_support::AllTransports,
                 testing_support::TransportName);

TYPED_TEST(TransportQuotaRefusal, OversizedFrameIsRefusedAlike) {
  TypeParam net;
  std::atomic<int> handled{0};
  net.attach("server", [&handled](const Message& m) {
    ++handled;
    return Message{"server", m.sender, PushAck{true, "ok"}};
  });
  PeerQuotaConfig config;
  config.max_frame_bytes = 32;
  net.set_default_peer_quota(config);
  const Message oversized{"mallory", "server", CodeRequest{"a-code-request"}};
  ASSERT_EQ(oversized.wire_size(), RefusedRequestCharge<SocketTransport>::bytes);

  const std::uint64_t messages = net.stats().messages;
  const std::uint64_t bytes = net.stats().bytes;
  const std::uint64_t clock_ns = net.clock().now_ns();
  // Every transport refuses with the same class; SocketTransport's refusal
  // crosses back as an unforgeable "resource|" fault frame and is re-raised.
  try {
    (void)net.send(oversized);
    FAIL() << "quota violation did not surface";
  } catch (const pti::ResourceExhaustedError& e) {
    EXPECT_NE(std::string(e.what()).find("mallory"), std::string::npos) << e.what();
  }
  ASSERT_NE(net.peer_quotas(), nullptr);
  EXPECT_EQ(net.peer_quotas()->stats().rejected_frame_size, 1u);
  EXPECT_EQ(handled.load(), 0);
  EXPECT_EQ(net.stats().messages - messages, RefusedRequestCharge<TypeParam>::messages);
  EXPECT_EQ(net.stats().bytes - bytes, RefusedRequestCharge<TypeParam>::bytes);
  EXPECT_EQ(net.clock().now_ns() - clock_ns, RefusedRequestCharge<TypeParam>::clock_ns);

  // The future form fails with the same class.
  auto future = net.send_async(oversized);
  EXPECT_THROW((void)future.get(), pti::ResourceExhaustedError);
  EXPECT_EQ(net.peer_quotas()->stats().rejected_frame_size, 2u);
  // A frame within the cap is admitted, and without a quota so is the
  // oversized one.
  EXPECT_NO_THROW((void)net.send(Message{"srv", "server", CodeRequest{"x"}}));
  TypeParam open_net;
  open_net.attach("server", [](const Message& m) {
    return Message{"server", m.sender, PushAck{true, "ok"}};
  });
  EXPECT_NO_THROW((void)open_net.send(oversized));
  EXPECT_EQ(handled.load(), 1);
}

TYPED_TEST(TransportQuotaRefusal, WrappingSimulatedCountsAreRefusedAlike) {
  // Simulated assembly counts are peer-declared u64s, so the size must sum
  // them saturating: modulo 2^64, this push (a 100,000-byte envelope)
  // would measure about 1 KB and pass the cap, and so would the batch,
  // whose entries' counts each fit in 64 bits but whose sum does not.
  TypeParam net;
  std::atomic<int> handled{0};
  net.attach("server", [&handled](const Message& m) {
    ++handled;
    return Message{"server", m.sender, PushAck{true, "ok"}};
  });
  PeerQuotaConfig config;
  config.max_frame_bytes = 4096;
  net.set_default_peer_quota(config);

  transport::ObjectPush push;
  push.envelope.assign(100'000, 0x42);
  push.eager_assembly_bytes = 0 - 99'000ULL;  // 2^64 - 99,000
  transport::SessionBatch batch;
  batch.entries.resize(2);
  for (transport::SessionPush& entry : batch.entries) entry.intro_assembly_bytes = 1ULL << 63;
  for (const Message& hostile :
       {Message{"mallory", "server", push}, Message{"mallory", "server", batch}}) {
    EXPECT_EQ(hostile.wire_size(), std::numeric_limits<std::size_t>::max());
    EXPECT_THROW((void)net.send(hostile), pti::ResourceExhaustedError) << hostile.kind_name();
  }
  ASSERT_NE(net.peer_quotas(), nullptr);
  EXPECT_EQ(net.peer_quotas()->stats().rejected_frame_size, 2u);
  EXPECT_EQ(handled.load(), 0);
}

TEST(TransportQuota, SimNetworkChargesTypeInfoNames) {
  SimNetwork net;
  net.attach("server", [](const Message& m) {
    return Message{"server", m.sender, PushAck{true, "ok"}};
  });
  PeerQuotaConfig config;
  config.max_new_names = 2;
  net.set_default_peer_quota(config);
  TypeInfoRequest flood;
  flood.type_names = {"quota.fresh.Alpha", "quota.fresh.Beta", "quota.fresh.Gamma"};
  EXPECT_THROW((void)net.send(Message{"mallory", "server", std::move(flood)}),
               pti::ResourceExhaustedError);
  TypeInfoRequest small;
  small.type_names = {"quota.fresh.Delta"};
  EXPECT_NO_THROW((void)net.send(Message{"mallory", "server", std::move(small)}));
}

TEST(TransportQuota, RepeatedNamesAreChargedOnce) {
  // The budget counts distinct names: a request repeating one fresh name
  // in three spellings, and a batch whose every entry introduces the same
  // fresh name (as a first window does), are each charged one name.
  SimNetwork net;
  net.attach("server", [](const Message& m) {
    return Message{"server", m.sender, PushAck{true, "ok"}};
  });
  PeerQuotaConfig config;
  config.max_new_names = 2;
  net.set_default_peer_quota(config);

  TypeInfoRequest request;
  request.type_names = {"quota.repeat.Alpha", "QUOTA.REPEAT.ALPHA", "quota.repeat.Alpha"};
  transport::SessionBatch batch;
  for (int i = 0; i < 3; ++i) {
    transport::SessionPush entry;
    entry.intros.push_back({1, "quota.repeat.Beta", "", "", ""});
    batch.entries.push_back(std::move(entry));
  }
  const Message repeated_request{"mallory", "server", request};
  const Message repeated_batch{"mallory", "server", batch};
  EXPECT_EQ(transport::count_new_names(repeated_request), 1u);
  EXPECT_EQ(transport::count_new_names(repeated_batch), 1u);
  EXPECT_NO_THROW((void)net.send(repeated_request));
  EXPECT_NO_THROW((void)net.send(repeated_batch));
  // Both names used the budget up: a third distinct name is refused.
  TypeInfoRequest third;
  third.type_names = {"quota.repeat.Gamma"};
  EXPECT_THROW((void)net.send(Message{"mallory", "server", std::move(third)}),
               pti::ResourceExhaustedError);
}

TEST(TransportQuota, RateLimitRecoversOnVirtualClock) {
  SimNetwork net;
  net.attach("server", [](const Message& m) {
    return Message{"server", m.sender, PushAck{true, "ok"}};
  });
  PeerQuotaConfig config;
  config.bytes_per_sec = 100;  // one 66-byte request fits, two do not
  net.set_default_peer_quota(config);
  const Message request{"mallory", "server", CodeRequest{std::string(40, 'x')}};
  ASSERT_EQ(request.wire_size(), 66u);
  (void)net.send(request);  // drains most of the bucket
  EXPECT_THROW((void)net.send(request), pti::ResourceExhaustedError);
  // The bucket refills on the transport's virtual clock.
  net.clock().advance_ns(2'000'000'000ULL);
  EXPECT_NO_THROW((void)net.send(request));
}

// --- Peer-level classification ----------------------------------------------

TEST(PeerGovernance, ResourceReplyRethrownTyped) {
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  Peer client("client", net, hub);
  // A serving peer that hits a quota mid-handling answers with an in-band
  // classified ErrorReply; the pushing side must rethrow it typed, not as
  // a generic ProtocolError.
  net.attach("server", [](const Message& m) {
    return Message{"server", m.sender,
                   ErrorReply{"resource-exhausted: name budget exhausted"}};
  });
  client.host_assembly(fixtures::team_a_people());
  const reflect::Value args[] = {reflect::Value("Alice")};
  auto object = client.domain().instantiate("teamA.Person", args);
  EXPECT_THROW((void)client.send_object("server", object),
               pti::ResourceExhaustedError);
}

TEST(PeerGovernance, EagerDescriptionsCrossTheRegistryBoundary) {
  // Eagerly shipped descriptions are registered like fetched ones: only
  // after the envelope parsed, and only within the sender's distinct-name
  // budget. A refused push registers nothing.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  Peer receiver("receiver", net, hub);
  receiver.host_assembly(fixtures::team_b_people());
  receiver.add_interest("teamB.Person");
  PeerQuotaConfig budget;
  budget.max_new_names = 2;
  net.set_peer_quota("sender", budget);
  const std::size_t types_before = receiver.domain().registry().size();

  transport::ObjectPush garbage;
  garbage.envelope = {0x00};
  for (int i = 0; i < 10; ++i) {
    garbage.eager_descriptions_xml.push_back(serial::type_description_to_string(
        reflect::introspect(*reflect::TypeBuilder("eagerq", "T" + std::to_string(i))
                                 .field("id", "int32")
                                 .build())));
  }
  const Message reply = net.send(Message{"sender", "receiver", std::move(garbage)});
  EXPECT_TRUE(std::holds_alternative<ErrorReply>(reply.payload)) << reply.kind_name();
  EXPECT_EQ(receiver.domain().registry().size(), types_before);

  // An honest eager push whose description closure exceeds the budget is
  // refused typed, before any of it registers.
  transport::PeerConfig eager;
  eager.mode = transport::ProtocolMode::Eager;
  Peer sender("sender", net, hub, eager);
  sender.host_assembly(fixtures::team_a_people());
  const reflect::Value args[] = {reflect::Value("Ada")};
  EXPECT_THROW(
      (void)sender.send_object("receiver", sender.domain().instantiate("teamA.Person", args)),
      pti::ResourceExhaustedError);
  EXPECT_EQ(receiver.domain().registry().size(), types_before);
  EXPECT_EQ(receiver.delivered_count(), 0u);

  // Within budget, the same push delivers.
  net.set_peer_quota("sender", PeerQuotaConfig{});
  EXPECT_TRUE(
      sender.send_object("receiver", sender.domain().instantiate("teamA.Person", args))
          .delivered);
}

// --- TypeRegistry::references ------------------------------------------------

TEST(RegistryReferences, CoversQualifiedAndSimpleIds) {
  reflect::TypeRegistry registry;
  registry.add(reflect::introspect(
      *reflect::TypeBuilder("refgov", "Widget").field("id", "int32").build()));
  SymbolTable& symbols = SymbolTable::global();
  EXPECT_TRUE(registry.references(symbols.find("refgov.Widget")));
  EXPECT_TRUE(registry.references(symbols.find("Widget")));  // simple-name index
  EXPECT_FALSE(registry.references(symbols.intern("refgov.NeverRegistered")));
  EXPECT_FALSE(registry.references(InternedName{}));
}

// --- ResourceGovernor --------------------------------------------------------

TEST(ResourceGovernor, SweepEvictsTransientsButNeverRegistryNames) {
  core::ResourceGovernor governor({.min_idle_ticks = 1, .max_evict_per_sweep = 64});
  reflect::TypeRegistry registry;
  registry.add(reflect::introspect(
      *reflect::TypeBuilder("governed", "Kept").field("id", "int32").build()));
  governor.watch(registry);
  SymbolTable& symbols = SymbolTable::global();
  const InternedName kept = symbols.find("governed.Kept");
  ASSERT_TRUE(kept.valid());
  (void)symbols.intern("governed.transient.name");
  const std::size_t before = symbols.size();
  // Two sweeps age the transient past min_idle_ticks and evict it.
  (void)governor.sweep();
  core::SweepReport report = governor.sweep();
  for (int i = 0; i < 4 && symbols.find("governed.transient.name").valid(); ++i) {
    report = governor.sweep();  // other suites' leftovers may fill the cap
  }
  EXPECT_FALSE(symbols.find("governed.transient.name").valid());
  EXPECT_EQ(symbols.find("governed.Kept"), kept);
  EXPECT_EQ(symbols.folded(kept), "governed.kept");
  EXPECT_LT(symbols.size(), before);
  EXPECT_GE(governor.sweeps(), 2u);
  EXPECT_GT(report.epoch, 0u);
}

TEST(ResourceGovernor, SweepEvictsColdCacheEntries) {
  core::ResourceGovernor governor({.min_idle_ticks = 2, .max_evict_per_sweep = 64});
  ConformanceCache cache;
  governor.watch(cache);
  SymbolTable& symbols = SymbolTable::global();
  cache.insert(symbols.intern("govcache.src"), symbols.intern("govcache.dst"), 1,
               CachedVerdict{true, {}});
  (void)governor.sweep();
  (void)governor.sweep();
  const core::SweepReport report = governor.sweep();
  EXPECT_GE(report.cache_evicted + cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(symbols.find("govcache.src"), symbols.find("govcache.dst"), 1),
            nullptr);
}

TEST(ResourceGovernor, AddVetoProtectsExternalHolders) {
  core::ResourceGovernor governor({.min_idle_ticks = 1, .max_evict_per_sweep = 256});
  SymbolTable& symbols = SymbolTable::global();
  const InternedName held = symbols.intern("govveto.held.elsewhere");
  governor.add_veto([held](InternedName id) { return id == held; });
  for (int i = 0; i < 6; ++i) (void)governor.sweep();
  EXPECT_EQ(symbols.find("govveto.held.elsewhere"), held);
}

TEST(ResourceGovernor, BackgroundSweeperStartsAndStops) {
  core::ResourceGovernor governor;
  governor.start(std::chrono::milliseconds(1));
  governor.start(std::chrono::milliseconds(1));  // idempotent
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (governor.sweeps() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(governor.sweeps(), 0u);
  governor.stop();
  governor.stop();  // idempotent
}

}  // namespace
}  // namespace pti
