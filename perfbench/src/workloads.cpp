#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include <sys/resource.h>
#include <unistd.h>

#include "core/interop.hpp"
#include "fixtures/sample_types.hpp"
#include "reflect/dyn_object.hpp"
#include "reflect/value.hpp"
#include "serial/frame_codec.hpp"
#include "sim/scenario.hpp"
#include "trace.hpp"
#include "tracing_transport.hpp"
#include "transport/socket_transport.hpp"
#include "util/interning.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace pti::perfbench {

namespace {

using core::InteropRuntime;
using reflect::Value;

/// One closed-loop client per socket workload. A client keeps about three
/// threads busy (itself, an outbound worker, a reader); two clients on a
/// small shared host left no idle core, and their tail latencies then
/// doubled whenever another tenant took CPU time.
constexpr std::size_t kClients = 1;
/// Outbound workers of the SocketTransport (its default is 2). In
/// alternating runs on a 4-vCPU shared host, one worker cut the run-to-run
/// spread of every timing by about half on both socket workloads: with two,
/// an unbatched cold_mix window keeps two exchanges and their reader
/// threads in flight, and which idle worker takes a batched warm_session
/// window varies.
constexpr std::size_t kAsyncWorkers = 1;
/// A window is exactly one batching window, so each one flushes as one
/// SessionBatch frame under sessions.
constexpr std::size_t kWindow = 16;
/// cold_mix re-pushes draw from each client's most recent types.
constexpr std::size_t kRecent = 16;
/// Interest widths, declared widest first: a sender type of width w
/// conforms to every narrower interest, so the first match is width w.
constexpr std::array<std::size_t, 4> kWidths = {32, 16, 8, 4};
/// cold_mix sends one window after every this many sync pushes.
constexpr std::uint64_t kColdWindowEvery = 16;
/// Push ids: client + 1 above kLocalBits, the client's push index below.
constexpr std::uint32_t kLocalBits = 26;
constexpr std::uint32_t kLocalMask = (1u << kLocalBits) - 1;
/// Per-layer counts that must repeat exactly for a seed are taken over
/// each client's first kPrefixPushes pushes, which the seed fixes.
constexpr std::uint32_t kPrefixPushes = 2048;
constexpr std::size_t kSpanCapacity = std::size_t{3} << 20;
constexpr std::size_t kSetupRepeats = 15;
constexpr std::size_t kMinStormCycles = 3;
/// The timed phase is cut into slices of about this length; rates and
/// latency percentiles are the median over slices, so a burst of
/// interference from other processes moves a few slices, not the result.
constexpr double kSliceSeconds = 1.0;
constexpr std::size_t kMinSlices = 10;
/// An untimed run of the client loop before the timed phase. The first
/// second or two of a socket run was often faster than the rest (threads
/// settling onto CPUs), which moved short runs' medians.
constexpr double kWarmupSeconds = 2.0;
constexpr double kCalmStealTicks = 2.0;
/// Resident memory is sampled once this many pushes have completed: on
/// cold_mix memory grows with every first contact, so a peak taken at the
/// end of a fixed-time run would grow with throughput.
constexpr std::uint64_t kRssAtPushes = 40'000;
/// A delivery is verified field by field when its stamp hashes into 1 in 8.
constexpr std::uint64_t kVerifyMask = 7;

using Catalogue = std::vector<std::pair<std::string, std::string>>;

std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  const std::size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// CPU time the hypervisor has taken from this machine's CPUs, in clock
/// ticks summed over CPUs: the steal column of /proc/stat. 0 where the
/// file cannot be read, which makes every slice and cycle look alike.
std::uint64_t steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  std::array<std::uint64_t, 8> fields{};  // user nice system idle iowait irq softirq steal
  if (!(stat >> label) || label != "cpu") return 0;
  for (std::uint64_t& field : fields) {
    if (!(stat >> field)) return 0;
  }
  return fields[7];
}

std::size_t slice_count(double seconds) {
  return std::max(kMinSlices, static_cast<std::size_t>(std::lround(seconds / kSliceSeconds)));
}

/// Which samples (time slices or storm cycles) the timings use: those that
/// lost no more CPU time to the host than the sample at the first quartile
/// of steal. On a shared host, bursts of steal stall a socket push's
/// hand-off chain for whole milliseconds and halved cold_mix's rate for
/// tens of seconds at a time, and a burst often covers more than half a
/// run; at least a quarter of the samples always remain. A sample
/// (about a second) that lost at most kCalmStealTicks (20 ms of CPU time
/// over all CPUs) always counts as calm.
std::vector<bool> calm_samples(const std::vector<std::uint64_t>& steal) {
  std::vector<double> values(steal.begin(), steal.end());
  const double cut = std::max(kCalmStealTicks, percentile(values, 0.25));
  std::vector<bool> keep;
  for (const std::uint64_t s : steal) keep.push_back(static_cast<double>(s) <= cut);
  return keep;
}

std::string join_values(const char* label, const std::vector<double>& values) {
  std::string line = label;
  char value[32];
  for (const double v : values) {
    std::snprintf(value, sizeof value, " %.5g", v);
    line += value;
  }
  return line;
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return peak_rss_mb();
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Metric catalogue: every run reports every name, in this order.

const Catalogue& end_to_end_catalogue() {
  static const Catalogue names = {
      {"pushes_per_s", "1/s"}, {"push_p50_us", "us"},   {"push_p90_us", "us"},
      {"window_p50_us", "us"}, {"window_p90_us", "us"}, {"bytes_per_push", "B"},
      {"setup_s", "s"},        {"rss_mb", "MB"},
  };
  return names;
}

const Catalogue& per_layer_catalogue() {
  static const Catalogue names = [] {
    Catalogue out = {
        {"core.send_async_call_us", "us"},
        {"core.dispatch_per_delivery", "ratio"},
        {"first_contact_p50_us", "us"},
        {"first_contact_p90_us", "us"},
    };
    for (std::size_t k = 0; k < kMsgKinds; ++k) {
      const std::string kind = msg_kind_name(static_cast<MsgKind>(k));
      out.emplace_back("transport." + kind + ".exchanges_per_push", "ratio");
      out.emplace_back("transport." + kind + ".exchange_us", "us");
      out.emplace_back("transport." + kind + ".handler_self_us", "us");
      out.emplace_back("transport." + kind + ".wire_us", "us");
    }
    const Catalogue seam = {
        {"transport.push.handler_self_us.first_contact", "us"},
        {"transport.push.handler_self_us.repush", "us"},
        {"transport.sender_self_us", "us"},
        {"transport.frames_per_push", "ratio"},
        {"transport.wire_bytes_per_push", "B"},
        {"transport.connections_dialed", "count"},
        {"transport.quota_rejections", "count"},
    };
    out.insert(out.end(), seam.begin(), seam.end());
    for (std::size_t k = 0; k < kMsgKinds; ++k) {
      out.emplace_back(
          std::string("serial.frame_codec_us.") + msg_kind_name(static_cast<MsgKind>(k)),
          "us");
    }
    const Catalogue rest = {
        {"peer.reject_rate", "ratio"},
        {"peer.typeinfo_requests_per_push", "ratio"},
        {"peer.code_requests_per_push", "ratio"},
        {"peer.typeinfo_hit_rate", "ratio"},
        {"peer.code_hit_rate", "ratio"},
        {"session.verdict_hit_rate", "ratio"},
        {"session.entries_per_batch", "ratio"},
        {"session.intros_per_push", "ratio"},
        {"session.intro_skips", "count"},
        {"session.resets", "count"},
        {"session.retries", "count"},
        {"conform.checks_per_push", "ratio"},
        {"conform.misses_per_push", "ratio"},
        {"conform.cache_hit_rate", "ratio"},
        {"reflect.registry_types", "ratio"},
        {"util.interned_names", "ratio"},
        {"sim.bringup_s", "s"},
        {"sim.run_s", "s"},
        {"sim.targets_per_publish", "ratio"},
        {"sim.net_msgs_per_delivery", "ratio"},
        {"sim.entries_per_batch_frame", "ratio"},
        {"sim.index_entries", "count"},
        {"sim.drops", "count"},
        {"sim.typeinfo_requests_per_delivery", "ratio"},
        {"sim.code_requests_per_delivery", "ratio"},
        {"trace.overhead_pct", "%"},
        {"trace.reconcile_err_pct", "%"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  }();
  return names;
}

/// Emits `values` in catalogue order. A per-layer name a workload does not
/// measure reads 0 (every transport.* metric on storm); a missing
/// end-to-end metric or an uncatalogued name is a bug.
std::vector<Metric> emit(const Catalogue& catalogue, const std::map<std::string, double>& values,
                         bool all_required) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : catalogue) {
    const auto it = values.find(name);
    if (it == values.end() && all_required) {
      throw std::logic_error("metric " + name + " was not measured");
    }
    out.push_back(Metric{name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const auto& entry : values) {
    const bool known = std::any_of(catalogue.begin(), catalogue.end(),
                                   [&](const auto& c) { return c.first == entry.first; });
    if (!known) throw std::logic_error("metric " + entry.first + " is not in the catalogue");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Payloads. f0 carries a random stamp and every other field derives from
// it, so a receiver can verify any delivered object without knowing which
// push carried it.

const std::string& field_name(std::size_t i) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (std::size_t k = 0; k < kWidths.front(); ++k) out.push_back("f" + std::to_string(k));
    return out;
  }();
  return names[i];
}

const std::string& getter_name(std::size_t i) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (std::size_t k = 0; k < kWidths.front(); ++k) {
      out.push_back("getF" + std::to_string(k));
    }
    return out;
  }();
  return names[i];
}

/// fixtures::wide_type gives even fields int32 and odd fields string.
Value field_value(std::int32_t stamp, std::size_t i) {
  if (i == 0) return Value(stamp);
  const std::uint64_t h = mix64((std::uint64_t{static_cast<std::uint32_t>(stamp)} << 8) | i);
  if (i % 2 == 0) return Value(static_cast<std::int32_t>(h & 0x7fffffff));
  return Value("v" + std::to_string(h % 100'000'000));
}

/// What the subscription callbacks of one universe share.
struct DeliveryCheck {
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;
  std::atomic<std::uint64_t> dispatched{0};
  std::atomic<std::uint64_t> verified{0};
  std::atomic<std::uint64_t> corrupt{0};
};

void on_delivery(InteropRuntime& receiver, std::size_t width, DeliveryCheck& check,
                 const transport::DeliveredObject& delivered) {
  const Scope span(check.tracer, SpanKind::Dispatch);
  check.dispatched.fetch_add(1, std::memory_order_relaxed);
  try {
    const std::int32_t stamp = receiver.call(delivered.adapted, getter_name(0)).as_int32();
    if ((mix64(static_cast<std::uint32_t>(stamp) ^ check.seed) & kVerifyMask) != 0) return;
    check.verified.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 1; i < std::min<std::size_t>(width, 4); ++i) {
      const Value got = receiver.call(delivered.adapted, getter_name(i));
      const Value want = field_value(stamp, i);
      const bool same = i % 2 == 0 ? got.as_int32() == want.as_int32()
                                   : got.as_string() == want.as_string();
      if (!same) {
        check.corrupt.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  } catch (const std::exception&) {
    check.corrupt.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Socket universes.

enum class Kind : std::uint8_t { ColdMix, WarmSession };

struct SenderType {
  core::TypeHandle handle;
  std::size_t width = 0;
  bool conformant = true;
  std::string expected;  ///< the interest a conformant push must match
};

struct Pair {
  InteropRuntime* sender = nullptr;
  InteropRuntime* receiver = nullptr;
  std::string to;
  std::vector<SenderType> types;
  std::deque<std::size_t> recent;  ///< cold_mix: indexes of the newest types
  /// Namespace prefix of the sender's types. Interned names outlive a
  /// universe, so two phases in one process use distinct names: the
  /// second would otherwise find every first-contact name interned.
  std::string type_prefix;
};

struct Universe {
  transport::SocketTransport* socket = nullptr;
  TracingTransport* traced = nullptr;  ///< set in a traced universe only
  std::unique_ptr<core::InteropSystem> system;
  std::array<Pair, kClients> pairs;
};

transport::PeerConfig peer_config(Kind kind) {
  transport::PeerConfig config;
  config.retain_delivered = false;
  if (kind == Kind::WarmSession) {
    config.payload_encoding = "binary";
    config.use_sessions = true;
    config.session.max_batch = kWindow;
  }
  return config;
}

SenderType publish_type(Pair& pair, std::size_t client, std::size_t serial, std::size_t width,
                        bool conformant) {
  // Every interest is named Event, so an Other type fails the name aspect
  // against all of them and is rejected without a code download.
  const std::string ns =
      pair.type_prefix + "c" + std::to_string(client) + "t" + std::to_string(serial);
  const auto handles = pair.sender->publish_assembly(
      fixtures::wide_type(ns, conformant ? "Event" : "Other", width, width));
  return SenderType{handles.front(), width, conformant,
                    "rc" + std::to_string(client) + "w" + std::to_string(width) + ".Event"};
}

std::shared_ptr<reflect::DynObject> make_object(const Pair& pair, const SenderType& type,
                                                std::int32_t stamp) {
  auto object = pair.sender->make(type.handle);
  for (std::size_t i = 0; i < type.width; ++i) object->set(field_name(i), field_value(stamp, i));
  return object;
}

std::int32_t draw_stamp(util::Rng& rng) {
  return static_cast<std::int32_t>(rng.next_u64() & 0x7fffffff);
}

bool verdict_ok(const SenderType& type, const transport::PushAck& ack) {
  if (ack.delivered != type.conformant) return false;
  return !type.conformant || util::iequals(ack.detail, type.expected);
}

std::size_t pick_type(const Pair& pair, Kind kind, util::Rng& rng) {
  if (kind == Kind::ColdMix) return pair.recent[rng.next_below(pair.recent.size())];
  return rng.next_below(pair.types.size());
}

/// Introduces each client's starting types: cold_mix's first 16 recent
/// types, or warm_session's whole pool plus two windows to warm batching.
void warm_up(Universe& u, Kind kind, std::uint64_t seed) {
  for (std::size_t c = 0; c < kClients; ++c) {
    Pair& pair = u.pairs[c];
    util::Rng rng(mix64(seed ^ (0xA5A5ULL + c)));
    for (std::size_t k = 0; k < kRecent; ++k) {
      const std::size_t width = kind == Kind::ColdMix ? kWidths[rng.next_below(kWidths.size())]
                                                      : kWidths[k % kWidths.size()];
      const bool conformant = kind == Kind::ColdMix ? rng.next_below(12) != 0 : k != 7;
      pair.types.push_back(publish_type(pair, c, k, width, conformant));
      pair.recent.push_back(k);
      const SenderType& type = pair.types.back();
      if (!verdict_ok(type,
                      pair.sender->send(pair.to, make_object(pair, type, draw_stamp(rng))))) {
        throw std::runtime_error("warm-up push of " + type.handle.qualified_name() +
                                 " got the wrong verdict");
      }
    }
    if (kind != Kind::WarmSession) continue;
    for (int w = 0; w < 2; ++w) {
      std::vector<std::pair<std::size_t, std::future<transport::PushAck>>> window;
      for (std::size_t k = 0; k < kWindow; ++k) {
        const std::size_t slot = pick_type(pair, kind, rng);
        window.emplace_back(slot,
                            pair.sender->send_async(
                                pair.to, make_object(pair, pair.types[slot], draw_stamp(rng))));
      }
      for (auto& [slot, future] : window) {
        if (!verdict_ok(pair.types[slot], future.get())) {
          throw std::runtime_error("warm-up window got the wrong verdict");
        }
      }
    }
  }
}

std::unique_ptr<Universe> build_universe(Kind kind, std::uint64_t seed, Tracer* tracer,
                                         DeliveryCheck& check) {
  auto u = std::make_unique<Universe>();
  transport::SocketTransportConfig socket_config;
  socket_config.async_workers = kAsyncWorkers;
  auto socket = std::make_unique<transport::SocketTransport>(socket_config);
  u->socket = socket.get();
  if (tracer != nullptr) {
    auto traced = std::make_unique<TracingTransport>(std::move(socket), *tracer);
    u->traced = traced.get();
    u->system = std::make_unique<core::InteropSystem>(std::move(traced));
  } else {
    u->system = std::make_unique<core::InteropSystem>(std::move(socket));
  }
  const transport::PeerConfig config = peer_config(kind);
  for (std::size_t c = 0; c < kClients; ++c) {
    Pair& pair = u->pairs[c];
    const std::string id = std::to_string(c);
    pair.sender = &u->system->create_runtime("s" + id, config);
    pair.receiver = &u->system->create_runtime("r" + id, config);
    pair.to = "r" + id;
    pair.type_prefix = tracer != nullptr ? "t" : "";
    for (const std::size_t width : kWidths) {
      const std::string ns = "rc" + id + "w" + std::to_string(width);
      (void)pair.receiver->publish_assembly(fixtures::wide_type(ns, "Event", width, width));
      InteropRuntime* receiver = pair.receiver;
      pair.receiver->subscribe(ns + ".Event",
                               [receiver, width, &check](const transport::DeliveredObject& d) {
                                 on_delivery(*receiver, width, check, d);
                               });
    }
  }
  warm_up(*u, kind, seed);
  return u;
}

/// Counters read before and after a timed phase (sums over the pairs).
struct Snapshot {
  std::uint64_t received = 0;
  std::uint64_t rejected = 0;
  std::uint64_t typeinfo_requests = 0;
  std::uint64_t code_requests = 0;
  std::uint64_t typeinfo_hits = 0;
  std::uint64_t code_hits = 0;
  std::uint64_t session_pushes = 0;
  std::uint64_t verdict_hits = 0;
  std::uint64_t intros = 0;
  std::uint64_t resets = 0;
  std::uint64_t batches = 0;
  std::uint64_t retries = 0;
  std::uint64_t intro_skips = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t connections_dialed = 0;
  std::uint64_t net_messages = 0;  ///< modelled NetStats, for the report
  std::uint64_t net_bytes = 0;
  std::uint64_t quota_rejections = 0;
  std::uint64_t interned_names = 0;
  std::uint64_t registry_types = 0;
  std::uint64_t dispatched = 0;

  /// Every field as a pointer-to-member, so delta arithmetic is one loop.
  static constexpr std::array<std::uint64_t Snapshot::*, 24> kFields = {
      &Snapshot::received,       &Snapshot::rejected,        &Snapshot::typeinfo_requests,
      &Snapshot::code_requests,  &Snapshot::typeinfo_hits,   &Snapshot::code_hits,
      &Snapshot::session_pushes, &Snapshot::verdict_hits,    &Snapshot::intros,
      &Snapshot::resets,         &Snapshot::batches,         &Snapshot::retries,
      &Snapshot::intro_skips,    &Snapshot::cache_hits,      &Snapshot::cache_misses,
      &Snapshot::frames_sent,    &Snapshot::wire_bytes_sent, &Snapshot::connections_dialed,
      &Snapshot::net_messages,   &Snapshot::net_bytes,       &Snapshot::quota_rejections,
      &Snapshot::interned_names, &Snapshot::registry_types,  &Snapshot::dispatched,
  };

  [[nodiscard]] Snapshot since(const Snapshot& before) const {
    Snapshot d;
    for (const auto field : kFields) {
      d.*field = this->*field >= before.*field ? this->*field - before.*field : 0;
    }
    return d;
  }
};

Snapshot snapshot(Universe& u, const DeliveryCheck& check) {
  Snapshot s;
  for (const Pair& pair : u.pairs) {
    const transport::ProtocolStats& r = pair.receiver->stats();
    s.received += r.objects_received.get();
    s.rejected += r.objects_rejected.get();
    s.typeinfo_requests += r.typeinfo_requests.get();
    s.code_requests += r.code_requests.get();
    s.typeinfo_hits += r.typeinfo_cache_hits.get();
    s.code_hits += r.code_cache_hits.get();
    s.session_pushes += r.session_pushes.get();
    s.verdict_hits += r.session_verdict_hits.get();
    s.intros += r.session_intros.get();
    s.resets += r.session_resets.get();
    s.batches += r.session_batches.get();
    const transport::ProtocolStats& sent = pair.sender->stats();
    s.retries += sent.session_retries.get();
    s.intro_skips += sent.session_intro_skips.get();
    const conform::CacheStats cache = pair.receiver->peer().conformance_cache().stats();
    s.cache_hits += cache.hits;
    s.cache_misses += cache.misses;
    s.registry_types += pair.receiver->domain().registry().size();
  }
  const transport::SocketStats& wire = u.socket->socket_stats();
  s.frames_sent = wire.frames_sent.get();
  s.wire_bytes_sent = wire.wire_bytes_sent.get();
  s.connections_dialed = wire.connections_dialed.get();
  s.net_messages = u.socket->stats().messages.get();
  s.net_bytes = u.socket->stats().bytes.get();
  s.quota_rejections = u.socket->peer_quotas()->stats().total();
  s.interned_names = util::SymbolTable::global().size();
  s.dispatched = check.dispatched.load(std::memory_order_relaxed);
  return s;
}

struct ClientResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok = 0;        ///< acknowledged with the expected verdict
  std::uint64_t accepted = 0;  ///< ok and delivered
  std::uint64_t async_pushes = 0;
  std::uint64_t first_contacts = 0;
  std::vector<double> push_us;
  std::vector<std::uint64_t> push_end_ns;  ///< parallel to push_us
  std::vector<double> first_us;
  std::vector<double> window_us;
  std::vector<std::uint64_t> window_end_ns;  ///< parallel to window_us
  std::vector<std::uint64_t> ok_end_ns;      ///< completion time of each ok push
  std::vector<std::uint8_t> first_flags;     ///< by push index: first contact?
  std::string error;                         ///< set when the client loop aborted
};

/// Completed pushes across the clients of one phase, and the resident
/// memory sampled when their count reached kRssAtPushes.
struct Progress {
  std::atomic<std::uint64_t> pushes{0};
  std::atomic<double> rss_mb{0.0};
};

void record(ClientResult& out, Progress& progress, bool ok, bool conformant,
            std::uint64_t end_ns) {
  ++out.attempted;
  if (progress.pushes.fetch_add(1, std::memory_order_relaxed) + 1 == kRssAtPushes) {
    progress.rss_mb.store(current_rss_mb(), std::memory_order_relaxed);
  }
  if (!ok) {
    ++out.failed;
    return;
  }
  ++out.ok;
  out.ok_end_ns.push_back(end_ns);
  if (conformant) ++out.accepted;
}

/// One closed-loop client: a sync push (cold_mix: 1 in 4 to a brand-new
/// type), then a window of kWindow send_async pushes after every sync push
/// (warm_session) or after every kColdWindowEvery sync pushes (cold_mix).
void run_client(Universe& u, Kind kind, std::size_t c, std::uint64_t seed,
                std::uint64_t deadline_ns, Tracer* tracer, Progress& progress,
                ClientResult& out) {
  try {
    Pair& pair = u.pairs[c];
    util::Rng rng(mix64(seed * 0x100 + c + 1));
    std::size_t serial = pair.types.size();
    const auto next_id = [&](bool first) {
      const auto local = static_cast<std::uint32_t>(out.first_flags.size());
      out.first_flags.push_back(first ? 1 : 0);
      return (static_cast<std::uint32_t>(c + 1) << kLocalBits) | (local & kLocalMask);
    };
    std::array<std::size_t, kWindow> slots{};
    std::array<std::uint32_t, kWindow> ids{};
    std::array<std::shared_ptr<reflect::DynObject>, kWindow> objects;
    std::array<std::future<transport::PushAck>, kWindow> futures;
    std::uint64_t iteration = 0;
    while (now_ns() < deadline_ns) {
      bool first = false;
      std::size_t slot = 0;
      if (kind == Kind::ColdMix && rng.next_below(4) == 0) {
        first = true;
        const std::size_t width = kWidths[rng.next_below(kWidths.size())];
        const bool conformant = rng.next_below(12) != 0;
        pair.types.push_back(publish_type(pair, c, serial++, width, conformant));
        slot = pair.types.size() - 1;
      } else {
        slot = pick_type(pair, kind, rng);
      }
      const SenderType& type = pair.types[slot];
      const auto object = make_object(pair, type, draw_stamp(rng));
      const std::uint32_t id = next_id(first);
      const std::uint64_t start = now_ns();
      bool ok = false;
      {
        const Scope span(tracer, SpanKind::Push, MsgKind::None, 0, id);
        try {
          ok = verdict_ok(type, pair.sender->send(pair.to, object));
        } catch (const std::exception&) {
          ok = false;
        }
      }
      const std::uint64_t end = now_ns();
      const double us = to_us(end - start);
      record(out, progress, ok, type.conformant, end);
      out.push_us.push_back(us);
      out.push_end_ns.push_back(end);
      if (first) {
        ++out.first_contacts;
        out.first_us.push_back(us);
        pair.recent.push_back(slot);
        if (pair.recent.size() > kRecent) pair.recent.pop_front();
      }
      ++iteration;
      if (kind == Kind::ColdMix && iteration % kColdWindowEvery != 0) continue;

      for (std::size_t k = 0; k < kWindow; ++k) {
        slots[k] = pick_type(pair, kind, rng);
        objects[k] = make_object(pair, pair.types[slots[k]], draw_stamp(rng));
        ids[k] = next_id(false);
      }
      const std::uint64_t window_start = now_ns();
      {
        const Scope window(tracer, SpanKind::Window, MsgKind::None, 0, ids[0]);
        for (std::size_t k = 0; k < kWindow; ++k) {
          const Scope call(tracer, SpanKind::SendAsyncCall, MsgKind::None, window.id(), ids[k]);
          try {
            futures[k] = pair.sender->send_async(pair.to, objects[k]);
          } catch (const std::exception&) {
            futures[k] = {};
          }
        }
        for (std::size_t k = 0; k < kWindow; ++k) {
          bool window_ok = false;
          if (futures[k].valid()) {
            try {
              window_ok = verdict_ok(pair.types[slots[k]], futures[k].get());
            } catch (const std::exception&) {
              window_ok = false;
            }
          }
          record(out, progress, window_ok, pair.types[slots[k]].conformant, now_ns());
        }
      }
      const std::uint64_t window_end = now_ns();
      out.window_us.push_back(to_us(window_end - window_start));
      out.window_end_ns.push_back(window_end);
      out.async_pushes += kWindow;
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    ++out.failed;
  }
}

struct Phase {
  std::array<ClientResult, kClients> clients;
  std::uint64_t start_ns = 0;
  double seconds = 0.0;  ///< the requested length of the timed phase
  double rss_mb = 0.0;
  Snapshot delta;
  std::vector<std::uint64_t> slice_steal;  ///< steal_ticks() gained in each slice

  [[nodiscard]] std::uint64_t sum(std::uint64_t ClientResult::*field) const {
    std::uint64_t total = 0;
    for (const ClientResult& c : clients) total += c.*field;
    return total;
  }
  [[nodiscard]] std::vector<double> merged(std::vector<double> ClientResult::*field) const {
    std::vector<double> out;
    for (const ClientResult& c : clients) {
      out.insert(out.end(), (c.*field).begin(), (c.*field).end());
    }
    return out;
  }
};

Phase run_phase(Universe& u, Kind kind, std::uint64_t seed, double seconds, Tracer* tracer,
                const DeliveryCheck& check, Progress& progress) {
  Phase phase;
  const Snapshot before = snapshot(u, check);
  if (tracer != nullptr) tracer->set_enabled(true);
  phase.start_ns = now_ns();
  phase.seconds = seconds;
  const auto deadline = phase.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&phase] {
      const std::size_t slices = slice_count(phase.seconds);
      std::uint64_t last = steal_ticks();
      for (std::size_t s = 1; s <= slices; ++s) {
        const auto end = phase.start_ns + static_cast<std::uint64_t>(
                                              phase.seconds * 1e9 * static_cast<double>(s) /
                                              static_cast<double>(slices));
        const std::uint64_t now = now_ns();
        if (end > now) std::this_thread::sleep_for(std::chrono::nanoseconds(end - now));
        const std::uint64_t steal = steal_ticks();
        phase.slice_steal.push_back(steal >= last ? steal - last : 0);
        last = steal;
      }
    });
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(run_client, std::ref(u), kind, c, seed, deadline, tracer,
                           std::ref(progress), std::ref(phase.clients[c]));
    }
  }
  if (tracer != nullptr) tracer->set_enabled(false);
  u.socket->drain();
  phase.delta = snapshot(u, check).since(before);
  phase.rss_mb = progress.rss_mb.load() > 0.0 ? progress.rss_mb.load() : current_rss_mb();
  return phase;
}

/// Median over the phase's calm time slices (calm_samples) of the
/// per-slice push rate and of the per-slice sync-push and window latency
/// percentiles.
std::map<std::string, double> sliced_metrics(const Phase& p,
                                             std::vector<std::string>* notes = nullptr) {
  const std::size_t slices = slice_count(p.seconds);
  const double slice_ns = p.seconds * 1e9 / static_cast<double>(slices);
  const std::vector<bool> calm = calm_samples(p.slice_steal);
  const auto slice_of = [&](std::uint64_t end_ns) {
    const double offset = static_cast<double>(end_ns > p.start_ns ? end_ns - p.start_ns : 0);
    return std::min(slices - 1, static_cast<std::size_t>(offset / slice_ns));
  };
  std::vector<std::vector<double>> pushes(slices);
  std::vector<std::vector<double>> windows(slices);
  std::vector<double> ok(slices, 0.0);
  for (const ClientResult& c : p.clients) {
    for (std::size_t i = 0; i < c.push_us.size(); ++i) {
      pushes[slice_of(c.push_end_ns[i])].push_back(c.push_us[i]);
    }
    for (std::size_t i = 0; i < c.window_us.size(); ++i) {
      windows[slice_of(c.window_end_ns[i])].push_back(c.window_us[i]);
    }
    for (const std::uint64_t end : c.ok_end_ns) ok[slice_of(end)] += 1.0;
  }
  std::map<std::string, std::vector<double>> per_slice;
  for (std::size_t s = 0; s < slices; ++s) {
    if (s < calm.size() && !calm[s]) continue;
    per_slice["pushes_per_s"].push_back(ok[s] / (slice_ns / 1e9));
    if (!pushes[s].empty()) {
      per_slice["push_p50_us"].push_back(percentile(pushes[s], 0.5));
      per_slice["push_p90_us"].push_back(percentile(pushes[s], 0.9));
    }
    if (!windows[s].empty()) {
      per_slice["window_p50_us"].push_back(percentile(windows[s], 0.5));
      per_slice["window_p90_us"].push_back(percentile(windows[s], 0.9));
    }
  }
  if (notes != nullptr) {
    notes->push_back(join_values("slices steal ticks:", std::vector<double>(p.slice_steal.begin(),
                                                                            p.slice_steal.end())));
  }
  std::map<std::string, double> out;
  for (const char* name :
       {"pushes_per_s", "push_p50_us", "push_p90_us", "window_p50_us", "window_p90_us"}) {
    out[name] = median(per_slice[name]);
    if (notes != nullptr) {
      notes->push_back(join_values(("calm slices " + std::string(name) + ":").c_str(),
                                   per_slice[name]));
    }
  }
  return out;
}

/// Push failures of a phase: client-side outcome failures, deliveries whose
/// payload did not verify, and any dispatch count other than one per
/// accepted push.
std::uint64_t phase_failures(const Phase& p, std::uint64_t corrupt, Outcome& out) {
  std::uint64_t failed = p.sum(&ClientResult::failed) + corrupt;
  const std::uint64_t accepted = p.sum(&ClientResult::accepted);
  const std::uint64_t dispatched = p.delta.dispatched;
  failed += dispatched > accepted ? dispatched - accepted : accepted - dispatched;
  for (const ClientResult& c : p.clients) {
    if (!c.error.empty()) out.notes.push_back("client aborted: " + c.error);
  }
  if (corrupt != 0) {
    out.notes.push_back(std::to_string(corrupt) + " deliveries failed payload checks");
  }
  if (dispatched != accepted) {
    out.notes.push_back("dispatch count " + std::to_string(dispatched) +
                        " != accepted pushes " + std::to_string(accepted));
  }
  const auto ok = static_cast<double>(p.sum(&ClientResult::ok));
  char line[160];
  std::snprintf(line, sizeof line,
                "modelled NetStats per push: %.3f messages, %.1f bytes; framed %.1f bytes",
                ratio(static_cast<double>(p.delta.net_messages), ok),
                ratio(static_cast<double>(p.delta.net_bytes), ok),
                ratio(static_cast<double>(p.delta.wire_bytes_sent), ok));
  out.notes.emplace_back(line);
  return failed;
}

void add_end_to_end(const Phase& p, double setup_s, std::map<std::string, double>& m,
                    Outcome& out) {
  m = sliced_metrics(p, &out.notes);
  m["bytes_per_push"] = ratio(static_cast<double>(p.delta.wire_bytes_sent),
                              static_cast<double>(p.sum(&ClientResult::ok)));
  m["setup_s"] = setup_s;
  m["rss_mb"] = p.rss_mb;
}

/// Per-layer numbers from the traced phase: the span tree at the seam and
/// the codec re-timed on sampled in-flight messages.
void add_traced_layers(const Phase& p, const Tracer& tracer, const TracingTransport& seam,
                       std::map<std::string, double>& m, Outcome& out) {
  const auto spans = tracer.spans();
  const SpanTree tree = analyse(spans);

  std::uint64_t prefix_pushes = 0;
  for (const ClientResult& c : p.clients) {
    prefix_pushes += std::min<std::uint64_t>(kPrefixPushes, c.first_flags.size());
  }
  const auto in_prefix = [](std::uint32_t push) {
    return push != 0 && (push & kLocalMask) < kPrefixPushes;
  };
  const auto is_first = [&](std::uint32_t push) {
    const std::uint32_t client = push >> kLocalBits;
    const std::uint32_t local = push & kLocalMask;
    if (client == 0 || client > kClients) return false;
    const auto& flags = p.clients[client - 1].first_flags;
    return local < flags.size() && flags[local] != 0;
  };

  std::array<std::vector<double>, kMsgKinds> exchange_us;
  std::array<std::vector<double>, kMsgKinds> handler_self_us;
  std::array<std::vector<double>, kMsgKinds> wire_us;
  std::array<std::uint64_t, kMsgKinds> prefix_exchanges{};
  std::vector<double> first_self;
  std::vector<double> repush_self;
  std::vector<double> sender_self;
  std::vector<double> call_us;
  std::vector<std::uint32_t> sync_pushes;
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0) continue;
    const auto k = static_cast<std::size_t>(s.msg);
    switch (s.kind) {
      case SpanKind::Exchange:
        if (k >= kMsgKinds) break;
        exchange_us[k].push_back(to_us(duration_ns(s)));
        if (tree.handler_of[i] != 0) {
          const std::uint64_t handler = duration_ns(spans[tree.handler_of[i] - 1]);
          const std::uint64_t total = duration_ns(s);
          wire_us[k].push_back(to_us(total > handler ? total - handler : 0));
        }
        if (in_prefix(s.push_id)) ++prefix_exchanges[k];
        break;
      case SpanKind::Handler:
        if (k >= kMsgKinds) break;
        handler_self_us[k].push_back(to_us(tree.self_ns[i]));
        if (s.msg == MsgKind::Push) {
          (is_first(s.push_id) ? first_self : repush_self).push_back(to_us(tree.self_ns[i]));
        }
        break;
      case SpanKind::Push:
        sender_self.push_back(to_us(tree.self_ns[i]));
        sync_pushes.push_back(i);
        break;
      case SpanKind::SendAsyncCall:
        call_us.push_back(to_us(duration_ns(s)));
        break;
      case SpanKind::Window:
      case SpanKind::Dispatch:
        break;
    }
  }

  for (std::size_t k = 0; k < kMsgKinds; ++k) {
    const std::string kind = msg_kind_name(static_cast<MsgKind>(k));
    m["transport." + kind + ".exchanges_per_push"] =
        ratio(static_cast<double>(prefix_exchanges[k]), static_cast<double>(prefix_pushes));
    m["transport." + kind + ".exchange_us"] = median(exchange_us[k]);
    m["transport." + kind + ".handler_self_us"] = median(handler_self_us[k]);
    m["transport." + kind + ".wire_us"] = median(wire_us[k]);
  }
  m["transport.push.handler_self_us.first_contact"] = median(first_self);
  m["transport.push.handler_self_us.repush"] = median(repush_self);
  m["transport.sender_self_us"] = median(sender_self);
  m["core.send_async_call_us"] = median(call_us);

  // Reconciliation: the median sync push must be rebuilt within 10% by its
  // sender self time plus its exchange spans, and by the self times of
  // every stage under it (handlers, nested fetches, dispatch).
  double shallow_err = 0.0;
  if (!sync_pushes.empty()) {
    std::sort(sync_pushes.begin(), sync_pushes.end(), [&](std::uint32_t a, std::uint32_t b) {
      return duration_ns(spans[a]) < duration_ns(spans[b]);
    });
    const std::uint32_t mid = sync_pushes[sync_pushes.size() / 2];
    const auto dur = static_cast<double>(duration_ns(spans[mid]));
    const auto shallow = static_cast<double>(tree.self_ns[mid] + tree.child_sum_ns[mid]);
    const auto deep = static_cast<double>(tree.subtree_self_ns[mid]);
    shallow_err = std::abs(shallow - dur) / dur;
    const double deep_err = std::abs(deep - dur) / dur;
    char line[256];
    std::snprintf(line, sizeof line,
                  "reconcile: median sync push %.1f us = sender self %.1f + exchanges %.1f "
                  "(err %.2f%%); sum of all stage self times %.1f (err %.2f%%)",
                  dur / 1e3, static_cast<double>(tree.self_ns[mid]) / 1e3,
                  static_cast<double>(tree.child_sum_ns[mid]) / 1e3, shallow_err * 100,
                  deep / 1e3, deep_err * 100);
    out.notes.emplace_back(line);
    if (shallow_err > 0.10 || deep_err > 0.10) {
      out.checks_passed = false;
      out.notes.emplace_back("reconcile: FAILED, more than 10% apart");
    }
  }
  m["trace.reconcile_err_pct"] = shallow_err * 100;
  out.notes.push_back("spans recorded " + std::to_string(spans.size()) + ", dropped " +
                      std::to_string(tracer.dropped()));

  // Frame codec re-timed on the exact sampled messages, best of 8 each.
  const serial::FrameCodec codec;
  for (std::size_t k = 0; k < kMsgKinds; ++k) {
    std::vector<double> per_message;
    for (const auto& [request, response] : seam.samples(static_cast<MsgKind>(k))) {
      std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
      std::size_t decoded = 0;
      for (int rep = 0; rep < 8; ++rep) {
        const std::uint64_t start = now_ns();
        const transport::Message request_back = codec.decode(codec.encode(request));
        const transport::Message response_back = codec.decode(codec.encode(response));
        best = std::min(best, now_ns() - start);
        decoded += request_back.sender.size() + response_back.sender.size();
      }
      if (decoded != 0) per_message.push_back(to_us(best));
    }
    m[std::string("serial.frame_codec_us.") + msg_kind_name(static_cast<MsgKind>(k))] =
        median(per_message);
  }
}

void add_counter_layers(const Phase& p, std::map<std::string, double>& m) {
  const Snapshot& d = p.delta;
  const auto ok = static_cast<double>(p.sum(&ClientResult::ok));
  const auto received = static_cast<double>(d.received);
  const auto first = static_cast<double>(p.sum(&ClientResult::first_contacts));
  const auto checks = static_cast<double>(d.cache_hits + d.cache_misses);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  m["core.dispatch_per_delivery"] = ratio(count(d.dispatched), count(p.sum(&ClientResult::accepted)));
  m["transport.frames_per_push"] = ratio(count(d.frames_sent), ok);
  m["transport.wire_bytes_per_push"] = ratio(count(d.wire_bytes_sent), ok);
  m["transport.connections_dialed"] = count(d.connections_dialed);
  m["transport.quota_rejections"] = count(d.quota_rejections);
  m["peer.reject_rate"] = ratio(count(d.rejected), received);
  m["peer.typeinfo_requests_per_push"] = ratio(count(d.typeinfo_requests), received);
  m["peer.code_requests_per_push"] = ratio(count(d.code_requests), received);
  m["peer.typeinfo_hit_rate"] = ratio(count(d.typeinfo_hits), received);
  m["peer.code_hit_rate"] = ratio(count(d.code_hits), received);
  m["session.verdict_hit_rate"] = ratio(count(d.verdict_hits), count(d.session_pushes));
  m["session.entries_per_batch"] =
      ratio(count(p.sum(&ClientResult::async_pushes)), count(d.batches));
  m["session.intros_per_push"] = ratio(count(d.intros), ok);
  m["session.intro_skips"] = count(d.intro_skips);
  m["session.resets"] = count(d.resets);
  m["session.retries"] = count(d.retries);
  m["conform.checks_per_push"] = ratio(checks, received);
  m["conform.misses_per_push"] = ratio(count(d.cache_misses), received);
  m["conform.cache_hit_rate"] = ratio(count(d.cache_hits), checks);
  m["reflect.registry_types"] = ratio(count(d.registry_types), first);
  m["util.interned_names"] = ratio(count(d.interned_names), first);
}

Outcome run_socket_workload(const Options& options, Kind kind) {
  Outcome out;
  std::map<std::string, double> values;
  if (!options.trace) {
    DeliveryCheck check;
    check.seed = options.seed;
    std::vector<double> setups;
    std::unique_ptr<Universe> universe;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      universe.reset();
      const std::uint64_t start = now_ns();
      universe = build_universe(kind, options.seed, nullptr, check);
      setups.push_back(seconds_since(start));
    }
    // One Progress over both phases, so rss_mb is sampled at the same
    // amount of work whatever the warm-up reached.
    Progress progress;
    const Phase warm = run_phase(*universe, kind, mix64(options.seed), kWarmupSeconds, nullptr,
                                 check, progress);
    const Phase phase =
        run_phase(*universe, kind, options.seed, options.seconds, nullptr, check, progress);
    universe.reset();
    out.attempted = warm.sum(&ClientResult::attempted) + phase.sum(&ClientResult::attempted);
    out.failed = phase_failures(warm, 0, out) + phase_failures(phase, check.corrupt.load(), out);
    add_end_to_end(phase, median(setups), values, out);
    out.notes.push_back("payloads verified field by field: " +
                        std::to_string(check.verified.load()));
    out.end_to_end = emit(end_to_end_catalogue(), values, true);
    return out;
  }

  // Traced run: an untraced half and a traced half, each on a fresh
  // universe, so the tracing overhead is measured in the same process.
  const double half = options.seconds / 2;
  DeliveryCheck plain_check;
  plain_check.seed = options.seed;
  auto plain_universe = build_universe(kind, options.seed, nullptr, plain_check);
  Progress plain_progress;
  const Phase plain =
      run_phase(*plain_universe, kind, options.seed, half, nullptr, plain_check, plain_progress);
  plain_universe.reset();

  Tracer tracer(kSpanCapacity);
  DeliveryCheck traced_check;
  traced_check.seed = options.seed;
  traced_check.tracer = &tracer;
  auto traced_universe = build_universe(kind, options.seed, &tracer, traced_check);
  Progress traced_progress;
  const Phase traced = run_phase(*traced_universe, kind, options.seed, half, &tracer,
                                 traced_check, traced_progress);

  out.attempted = plain.sum(&ClientResult::attempted) + traced.sum(&ClientResult::attempted);
  out.failed = phase_failures(plain, plain_check.corrupt.load(), out) +
               phase_failures(traced, traced_check.corrupt.load(), out);
  const std::vector<double> first_us = plain.merged(&ClientResult::first_us);
  values["first_contact_p50_us"] = percentile(first_us, 0.5);
  values["first_contact_p90_us"] = percentile(first_us, 0.9);
  add_traced_layers(traced, tracer, *traced_universe->traced, values, out);
  add_counter_layers(traced, values);
  traced_universe.reset();

  const double plain_rate = sliced_metrics(plain).at("pushes_per_s");
  const double traced_rate = sliced_metrics(traced).at("pushes_per_s");
  const double overhead = ratio(plain_rate - traced_rate, plain_rate);
  values["trace.overhead_pct"] = overhead * 100;
  char line[160];
  std::snprintf(line, sizeof line,
                "tracing overhead: %.0f pushes/s untraced, %.0f traced (%.1f%% slower)",
                plain_rate, traced_rate, overhead * 100);
  out.notes.emplace_back(line);
  if (!options.out_dir.empty()) {
    tracer.write_tsv(options.out_dir + "/spans-" + options.workload + ".tsv");
  }
  out.per_layer = emit(per_layer_catalogue(), values, false);
  return out;
}

// ---------------------------------------------------------------------------
// storm

Outcome run_storm(const Options& options) {
  Outcome out;
  sim::ScenarioConfig config;
  config.seed = mix64(options.seed);
  config.peers = 16000;
  config.types = 64;
  config.type_groups = 16;
  config.use_sessions = true;
  config.session_batch = 16;
  const sim::ScenarioScript script = sim::ScenarioScript::standard(config.peers);

  // Each cycle builds and runs the same scenario; set-up is construction.
  struct Cycle {
    double setup_s = 0.0;
    double run_s = 0.0;
    std::uint64_t steal = 0;  ///< steal_ticks() gained during the run
    sim::ScenarioResult result;
  };
  std::vector<Cycle> cycles;
  double run_total = 0.0;
  while (cycles.size() < kMinStormCycles || run_total < options.seconds) {
    const std::uint64_t t0 = now_ns();
    auto scenario = std::make_unique<sim::Scenario>(config);
    const std::uint64_t steal_before = steal_ticks();
    const std::uint64_t t1 = now_ns();
    sim::ScenarioResult result = scenario->run(script);
    const std::uint64_t t2 = now_ns();
    const std::uint64_t steal_after = steal_ticks();
    scenario.reset();
    cycles.push_back(Cycle{static_cast<double>(t1 - t0) / 1e9, static_cast<double>(t2 - t1) / 1e9,
                           steal_after >= steal_before ? steal_after - steal_before : 0, result});
    run_total += cycles.back().run_s;
  }

  // Outside the timed phase: the same seed with sessions off must reach
  // the same accept/reject stream.
  sim::ScenarioConfig cold = config;
  cold.use_sessions = false;
  cold.session_batch = 1;
  const std::uint64_t cold_start = now_ns();
  const sim::ScenarioResult reference = sim::run_scenario(cold, script);
  const double cold_s = seconds_since(cold_start);

  const sim::ScenarioResult& first = cycles.front().result;
  const sim::ScenarioStats& stats = first.stats;
  std::vector<std::uint64_t> steals;
  for (const Cycle& c : cycles) steals.push_back(c.steal);
  const std::vector<bool> calm = calm_samples(steals);
  // Timings come from the calm cycles only; every cycle is checked.
  std::uint64_t calm_verified = 0;
  std::size_t calm_cycles = 0;
  double calm_run_s = 0.0;
  std::vector<double> per_delivery_us;
  std::vector<double> per_frame_us;
  std::vector<double> setups;
  std::vector<double> runs;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const Cycle& c = cycles[i];
    const sim::ScenarioStats& s = c.result.stats;
    out.attempted += s.deliveries;
    const bool same = c.result.trace_digest == first.trace_digest &&
                      c.result.stats_digest == first.stats_digest &&
                      c.result.accept_digest == reference.accept_digest;
    if (!same) out.failed += s.deliveries;
    setups.push_back(c.setup_s);
    runs.push_back(c.run_s);
    if (!calm[i]) continue;
    ++calm_cycles;
    calm_run_s += c.run_s;
    if (same) ++calm_verified;
    per_delivery_us.push_back(ratio(c.run_s * 1e6, static_cast<double>(s.deliveries)));
    per_frame_us.push_back(ratio(c.run_s * 1e6, static_cast<double>(s.session_batch_frames)));
  }
  if (first.accept_digest != reference.accept_digest) {
    out.notes.emplace_back("storm: accept digest differs from the sessions-off run");
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "storm: %zu cycles of %llu deliveries, run %.3f s median; sessions-off "
                "reference %.3f s including construction",
                cycles.size(), static_cast<unsigned long long>(stats.deliveries), median(runs),
                cold_s);
  out.notes.emplace_back(line);
  std::string cycle_line = "storm cycles (construction s / run s / steal ticks):";
  for (const Cycle& c : cycles) {
    std::snprintf(line, sizeof line, " %.3f/%.3f/%llu", c.setup_s, c.run_s,
                  static_cast<unsigned long long>(c.steal));
    cycle_line += line;
  }
  out.notes.push_back(cycle_line);

  // Host memory contention flips whole cycles between a fast and a slow
  // speed, so a median over cycles jumps between the two modes from run to
  // run. The centre is therefore the mean over the calm cycles (their run
  // time over their work); the p90 is the slow mode.
  const double run_us = calm_run_s * 1e6;
  std::map<std::string, double> values;
  if (!options.trace) {
    values["pushes_per_s"] =
        ratio(static_cast<double>(calm_verified * stats.deliveries), calm_run_s);
    values["push_p50_us"] = ratio(run_us, static_cast<double>(stats.deliveries * calm_cycles));
    values["push_p90_us"] = percentile(per_delivery_us, 0.9);
    values["window_p50_us"] =
        ratio(run_us, static_cast<double>(stats.session_batch_frames * calm_cycles));
    values["window_p90_us"] = percentile(per_frame_us, 0.9);
    values["bytes_per_push"] =
        ratio(static_cast<double>(stats.net_bytes), static_cast<double>(stats.deliveries));
    values["setup_s"] = median(setups);
    values["rss_mb"] = peak_rss_mb();
    out.end_to_end = emit(end_to_end_catalogue(), values, true);
    return out;
  }
  const auto deliveries = static_cast<double>(stats.deliveries);
  values["sim.bringup_s"] = median(setups);
  values["sim.run_s"] = run_total / static_cast<double>(cycles.size());
  values["sim.targets_per_publish"] = ratio(deliveries, static_cast<double>(stats.publishes));
  values["sim.net_msgs_per_delivery"] =
      ratio(static_cast<double>(stats.net_messages), deliveries);
  values["sim.entries_per_batch_frame"] =
      ratio(static_cast<double>(stats.session_batch_entries),
            static_cast<double>(stats.session_batch_frames));
  values["sim.index_entries"] = static_cast<double>(stats.index_entries);
  values["sim.drops"] = static_cast<double>(stats.drops);
  values["sim.typeinfo_requests_per_delivery"] =
      ratio(static_cast<double>(stats.typeinfo_requests), deliveries);
  values["sim.code_requests_per_delivery"] =
      ratio(static_cast<double>(stats.code_requests), deliveries);
  out.per_layer = emit(per_layer_catalogue(), values, false);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cold_mix", "warm_session", "storm"};
  return names;
}

Outcome run_workload(const Options& options) {
  if (options.workload == "cold_mix") return run_socket_workload(options, Kind::ColdMix);
  if (options.workload == "warm_session") return run_socket_workload(options, Kind::WarmSession);
  if (options.workload == "storm") return run_storm(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace pti::perfbench
