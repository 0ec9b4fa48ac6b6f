// IntroRegistry — hub-level memory of which receiver already holds which
// type description, keyed by content hash.
//
// PR 9's session layer pays a type's description once per sender/receiver
// *pair*: every sender keeps its own per-target "introduced" bits, so a hot
// type fanned out by k senders crosses the wire k times per receiver. The
// registry fixes the unit of payment: receivers advertise the descriptions
// they hold as a set of FNV-64 content hashes (in Reset and first-contact
// SessionAcks), senders fold those advertisements in here, and because the
// registry hangs off the universe's shared AssemblyHub, the *second* sender
// of a hot type finds the receiver already covered and ships the intro
// without its description bytes — once per receiver, not once per pair.
//
// A hash attests content, not delivery: a sender that skips description
// bytes still ships the wire-id/name binding, and a receiver that somehow
// lacks the description falls back to the cold TypeInfoRequest fetch — the
// registry is a byte-saving hint, never a correctness dependency.
//
// Memory: an ack may carry tens of thousands of hashes, so a hostile
// receiver could otherwise grow the sender's process without bound. Each
// receiver's set is capped; hashes past the cap are ignored, which costs
// only that receiver re-shipped description bytes.
//
// Thread safety: fully thread-safe (one mutex; all operations are short).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace pti::transport {

class IntroRegistry {
 public:
  /// Hashes kept per receiver: far above what any honest receiver in the
  /// tests, benches or megasim advertises (a storm receiver holds at most
  /// 64 descriptions; a Peer's Reset ack carries at most 256 hashes).
  static constexpr std::size_t kMaxHashesPerReceiver = 4096;

  /// Records that `receiver` holds the descriptions whose canonical XML
  /// hashes (FNV-64) to `hashes` — one SessionAck's advertisement.
  void record_all(const std::string& receiver, const std::vector<std::uint64_t>& hashes) {
    if (hashes.empty()) return;
    std::scoped_lock lock(mutex_);
    auto& set = known_[receiver];
    for (const std::uint64_t hash : hashes) {
      if (set.size() >= kMaxHashesPerReceiver) break;
      set.insert(hash);
    }
  }

  [[nodiscard]] bool knows(const std::string& receiver, std::uint64_t hash) const {
    std::scoped_lock lock(mutex_);
    const auto it = known_.find(receiver);
    return it != known_.end() && it->second.count(hash) != 0;
  }

  [[nodiscard]] std::size_t known_count(const std::string& receiver) const {
    std::scoped_lock lock(mutex_);
    const auto it = known_.find(receiver);
    return it == known_.end() ? 0 : it->second.size();
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unordered_set<std::uint64_t>> known_;
};

}  // namespace pti::transport
