// In-memory span recorder for the traced benchmark run.
//
// A span is one timed interval at a layer boundary: a synchronous push, a
// window of asynchronous pushes, one send_async call, one transport
// exchange, one receiver handler execution, or one subscription callback.
// Spans of one push share the push id the generator assigned; parents come
// from a per-thread stack on the thread that opens the span, or are passed
// explicitly where a span starts on another thread (a receiver handler is
// the child of the exchange that carried its request).
//
// Storage is one preallocated array filled without locks; when it is full,
// further spans are counted as dropped instead of recorded. Nothing is
// analysed until the traced phase has ended and every thread has joined.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "transport/message.hpp"

namespace pti::perfbench {

enum class SpanKind : std::uint8_t { Push, Window, SendAsyncCall, Exchange, Handler, Dispatch };

/// Request kinds at the Transport seam. The first kMsgKinds are reported.
enum class MsgKind : std::uint8_t { Push, TypeInfo, Code, Session, Batch, Other, None };
inline constexpr std::size_t kMsgKinds = 5;

[[nodiscard]] const char* msg_kind_name(MsgKind kind) noexcept;
[[nodiscard]] MsgKind msg_kind_of(const transport::Message& request) noexcept;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;   ///< 0 while open
  std::uint32_t parent = 0;   ///< span id of the parent, 0 for a root
  std::uint32_t push_id = 0;
  SpanKind kind = SpanKind::Push;
  MsgKind msg = MsgKind::None;
};

/// Span ids are array index + 1, so 0 means "no span". A child is always
/// opened after its parent, so its id is larger. Recording is off until
/// set_enabled(true), so set-up traffic leaves no spans.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_release); }

  /// Opens a span and returns its id, or 0 when disabled or full.
  std::uint32_t open(SpanKind kind, MsgKind msg, std::uint32_t parent,
                     std::uint32_t push_id) noexcept;
  void close(std::uint32_t id) noexcept {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }

  [[nodiscard]] std::uint32_t push_of(std::uint32_t id) const noexcept {
    return id == 0 ? 0 : spans_[id - 1].push_id;
  }
  [[nodiscard]] std::span<const Span> spans() const noexcept;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Writes every recorded span as one tab-separated line.
  void write_tsv(const std::string& path) const;

 private:
  std::unique_ptr<Span[]> spans_;
  std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// The innermost span open on this thread (0 when none).
[[nodiscard]] std::uint32_t current_span() noexcept;

/// Opens a span on construction and closes it on destruction, keeping it
/// on this thread's parent stack meanwhile. A null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, SpanKind kind, MsgKind msg, std::uint32_t parent,
        std::uint32_t push_id) noexcept;
  /// Child of the innermost span on this thread, sharing its push id.
  Scope(Tracer* tracer, SpanKind kind) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_ = 0;
};

/// Per-span results of the tree walk, indexed by span id - 1.
struct SpanTree {
  /// Duration minus the part of it that the children's intervals (clipped
  /// to the span, overlaps merged) cover.
  std::vector<std::uint64_t> self_ns;
  /// Plain sum of the children's durations.
  std::vector<std::uint64_t> child_sum_ns;
  /// Sum of the self times of the span and all its descendants: what the
  /// stages of a push add up to, whichever threads they ran on.
  std::vector<std::uint64_t> subtree_self_ns;
  /// For an exchange span: the receiver handler span it carried (0: none).
  std::vector<std::uint32_t> handler_of;
};
[[nodiscard]] SpanTree analyse(std::span<const Span> spans);

[[nodiscard]] inline std::uint64_t duration_ns(const Span& s) noexcept {
  return s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
}

}  // namespace pti::perfbench
