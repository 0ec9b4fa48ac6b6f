#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <variant>

namespace pti::perfbench {

namespace {

/// This thread's open spans, innermost last.
thread_local std::vector<std::uint32_t> tl_stack;

}  // namespace

const char* msg_kind_name(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::Push: return "push";
    case MsgKind::TypeInfo: return "typeinfo";
    case MsgKind::Code: return "code";
    case MsgKind::Session: return "session";
    case MsgKind::Batch: return "batch";
    case MsgKind::Other: return "other";
    case MsgKind::None: return "-";
  }
  return "-";
}

MsgKind msg_kind_of(const transport::Message& request) noexcept {
  if (std::holds_alternative<transport::ObjectPush>(request.payload)) return MsgKind::Push;
  if (std::holds_alternative<transport::TypeInfoRequest>(request.payload)) {
    return MsgKind::TypeInfo;
  }
  if (std::holds_alternative<transport::CodeRequest>(request.payload)) return MsgKind::Code;
  if (std::holds_alternative<transport::SessionPush>(request.payload)) return MsgKind::Session;
  if (std::holds_alternative<transport::SessionBatch>(request.payload)) return MsgKind::Batch;
  return MsgKind::Other;
}

Tracer::Tracer(std::size_t capacity)
    : spans_(std::make_unique_for_overwrite<Span[]>(capacity)), capacity_(capacity) {}

std::uint32_t Tracer::open(SpanKind kind, MsgKind msg, std::uint32_t parent,
                           std::uint32_t push_id) noexcept {
  if (!enabled_.load(std::memory_order_acquire)) return 0;
  const std::uint32_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  spans_[index] = Span{now_ns(), 0, parent, push_id, kind, msg};
  return index + 1;
}

std::span<const Span> Tracer::spans() const noexcept {
  const std::size_t used =
      std::min<std::size_t>(next_.load(std::memory_order_acquire), capacity_);
  return {spans_.get(), used};
}

void Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "id\tparent\tpush\tkind\tmsg\tstart_ns\tdur_ns\n";
  const auto all = spans();
  const std::uint64_t origin = all.empty() ? 0 : all.front().start_ns;
  static constexpr const char* kKinds[] = {"push",     "window",  "send_async_call",
                                           "exchange", "handler", "dispatch"};
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << i + 1 << '\t' << s.parent << '\t' << s.push_id << '\t'
        << kKinds[static_cast<std::size_t>(s.kind)] << '\t' << msg_kind_name(s.msg) << '\t'
        << (s.start_ns - origin) << '\t' << duration_ns(s) << '\n';
  }
}

std::uint32_t current_span() noexcept { return tl_stack.empty() ? 0 : tl_stack.back(); }

Scope::Scope(Tracer* tracer, SpanKind kind, MsgKind msg, std::uint32_t parent,
             std::uint32_t push_id) noexcept
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->open(kind, msg, parent, push_id);
  if (id_ != 0) tl_stack.push_back(id_);
}

Scope::Scope(Tracer* tracer, SpanKind kind) noexcept
    : Scope(tracer, kind, MsgKind::None, current_span(),
            tracer != nullptr ? tracer->push_of(current_span()) : 0) {}

Scope::~Scope() {
  if (id_ == 0) return;
  tracer_->close(id_);
  tl_stack.pop_back();
}

SpanTree analyse(std::span<const Span> spans) {
  const std::size_t n = spans.size();
  SpanTree tree;
  tree.self_ns.assign(n, 0);
  tree.child_sum_ns.assign(n, 0);
  tree.subtree_self_ns.assign(n, 0);
  tree.handler_of.assign(n, 0);

  // Children grouped by parent (counting sort over parent ids).
  std::vector<std::uint32_t> offsets(n + 2, 0);
  for (const Span& s : spans) {
    if (s.parent != 0 && s.parent <= n) ++offsets[s.parent + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<std::uint32_t> children(offsets.back());
  std::vector<std::uint32_t> fill(offsets.begin() + 1, offsets.end());
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t parent = spans[i].parent;
    if (parent != 0 && parent <= n) children[fill[parent - 1]++] = i;
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (std::uint32_t p = 0; p < n; ++p) {
    const Span& parent = spans[p];
    if (parent.end_ns == 0) continue;
    intervals.clear();
    for (std::uint32_t k = offsets[p + 1]; k < offsets[p + 2]; ++k) {
      const Span& child = spans[children[k]];
      if (child.end_ns == 0) continue;
      tree.child_sum_ns[p] += duration_ns(child);
      if (parent.kind == SpanKind::Exchange && child.kind == SpanKind::Handler &&
          tree.handler_of[p] == 0) {
        tree.handler_of[p] = children[k] + 1;
      }
      const std::uint64_t lo = std::max(child.start_ns, parent.start_ns);
      const std::uint64_t hi = std::min(child.end_ns, parent.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    covered += run_hi - run_lo;
    const std::uint64_t dur = duration_ns(parent);
    tree.self_ns[p] = dur > covered ? dur - covered : 0;
  }

  // Children have larger ids than their parents, so one backward pass
  // folds every subtree into its root.
  for (std::size_t i = n; i-- > 0;) {
    tree.subtree_self_ns[i] += tree.self_ns[i];
    const std::uint32_t parent = spans[i].parent;
    if (parent != 0 && parent <= n && spans[i].end_ns != 0) {
      tree.subtree_self_ns[parent - 1] += tree.subtree_self_ns[i];
    }
  }
  return tree;
}

}  // namespace pti::perfbench
