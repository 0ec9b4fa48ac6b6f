#include "transport/link_cost_model.hpp"

#include "util/interning.hpp"

namespace pti::transport {

void LinkCostModel::set_default_link(const LinkConfig& config) noexcept {
  std::unique_lock lock(mutex_);
  default_link_ = config;
}

void LinkCostModel::set_link(std::string_view from, std::string_view to,
                             const LinkConfig& config) {
  util::SymbolTable& symbols = util::SymbolTable::global();
  const std::uint64_t key = util::pair_key(symbols.intern(from), symbols.intern(to));
  std::unique_lock lock(mutex_);
  links_[key] = config;
}

LinkConfig LinkCostModel::link_for(std::string_view from, std::string_view to) const {
  std::shared_lock lock(mutex_);
  if (links_.empty()) return default_link_;
  const util::SymbolTable& symbols = util::SymbolTable::global();
  const util::InternedName from_id = symbols.find(from);
  if (!from_id.valid()) return default_link_;
  const util::InternedName to_id = symbols.find(to);
  if (!to_id.valid()) return default_link_;
  const auto it = links_.find(util::pair_key(from_id, to_id));
  return it == links_.end() ? default_link_ : it->second;
}

double LinkCostModel::next_uniform() noexcept {
  // One shared SplitMix64 stream: fetch_add hands every caller a distinct
  // state, so concurrent draws never repeat a value.
  std::uint64_t z =
      rng_state_.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed) +
      0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

bool LinkCostModel::charge(const Message& message, std::size_t wire_bytes, NetStats& stats,
                           util::SimClock& clock) {
  const LinkConfig link = link_for(message.sender, message.recipient);
  if (link.drop_probability > 0.0 && next_uniform() < link.drop_probability) {
    ++stats.drops;
    return false;
  }
  charge_traversal(link, wire_bytes, stats, clock);
  return true;
}

}  // namespace pti::transport
