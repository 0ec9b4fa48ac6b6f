// FlatIdMap — an open-addressing map from 64-bit ids to 32-bit values, for
// hot paths that insert one id per operation: entries live in one slot
// array (no heap block per entry), and clear() is O(1), so a map that is
// filled and emptied many times never re-walks its capacity.
//
// Only what the megasim needs: insert-or-find and clear; no erase.
//
// Thread safety: none.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace pti::util {

class FlatIdMap {
 public:
  /// The value stored for `id`, after inserting `value` when `id` was
  /// absent; `.second` is true when it inserted.
  std::pair<std::uint32_t, bool> try_emplace(std::uint64_t id, std::uint32_t value) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    Slot& slot = probe(id);
    if (slot.generation == generation_) return {slot.value, false};
    slot = Slot{id, value, generation_};
    ++size_;
    return {value, true};
  }

  /// Empties the map; keeps the capacity.
  void clear() noexcept {
    size_ = 0;
    if (++generation_ == 0) {
      // The stamp wrapped: a slot stamped 2^32 clears ago would look live.
      for (Slot& slot : slots_) slot.generation = 0;
      generation_ = 1;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint64_t id = 0;
    std::uint32_t value = 0;
    std::uint32_t generation = 0;  ///< live iff equal to the map's generation_
  };

  /// The slot holding `id`, or the free slot where it belongs.
  Slot& probe(std::uint64_t id) noexcept {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of id * 2^64/phi pick the home slot,
    // so ids that differ only in low or only in high bits still spread.
    for (std::size_t i = (id * 0x9E3779B97F4A7C15ULL) >> shift_;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_ || slot.id == id) return slot;
    }
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
    const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    const std::uint32_t live = generation_;
    generation_ = 1;
    for (const Slot& slot : old) {
      if (slot.generation == live) probe(slot.id) = Slot{slot.id, slot.value, generation_};
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  std::size_t size_ = 0;
  unsigned shift_ = 64;
  std::uint32_t generation_ = 1;
};

}  // namespace pti::util
