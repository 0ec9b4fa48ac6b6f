#include "transport/interest_index.hpp"

#include <algorithm>
#include <bit>

#include "transport/transport_error.hpp"
#include "util/error.hpp"

namespace pti::transport {

// ---------------------------------------------------------------------------
// PostingList
// ---------------------------------------------------------------------------

InterestIndex::PostingList::Dir::Dir(std::uint32_t capacity)
    : chunk_capacity(capacity), chunks(new std::atomic<Chunk*>[capacity]) {
  for (std::uint32_t i = 0; i < capacity; ++i) chunks[i].store(nullptr, std::memory_order_relaxed);
}

InterestIndex::PostingList::Dir::~Dir() {
  if (!owns_chunks) return;
  for (std::uint32_t i = 0; i < chunk_capacity; ++i) {
    delete chunks[i].load(std::memory_order_relaxed);
  }
}

InterestIndex::PostingList::~PostingList() { delete dir_.load(std::memory_order_relaxed); }

InterestIndex::PostingList::Dir* InterestIndex::PostingList::ensure_capacity(
    std::uint32_t needed_slots, util::EpochManager& em) {
  Dir* dir = dir_.load(std::memory_order_relaxed);
  const std::uint32_t needed_chunks = (needed_slots + kChunkSize - 1) / kChunkSize;
  if (dir != nullptr && needed_chunks <= dir->chunk_capacity) return dir;
  const std::uint32_t capacity =
      std::max<std::uint32_t>({4, needed_chunks, dir ? dir->chunk_capacity * 2 : 0});
  Dir* grown = new Dir(capacity);
  if (dir != nullptr) {
    for (std::uint32_t i = 0; i < dir->chunk_capacity; ++i) {
      grown->chunks[i].store(dir->chunks[i].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    }
    grown->count.store(dir->count.load(std::memory_order_relaxed), std::memory_order_relaxed);
    // The successor now references the same chunks: the retired shell must
    // not free them when its epoch expires.
    dir->owns_chunks = false;
  }
  dir_.store(grown, std::memory_order_release);
  if (dir != nullptr) em.retire(dir);
  return grown;
}

void InterestIndex::PostingList::append(std::uint32_t value, util::EpochManager& em) {
  Dir* dir = dir_.load(std::memory_order_relaxed);
  const std::uint32_t slot = dir ? dir->count.load(std::memory_order_relaxed) : 0;
  dir = ensure_capacity(slot + 1, em);
  const std::uint32_t chunk_idx = slot / kChunkSize;
  Chunk* chunk = dir->chunks[chunk_idx].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    for (auto& s : chunk->slots) s.store(kTombstone, std::memory_order_relaxed);
    dir->chunks[chunk_idx].store(chunk, std::memory_order_release);
  }
  chunk->slots[slot % kChunkSize].store(value, std::memory_order_relaxed);
  dir->count.store(slot + 1, std::memory_order_release);
  live_.fetch_add(1, std::memory_order_relaxed);
}

bool InterestIndex::PostingList::erase(std::uint32_t value, util::EpochManager& em) {
  Dir* dir = dir_.load(std::memory_order_relaxed);
  if (dir == nullptr) return false;
  const std::uint32_t n = dir->count.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < n; ++i) {
    Chunk* chunk = dir->chunks[i / kChunkSize].load(std::memory_order_relaxed);
    auto& cell = chunk->slots[i % kChunkSize];
    if (cell.load(std::memory_order_relaxed) != value) continue;
    cell.store(kTombstone, std::memory_order_relaxed);
    live_.fetch_sub(1, std::memory_order_relaxed);
    ++tombstones_;
    // Compact once tombstones dominate, so churn cannot grow a posting
    // list beyond ~2x its live population.
    if (tombstones_ >= kChunkSize && tombstones_ > live()) compact(em);
    return true;
  }
  return false;
}

void InterestIndex::PostingList::compact(util::EpochManager& em) {
  Dir* old_dir = dir_.load(std::memory_order_relaxed);
  if (old_dir == nullptr) return;
  const std::uint32_t n = old_dir->count.load(std::memory_order_relaxed);
  std::vector<std::uint32_t> kept;
  kept.reserve(live());
  for (std::uint32_t i = 0; i < n; ++i) {
    Chunk* chunk = old_dir->chunks[i / kChunkSize].load(std::memory_order_relaxed);
    const std::uint32_t v = chunk->slots[i % kChunkSize].load(std::memory_order_relaxed);
    if (v != kTombstone) kept.push_back(v);
  }
  const std::uint32_t chunk_count =
      std::max<std::uint32_t>(4, (static_cast<std::uint32_t>(kept.size()) + kChunkSize - 1) /
                                     kChunkSize);
  Dir* fresh = new Dir(chunk_count);
  for (std::uint32_t i = 0; i < kept.size(); ++i) {
    const std::uint32_t chunk_idx = i / kChunkSize;
    Chunk* chunk = fresh->chunks[chunk_idx].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk();
      for (auto& s : chunk->slots) s.store(kTombstone, std::memory_order_relaxed);
      fresh->chunks[chunk_idx].store(chunk, std::memory_order_relaxed);
    }
    chunk->slots[i % kChunkSize].store(kept[i], std::memory_order_relaxed);
  }
  fresh->count.store(static_cast<std::uint32_t>(kept.size()), std::memory_order_relaxed);
  dir_.store(fresh, std::memory_order_release);
  tombstones_ = 0;
  // The old dir still owns its (now unreachable) chunks: pinned readers
  // may be mid-iteration over them, so both dir and chunks free together
  // once every such pin has released.
  em.retire(old_dir);
}

template <class Fn>
void InterestIndex::PostingList::for_each(Fn&& fn) const {
  const Dir* dir = dir_.load(std::memory_order_acquire);
  if (dir == nullptr) return;
  const std::uint32_t n = dir->count.load(std::memory_order_acquire);
  for (std::uint32_t base = 0; base < n; base += kChunkSize) {
    const Chunk* chunk = dir->chunks[base / kChunkSize].load(std::memory_order_acquire);
    const std::uint32_t limit = std::min(n - base, kChunkSize);
    for (std::uint32_t i = 0; i < limit; ++i) {
      const std::uint32_t v = chunk->slots[i].load(std::memory_order_relaxed);
      if (v != kTombstone && !fn(v)) return;
    }
  }
}

std::size_t InterestIndex::PostingList::collect(std::vector<std::uint32_t>& out) const {
  const std::size_t before = out.size();
  for_each([&out](std::uint32_t v) {
    out.push_back(v);
    return true;
  });
  return out.size() - before;
}

// ---------------------------------------------------------------------------
// InterestIndex
// ---------------------------------------------------------------------------

InterestIndex::InterestIndex(util::EpochManager* epochs)
    : epochs_(epochs != nullptr ? *epochs : util::EpochManager::global()) {}

InterestIndex::~InterestIndex() {
  for (auto& chunk_ptr : slot_chunks_) {
    SlotChunk* chunk = chunk_ptr.load(std::memory_order_relaxed);
    if (chunk == nullptr) continue;
    for (auto& slot : chunk->slots) {
      delete slot.interests.load(std::memory_order_relaxed);
    }
    delete chunk;
  }
}

InterestIndex::SubscriberSlot* InterestIndex::slot_of(SubscriberId sub) const noexcept {
  if (sub == kNoSubscriber) return nullptr;
  const std::uint32_t chunk_idx = sub / kSlotChunkSize;
  if (chunk_idx >= kMaxSlotChunks) return nullptr;
  SlotChunk* chunk = slot_chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return &chunk->slots[sub % kSlotChunkSize];
}

SubscriberId InterestIndex::add_subscriber() {
  std::scoped_lock lock(subscriber_mutex_);
  SubscriberId id = kNoSubscriber;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    if (slot_high_water_ >= kMaxSlotChunks * kSlotChunkSize) {
      throw pti::ResourceExhaustedError("InterestIndex subscriber capacity exhausted");
    }
    id = slot_high_water_++;
    const std::uint32_t chunk_idx = id / kSlotChunkSize;
    if (slot_chunks_[chunk_idx].load(std::memory_order_relaxed) == nullptr) {
      slot_chunks_[chunk_idx].store(new SlotChunk(), std::memory_order_release);
    }
  }
  SubscriberSlot* slot = slot_of(id);
  slot->live.store(true, std::memory_order_release);
  subscribers_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void InterestIndex::remove_subscriber(SubscriberId sub) {
  std::scoped_lock lock(subscriber_mutex_);
  SubscriberSlot* slot = slot_of(sub);
  if (slot == nullptr || !slot->live.load(std::memory_order_relaxed)) return;
  const std::vector<util::InternedName>* current =
      slot->interests.load(std::memory_order_relaxed);
  if (current != nullptr) {
    for (const util::InternedName interest : *current) {
      Shard& shard = shards_[shard_of(interest)];
      std::unique_lock shard_lock(shard.mutex);
      const auto it = shard.postings.find(interest);
      if (it != shard.postings.end() && it->second->erase(sub, epochs_)) {
        entries_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    slot->interests.store(nullptr, std::memory_order_release);
    epochs_.retire(const_cast<std::vector<util::InternedName>*>(current));
  }
  slot->live.store(false, std::memory_order_release);
  free_ids_.push_back(sub);
  subscribers_.fetch_sub(1, std::memory_order_relaxed);
}

bool InterestIndex::is_live(SubscriberId sub) const noexcept {
  const SubscriberSlot* slot = slot_of(sub);
  return slot != nullptr && slot->live.load(std::memory_order_acquire);
}

void InterestIndex::add_interest(SubscriberId sub, util::InternedName interest) {
  if (!interest.valid()) throw TransportError("cannot register an invalid interest id");
  std::scoped_lock lock(subscriber_mutex_);
  SubscriberSlot* slot = slot_of(sub);
  if (slot == nullptr || !slot->live.load(std::memory_order_relaxed)) {
    throw TransportError("interest registered for an unknown subscriber");
  }
  const std::vector<util::InternedName>* current =
      slot->interests.load(std::memory_order_relaxed);
  if (current != nullptr &&
      std::find(current->begin(), current->end(), interest) != current->end()) {
    return;  // idempotent per (sub, interest)
  }
  auto* grown = current != nullptr ? new std::vector<util::InternedName>(*current)
                                   : new std::vector<util::InternedName>();
  grown->push_back(interest);
  slot->interests.store(grown, std::memory_order_release);
  if (current != nullptr) {
    epochs_.retire(const_cast<std::vector<util::InternedName>*>(current));
  }

  Shard& shard = shards_[shard_of(interest)];
  std::unique_lock shard_lock(shard.mutex);
  auto& posting = shard.postings[interest];
  if (posting == nullptr) posting = std::make_unique<PostingList>();
  posting->append(sub, epochs_);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

const std::vector<util::InternedName>* InterestIndex::interests_of(
    SubscriberId sub) const noexcept {
  const SubscriberSlot* slot = slot_of(sub);
  if (slot == nullptr) return nullptr;
  return slot->interests.load(std::memory_order_acquire);
}

std::optional<util::InternedName> InterestIndex::match_first(
    SubscriberId sub, const std::function<bool(util::InternedName)>& accept) const {
  util::EpochManager::Pin pin(epochs_);
  const std::vector<util::InternedName>* interests = interests_of(sub);
  if (interests == nullptr) return std::nullopt;
  for (const util::InternedName interest : *interests) {
    if (accept(interest)) return interest;
  }
  return std::nullopt;
}

const InterestIndex::PostingList* InterestIndex::find_posting(
    util::InternedName interest) const {
  const Shard& shard = shards_[shard_of(interest)];
  std::shared_lock lock(shard.mutex);
  const auto it = shard.postings.find(interest);
  return it == shard.postings.end() ? nullptr : it->second.get();
}

std::size_t InterestIndex::collect_subscribers(util::InternedName interest,
                                               std::vector<SubscriberId>& out) const {
  const PostingList* posting = find_posting(interest);
  if (posting == nullptr) return 0;
  return posting->collect(out);
}

std::size_t InterestIndex::collect_interests(std::vector<util::InternedName>& out) const {
  const std::size_t before = out.size();
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [interest, posting] : shard.postings) {
      if (posting->live() > 0) out.push_back(interest);
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
            [](util::InternedName a, util::InternedName b) { return a.value() < b.value(); });
  return out.size() - before;
}

std::size_t InterestIndex::collect_matches(
    const std::function<bool(util::InternedName)>& accept, std::vector<SubscriberId>& out,
    FanoutScratch& scratch, std::size_t limit) const {
  util::EpochManager::Pin pin(epochs_);
  out.clear();
  scratch.interests.clear();
  collect_interests(scratch.interests);
  // Mark the union: a subscriber under several accepted interests sets
  // the same bit, and reading the words in order yields ascending ids.
  std::vector<std::uint64_t>& seen = scratch.seen;
  std::size_t first_word = std::numeric_limits<std::size_t>::max();
  std::size_t end_word = 0;
  for (const util::InternedName interest : scratch.interests) {
    const PostingList* posting = find_posting(interest);
    if (posting == nullptr || posting->live() == 0 || !accept(interest)) continue;
    posting->for_each([&](std::uint32_t sub) {
      const std::size_t word = sub / 64;
      if (word >= seen.size()) seen.resize(word + 1, 0);
      seen[word] |= std::uint64_t{1} << (sub % 64);
      first_word = std::min(first_word, word);
      end_word = std::max(end_word, word + 1);
      return true;
    });
  }
  for (std::size_t word = first_word; word < end_word; ++word) {
    std::uint64_t bits = seen[word];
    seen[word] = 0;
    for (; bits != 0 && out.size() < limit; bits &= bits - 1) {
      out.push_back(static_cast<SubscriberId>(word * 64 + std::countr_zero(bits)));
    }
  }
  return out.size();
}

std::size_t InterestIndex::subscriber_count() const noexcept {
  return subscribers_.load(std::memory_order_relaxed);
}

std::size_t InterestIndex::entry_count() const noexcept {
  return entries_.load(std::memory_order_relaxed);
}

std::size_t InterestIndex::interest_count() const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [interest, posting] : shard.postings) {
      if (posting->live() > 0) ++count;
    }
  }
  return count;
}

}  // namespace pti::transport
