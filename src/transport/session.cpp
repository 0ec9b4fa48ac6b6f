#include "transport/session.hpp"

#include <algorithm>
#include <utility>

namespace pti::transport {

SessionTable::SendPlan SessionTable::plan(const std::string& to,
                                          const std::vector<std::string>& names,
                                          std::uint64_t token) {
  std::scoped_lock lock(outbound_mutex_);
  SendPlan plan;
  plan.token = token;
  OutboundSession* session = nullptr;
  if (token == 0) {
    session = &outbound_[to];
    if (session->token == 0) {
      session->token = next_token_.fetch_add(1, std::memory_order_relaxed);
    }
    plan.token = session->token;
  } else if (const auto it = outbound_.find(to);
             it != outbound_.end() && it->second.token == token) {
    session = &it->second;
  } else {
    return plan;  // a reset replaced the token: bind nothing
  }
  plan.wire_ids.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto [it, inserted] = session->bindings.try_emplace(names[i]);
    if (inserted) it->second.wire_id = session->next_wire_id++;
    plan.wire_ids.push_back(it->second.wire_id);
    if (!it->second.introduced) plan.fresh.push_back(i);
  }
  return plan;
}

void SessionTable::commit_send(const std::string& to, std::uint64_t token,
                               const std::vector<std::string>& names,
                               const std::vector<std::size_t>& fresh) {
  std::scoped_lock lock(outbound_mutex_);
  const auto it = outbound_.find(to);
  if (it == outbound_.end() || it->second.token != token) return;  // session was reset
  for (const std::size_t index : fresh) {
    const auto binding = it->second.bindings.find(names[index]);
    if (binding != it->second.bindings.end()) binding->second.introduced = true;
  }
}

void SessionTable::reset_peer(const std::string& to) {
  std::scoped_lock lock(outbound_mutex_);
  outbound_.erase(to);
}

void SessionTable::open_inbound(const std::string& from, std::uint64_t token) {
  std::scoped_lock lock(inbound_mutex_);
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    if (inbound_.size() >= config_.max_peer_sessions) {
      // Evict the least recently used sender; it will see one Reset and
      // replay with intros. Linear scan: eviction is the rare path and
      // max_peer_sessions is small.
      auto victim = inbound_.begin();
      for (auto scan = inbound_.begin(); scan != inbound_.end(); ++scan) {
        if (scan->second.last_use < victim->second.last_use) victim = scan;
      }
      inbound_.erase(victim);
    }
    it = inbound_.try_emplace(from).first;
    it->second.token = token;
  } else if (it->second.token != token) {
    // The sender started a new session (its side was reset): the old wire
    // map and verdicts belong to the dead token.
    it->second = InboundSession{};
    it->second.token = token;
  }
  it->second.last_use = ++use_clock_;
}

bool SessionTable::learn(const std::string& from, std::uint64_t token,
                         const SessionIntro& intro) {
  std::scoped_lock lock(inbound_mutex_);
  const auto it = inbound_.find(from);
  if (it == inbound_.end() || it->second.token != token) return false;
  auto& wire_map = it->second.wire_map;
  if (wire_map.size() >= kMaxInboundBindings && !wire_map.contains(intro.wire_id)) {
    inbound_.erase(it);
    return false;
  }
  serial::TypeInfoEntry entry{intro.type_name, {}, intro.assembly_name, intro.download_path};
  return wire_map.insert_or_assign(intro.wire_id, std::move(entry)).second;
}

bool SessionTable::resolve(const std::string& from, std::uint64_t token,
                           const std::vector<std::uint32_t>& wire_types,
                           std::vector<serial::TypeInfoEntry>& out) const {
  std::scoped_lock lock(inbound_mutex_);
  const auto it = inbound_.find(from);
  if (it == inbound_.end() || it->second.token != token) return false;
  out.clear();
  out.reserve(wire_types.size());
  for (const std::uint32_t id : wire_types) {
    const auto entry = it->second.wire_map.find(id);
    if (entry == it->second.wire_map.end()) return false;
    out.push_back(entry->second);
  }
  return true;
}

std::optional<SessionTable::Verdict> SessionTable::find_verdict(
    const std::string& from, std::uint64_t token, std::uint32_t root,
    const std::vector<std::uint32_t>& wire_types) const {
  const std::uint64_t gen = generation();
  std::scoped_lock lock(inbound_mutex_);
  const auto it = inbound_.find(from);
  if (it == inbound_.end() || it->second.token != token) return std::nullopt;
  const auto stored = it->second.verdicts.find(root);
  if (stored == it->second.verdicts.end()) return std::nullopt;
  if (stored->second.generation != gen) return std::nullopt;
  if (stored->second.verdict.wire_types != wire_types) return std::nullopt;
  return stored->second.verdict;
}

void SessionTable::store_verdict(const std::string& from, std::uint64_t token,
                                 std::uint32_t root, Verdict verdict,
                                 std::uint64_t gen) {
  // A verdict computed before an invalidation must not land: the generation
  // read before the computation is compared against the current one.
  if (gen != generation()) return;
  std::scoped_lock lock(inbound_mutex_);
  const auto it = inbound_.find(from);
  if (it == inbound_.end() || it->second.token != token) return;
  it->second.verdicts.insert_or_assign(root, InboundSession::StoredVerdict{
                                                 std::move(verdict), gen});
}

std::size_t SessionTable::inbound_sessions() const {
  std::scoped_lock lock(inbound_mutex_);
  return inbound_.size();
}

}  // namespace pti::transport
