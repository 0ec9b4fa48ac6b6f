#include "transport/sim_network.hpp"
#include "util/epoch.hpp"

#include <memory>

namespace pti::transport {

std::unique_ptr<Transport> make_sim_network(std::uint64_t seed) {
  return std::make_unique<SimNetwork>(seed);
}

void SimNetwork::attach(std::string_view name, Handler handler) {
  if (!handler) throw TransportError("cannot attach a null handler");
  if (name.empty()) throw TransportError("endpoint name cannot be empty");
  const auto [it, inserted] =
      handlers_.emplace(std::string(name), std::make_shared<Handler>(std::move(handler)));
  if (!inserted) {
    throw TransportError("endpoint '" + std::string(name) +
                         "' is already attached (detach it first)");
  }
}

void SimNetwork::detach(std::string_view name) {
  const auto it = handlers_.find(name);
  if (it != handlers_.end()) handlers_.erase(it);
}

bool SimNetwork::is_attached(std::string_view name) const noexcept {
  return handlers_.find(name) != handlers_.end();
}

void SimNetwork::set_link(std::string_view from, std::string_view to,
                          const LinkConfig& config) {
  util::SymbolTable& symbols = util::SymbolTable::global();
  links_[util::pair_key(symbols.intern(from), symbols.intern(to))] = config;
}

void SimNetwork::partition(std::string_view from, std::string_view to) {
  util::SymbolTable& symbols = util::SymbolTable::global();
  partitions_.insert(util::pair_key(symbols.intern(from), symbols.intern(to)));
}

void SimNetwork::heal_partition(std::string_view from, std::string_view to) {
  const util::SymbolTable& symbols = util::SymbolTable::global();
  const util::InternedName from_id = symbols.find(from);
  const util::InternedName to_id = symbols.find(to);
  if (from_id.valid() && to_id.valid()) {
    partitions_.erase(util::pair_key(from_id, to_id));
  }
}

bool SimNetwork::is_partitioned(std::string_view from,
                                std::string_view to) const noexcept {
  if (partitions_.empty()) return false;
  const util::SymbolTable& symbols = util::SymbolTable::global();
  const util::InternedName from_id = symbols.find(from);
  if (!from_id.valid()) return false;
  const util::InternedName to_id = symbols.find(to);
  if (!to_id.valid()) return false;
  return partitions_.contains(util::pair_key(from_id, to_id));
}

const LinkConfig& SimNetwork::link_for(std::string_view from,
                                       std::string_view to) const noexcept {
  if (links_.empty()) return default_link_;
  // Peer names on an overridden link were interned by set_link; a name the
  // symbol table has never seen cannot key an override.
  const util::SymbolTable& symbols = util::SymbolTable::global();
  const util::InternedName from_id = symbols.find(from);
  if (!from_id.valid()) return default_link_;
  const util::InternedName to_id = symbols.find(to);
  if (!to_id.valid()) return default_link_;
  const auto it = links_.find(util::pair_key(from_id, to_id));
  return it == links_.end() ? default_link_ : it->second;
}

bool SimNetwork::charge(const Message& message) {
  ++seen_;
  if (const auto it = scheduled_drops_.find(seen_); it != scheduled_drops_.end()) {
    scheduled_drops_.erase(it);
    ++stats_.drops;
    return false;
  }
  if (forced_drops_ > 0) {
    --forced_drops_;
    ++stats_.drops;
    return false;
  }
  if (is_partitioned(message.sender, message.recipient)) {
    ++stats_.drops;
    return false;
  }
  const LinkConfig& link = link_for(message.sender, message.recipient);
  if (link.drop_probability > 0.0 && rng_.next_bool(link.drop_probability)) {
    ++stats_.drops;
    return false;
  }
  charge_traversal(link, message.wire_size(), stats_, clock_);
  return true;
}

Message SimNetwork::send(const Message& request) {
  const auto it = handlers_.find(request.recipient);
  if (it == handlers_.end()) {
    throw NetworkError("no peer attached as '" + request.recipient + "'");
  }
  // Keep the handler alive across the call: the handler may detach itself
  // (or another endpoint may detach it via a nested send) mid-execution.
  const std::shared_ptr<Handler> handler = it->second;
  // Epoch pin spanning admission + handler: everything this exchange reads
  // from the lock-free stores stays valid even while a ResourceGovernor
  // sweeps (see util/epoch.hpp).
  const util::EpochManager::Pin pin(util::EpochManager::global());
  // Admission before any charge or handler work: an over-budget sender
  // costs the admission check, nothing more. Violations propagate as
  // pti::ResourceExhaustedError straight to the (in-process) caller.
  PeerQuotaTable::InflightGuard inflight;
  if (quotas_.enabled()) inflight = quotas_.admit(request, clock_.now_ns());
  if (!charge(request)) throw NetworkError(drop_reason(request, Leg::Request));
  Message response = (*handler)(request);
  address_response(request, response);
  if (!charge(response)) throw NetworkError(drop_reason(response, Leg::Response));
  return response;
}

}  // namespace pti::transport
