#include "transport/endpoint_registry.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "transport/transport_error.hpp"

namespace pti::transport {

namespace {

/// Endpoints whose handler is executing on THIS thread, innermost last.
thread_local std::vector<const EndpointRegistry::Endpoint*> tl_executing;

}  // namespace

struct EndpointRegistry::Endpoint {
  const Transport::Handler handler;
  std::size_t executing = 0;  ///< guarded by the registry's mutex
};

void PendingSend::complete(Message response, std::exception_ptr error) noexcept {
  try {
    on_complete(std::move(response), std::move(error));
  } catch (...) {
  }
}

EndpointRegistry::Execution::Execution(EndpointRegistry& registry,
                                       std::shared_ptr<Endpoint> endpoint)
    : registry_(&registry), endpoint_(std::move(endpoint)) {
  tl_executing.push_back(endpoint_.get());  // may throw: before the counts move
  ++endpoint_->executing;
  ++registry_->executing_;
}

EndpointRegistry::Execution::~Execution() {
  if (!endpoint_) return;
  tl_executing.pop_back();
  bool endpoint_idle = false;
  {
    std::lock_guard lock(registry_->mutex_);
    --registry_->executing_;
    endpoint_idle = --endpoint_->executing == 0;
  }
  if (endpoint_idle) registry_->idle_cv_.notify_all();
}

const Transport::Handler& EndpointRegistry::Execution::handler() const noexcept {
  return endpoint_->handler;
}

void EndpointRegistry::attach(std::string_view name, Transport::Handler handler) {
  if (!handler) throw TransportError("cannot attach a null handler");
  if (name.empty()) throw TransportError("endpoint name cannot be empty");
  auto endpoint = std::make_shared<Endpoint>(std::move(handler));
  std::lock_guard lock(mutex_);
  if (!endpoints_.emplace(std::string(name), std::move(endpoint)).second) {
    throw TransportError("endpoint '" + std::string(name) +
                         "' is already attached (detach it first)");
  }
}

std::shared_ptr<EndpointRegistry::Endpoint> EndpointRegistry::unlink(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = endpoints_.find(name);
  if (it == endpoints_.end()) return nullptr;
  std::shared_ptr<Endpoint> endpoint = std::move(it->second);
  endpoints_.erase(it);
  return endpoint;
}

void EndpointRegistry::quiesce(const Endpoint& endpoint) const {
  if (std::find(tl_executing.begin(), tl_executing.end(), &endpoint) != tl_executing.end()) {
    return;
  }
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return endpoint.executing == 0; });
}

bool EndpointRegistry::is_attached(std::string_view name) const {
  std::lock_guard lock(mutex_);
  return endpoints_.find(name) != endpoints_.end();
}

std::shared_ptr<EndpointRegistry::Endpoint> EndpointRegistry::find(
    std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = endpoints_.find(name);
  return it == endpoints_.end() ? nullptr : it->second;
}

EndpointRegistry::Execution EndpointRegistry::begin(std::string_view name,
                                                    const Endpoint* incarnation) {
  std::lock_guard lock(mutex_);
  const auto it = endpoints_.find(name);
  if (it == endpoints_.end() || (incarnation != nullptr && it->second.get() != incarnation)) {
    return Execution();
  }
  return Execution(*this, it->second);
}

std::size_t EndpointRegistry::executing() const {
  std::lock_guard lock(mutex_);
  return executing_;
}

bool EndpointRegistry::executing_on_this_thread() noexcept { return !tl_executing.empty(); }

}  // namespace pti::transport
