#include "transport/async_transport.hpp"

#include <algorithm>
#include <utility>

#include "transport/transport_error.hpp"
#include "util/epoch.hpp"

namespace pti::transport {

namespace {

[[nodiscard]] std::exception_ptr detached_error(std::string_view name) {
  return std::make_exception_ptr(
      NetworkError("endpoint '" + std::string(name) + "' detached before delivery"));
}

}  // namespace

AsyncTransport::AsyncTransport(AsyncTransportConfig config)
    : config_(config) {
  if (config_.max_inbox == 0) {
    throw TransportError("AsyncTransport needs max_inbox >= 1");
  }
  const std::size_t workers = std::max<std::size_t>(1, config_.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AsyncTransport::~AsyncTransport() {
  std::deque<PendingSend> orphaned;
  {
    std::unique_lock lock(mutex_);
    shutdown_ = true;
    for (auto& [endpoint, inbox] : inboxes_) {
      for (auto& pending : inbox) orphaned.push_back(std::move(pending));
    }
    inboxes_.clear();
  }
  work_cv_.notify_all();
  state_cv_.notify_all();
  const auto error = std::make_exception_ptr(
      NetworkError("transport destroyed before the message was delivered"));
  for (auto& pending : orphaned) pending.complete(Message{}, error);
  for (auto& worker : workers_) worker.join();
}

void AsyncTransport::detach(std::string_view name) {
  const std::shared_ptr<Endpoint> endpoint = registry_.unlink(name);
  if (!endpoint) return;
  std::deque<PendingSend> orphaned;
  {
    std::unique_lock lock(mutex_);
    if (const auto inbox = inboxes_.find(endpoint.get()); inbox != inboxes_.end()) {
      orphaned.swap(inbox->second);
      inboxes_.erase(inbox);
      total_queued_ -= orphaned.size();
    }
  }
  state_cv_.notify_all();  // blocked senders re-check and fail
  registry_.quiesce(*endpoint);
  const auto error = detached_error(name);
  for (auto& pending : orphaned) pending.complete(Message{}, error);
}

Message AsyncTransport::exchange(const Handler& handler, const Message& request) {
  // Epoch pin spanning admission + handler: everything this exchange reads
  // from the lock-free stores stays valid even while a ResourceGovernor
  // sweeps (see util/epoch.hpp).
  const util::EpochManager::Pin pin(util::EpochManager::global());
  // Admission before any charge or handler work. The guard spans the
  // handler execution, so max_inflight counts exchanges actually running,
  // whichever path (sync send or worker) carried them here.
  PeerQuotaTable::InflightGuard inflight;
  if (quotas_.enabled()) inflight = quotas_.admit(request, clock_.now_ns());
  if (!charge(request)) throw NetworkError(drop_reason(request, Leg::Request));
  Message response = handler(request);
  address_response(request, response);
  if (!charge(response)) throw NetworkError(drop_reason(response, Leg::Response));
  return response;
}

Message AsyncTransport::send(const Message& request) {
  const EndpointRegistry::Execution execution = registry_.begin(request.recipient);
  if (!execution) throw NetworkError("no peer attached as '" + request.recipient + "'");
  return exchange(execution.handler(), request);
}

void AsyncTransport::send_async(Message request, SendCallback on_complete) {
  if (!on_complete) throw TransportError("send_async requires a completion callback");
  PendingSend pending{std::move(request), std::move(on_complete)};
  std::exception_ptr failure;
  {
    std::unique_lock lock(mutex_);
    for (;;) {
      if (shutdown_) {
        failure = std::make_exception_ptr(NetworkError("transport is shutting down"));
        break;
      }
      // Looked up under mutex_: a detach that unregisters the endpoint
      // after this point flushes its inbox only once this push is done.
      std::shared_ptr<Endpoint> endpoint = registry_.find(pending.request.recipient);
      if (!endpoint) {
        failure = std::make_exception_ptr(
            NetworkError("no peer attached as '" + pending.request.recipient + "'"));
        break;
      }
      std::deque<PendingSend>& inbox = inboxes_[endpoint.get()];
      if (inbox.size() < config_.max_inbox) {
        inbox.push_back(std::move(pending));
        ++total_queued_;
        ready_.push_back(std::move(endpoint));
        work_cv_.notify_one();
        return;
      }
      if (config_.overflow == Overflow::Reject) {
        failure = std::make_exception_ptr(
            TransportError("backpressure: inbox of '" + pending.request.recipient +
                           "' is full (" + std::to_string(config_.max_inbox) + ")"));
        break;
      }
      if (EndpointRegistry::executing_on_this_thread()) {
        // Block policy, but the caller IS a handler execution (a worker or
        // a sync-send frame): waiting for inbox space that only workers
        // free would deadlock the pool. Fail fast instead — this is what
        // makes "send_async from handlers only enqueues" a sound rule.
        failure = std::make_exception_ptr(TransportError(
            "backpressure: inbox of '" + pending.request.recipient +
            "' is full and send_async was called from inside a handler "
            "(blocking here would deadlock the worker pool)"));
        break;
      }
      // Block until a worker frees inbox space (or the world changes).
      state_cv_.wait(lock);
    }
  }
  pending.complete(Message{}, failure);
}

void AsyncTransport::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || !ready_.empty(); });
    if (shutdown_) return;
    const std::shared_ptr<Endpoint> endpoint = std::move(ready_.front());
    ready_.pop_front();
    const auto inbox = inboxes_.find(endpoint.get());
    if (inbox == inboxes_.end()) continue;  // flushed by a detach
    PendingSend pending = std::move(inbox->second.front());
    inbox->second.pop_front();
    if (inbox->second.empty()) inboxes_.erase(inbox);
    --total_queued_;
    {
      // Begun before mutex_ is released, so drain() never finds this
      // request neither queued nor executing. The completion runs inside
      // the execution: callbacks are handler context too.
      const EndpointRegistry::Execution execution =
          registry_.begin(pending.request.recipient, endpoint.get());
      lock.unlock();
      state_cv_.notify_all();  // inbox space freed; blocked senders may proceed
      if (!execution) {
        pending.complete(Message{}, detached_error(pending.request.recipient));
      } else {
        Message response;
        std::exception_ptr error;
        try {
          response = exchange(execution.handler(), pending.request);
        } catch (...) {
          error = std::current_exception();
        }
        pending.complete(std::move(response), error);
      }
    }
    lock.lock();
  }
}

void AsyncTransport::drain() {
  registry_.drain(mutex_, state_cv_, [&] { return total_queued_ == 0; });
}

std::size_t AsyncTransport::pending() const {
  std::unique_lock lock(mutex_);
  return total_queued_ + registry_.executing();
}

}  // namespace pti::transport
