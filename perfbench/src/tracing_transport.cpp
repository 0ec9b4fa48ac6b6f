#include "tracing_transport.hpp"

#include <algorithm>
#include <exception>

namespace pti::perfbench {

TracingTransport::TracingTransport(std::unique_ptr<transport::SocketTransport> inner,
                                   Tracer& tracer)
    : tracer_(tracer), inner_(std::move(inner)) {}

std::string TracingTransport::route_key(const transport::Message& m) {
  std::string key;
  key.reserve(m.sender.size() + m.recipient.size() + 1);
  key.append(m.sender).push_back('\n');
  key.append(m.recipient);
  return key;
}

std::uint32_t TracingTransport::open_exchange(const transport::Message& request,
                                              MsgKind kind) {
  const std::uint32_t parent = current_span();
  const std::uint32_t id =
      tracer_.open(SpanKind::Exchange, kind, parent, tracer_.push_of(parent));
  if (id != 0) {
    std::scoped_lock lock(inflight_mutex_);
    inflight_[route_key(request)].push_back(id);
  }
  return id;
}

void TracingTransport::close_exchange(const std::string& key, std::uint32_t id) {
  if (id == 0) return;
  tracer_.close(id);
  // The handler normally claimed the entry already; a refused request
  // (quota, fault) never reached one, so drop it here.
  std::scoped_lock lock(inflight_mutex_);
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  const auto pos = std::find(it->second.begin(), it->second.end(), id);
  if (pos != it->second.end()) it->second.erase(pos);
}

void TracingTransport::attach(std::string_view name, Handler handler) {
  inner_->attach(name, [this, handler = std::move(handler)](const transport::Message& m) {
    std::uint32_t exchange = 0;
    {
      std::scoped_lock lock(inflight_mutex_);
      const auto it = inflight_.find(route_key(m));
      if (it != inflight_.end() && !it->second.empty()) {
        exchange = it->second.front();
        it->second.pop_front();
      }
    }
    const Scope span(exchange != 0 ? &tracer_ : nullptr, SpanKind::Handler, msg_kind_of(m),
                     exchange, tracer_.push_of(exchange));
    return handler(m);
  });
}

bool TracingTransport::take_sample(MsgKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  if (k >= kMsgKinds) return false;
  std::scoped_lock lock(samples_mutex_);
  return samples_[k].size() < kMaxSamples && seen_[k]++ % kSampleEvery == 0;
}

void TracingTransport::keep_sample(MsgKind kind, const transport::Message& request,
                                   const transport::Message& response) {
  std::scoped_lock lock(samples_mutex_);
  samples_[static_cast<std::size_t>(kind)].emplace_back(request, response);
}

std::vector<TracingTransport::MessagePair> TracingTransport::samples(MsgKind kind) const {
  std::scoped_lock lock(samples_mutex_);
  return samples_[static_cast<std::size_t>(kind)];
}

transport::Message TracingTransport::send(const transport::Message& request) {
  const MsgKind kind = msg_kind_of(request);
  const std::uint32_t id = open_exchange(request, kind);
  const std::string key = id != 0 ? route_key(request) : std::string();
  transport::Message response;
  try {
    response = inner_->send(request);
  } catch (...) {
    close_exchange(key, id);
    throw;
  }
  close_exchange(key, id);
  if (id != 0 && take_sample(kind)) keep_sample(kind, request, response);
  return response;
}

void TracingTransport::send_async(transport::Message request, SendCallback on_complete) {
  const MsgKind kind = msg_kind_of(request);
  const std::uint32_t id = open_exchange(request, kind);
  if (id == 0) {
    inner_->send_async(std::move(request), std::move(on_complete));
    return;
  }
  std::string key = route_key(request);
  std::shared_ptr<transport::Message> copy;
  if (take_sample(kind)) copy = std::make_shared<transport::Message>(request);
  inner_->send_async(
      std::move(request),
      [this, id, kind, key = std::move(key), copy = std::move(copy),
       on_complete = std::move(on_complete)](transport::Message response,
                                             std::exception_ptr error) {
        close_exchange(key, id);
        if (copy && !error) keep_sample(kind, *copy, response);
        on_complete(std::move(response), error);
      });
}

std::future<transport::Message> TracingTransport::send_async(transport::Message request) {
  auto promise = std::make_shared<std::promise<transport::Message>>();
  std::future<transport::Message> future = promise->get_future();
  send_async(std::move(request),
             [promise](transport::Message response, std::exception_ptr error) {
               if (error) {
                 promise->set_exception(error);
               } else {
                 promise->set_value(std::move(response));
               }
             });
  return future;
}

}  // namespace pti::perfbench
