#include "transport/transport.hpp"

#include <algorithm>

#include "transport/transport_error.hpp"

namespace pti::transport {

void charge_traversal(const LinkConfig& link, std::size_t wire_bytes, NetStats& stats,
                      util::SimClock& clock) noexcept {
  ++stats.messages;
  stats.bytes += wire_bytes;
  // A size saturated by a peer-declared simulated count puts the time past
  // uint64_t's range, where the conversion would be undefined.
  constexpr double kMaxTransmitNs = 0x1p63;
  const double transmit_ns = std::min(
      static_cast<double>(wire_bytes) / link.bandwidth_bytes_per_sec * 1e9, kMaxTransmitNs);
  clock.advance_ns(link.latency_ns + static_cast<std::uint64_t>(transmit_ns));
}

void address_response(const Message& request, Message& response) noexcept {
  response.sender = request.recipient;
  response.recipient = request.sender;
}

std::string drop_reason(const Message& message, Leg leg) {
  if (leg == Leg::Response) {
    return "response " + std::string(message.kind_name()) + " from '" + message.sender +
           "' was dropped";
  }
  return "message " + std::string(message.kind_name()) + " from '" + message.sender +
         "' to '" + message.recipient + "' was dropped";
}

std::future<Message> Transport::send_async(Message request) {
  auto promise = std::make_shared<std::promise<Message>>();
  std::future<Message> future = promise->get_future();
  send_async(std::move(request), [promise](Message response, std::exception_ptr error) {
    if (error) {
      promise->set_exception(error);
    } else {
      promise->set_value(std::move(response));
    }
  });
  return future;
}

// Governance defaults: transports that do not enforce quotas accept the
// configuration silently (so callers can set policy before choosing a
// transport) and expose no table.

void Transport::set_default_peer_quota(const PeerQuotaConfig&) {}

void Transport::set_peer_quota(std::string_view, const PeerQuotaConfig&) {}

PeerQuotaTable* Transport::peer_quotas() noexcept { return nullptr; }

// Default fallback: the exchange happens synchronously on the calling
// thread; only the result delivery takes the asynchronous shape.

void Transport::send_async(Message request, SendCallback on_complete) {
  if (!on_complete) throw TransportError("send_async requires a completion callback");
  Message response;
  try {
    response = send(request);
  } catch (...) {
    on_complete(Message{}, std::current_exception());
    return;
  }
  on_complete(std::move(response), nullptr);
}

}  // namespace pti::transport
