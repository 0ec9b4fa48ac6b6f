// transport::SocketTransport — real framed bytes over loopback TCP.
//
// Three layers of pinning (the endpoint contract shared by every Transport
// implementation is the typed EndpointContract suite in test_transport.cpp):
//   * wire behavior only a real socket has: handler exceptions marshalled
//     back as transport faults, hostile raw bytes answered with a fault
//     frame and a closed connection, cross-instance routing where nested
//     protocol round trips flow between two listeners;
//   * cost-model parity: modelled NetStats/clock charges are identical to
//     SimNetwork's for the same delivered traffic, while socket_stats()
//     counts the real framed bytes. A request refused by quota admission
//     is the exception: the requester already charged it (pinned by
//     TransportQuotaRefusal in test_governance.cpp);
//   * protocol equivalence: the fixed-seed fuzz rounds (shared generators
//     in protocol_fuzz_common.hpp) must produce identical accept/reject
//     verdicts, matched interests, delivered contents and modelled byte
//     counts over SocketTransport as over SimNetwork, in both Optimistic
//     and Eager modes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/interop.hpp"
#include "protocol_fuzz_common.hpp"
#include "serial/frame_codec.hpp"
#include "transport/assembly_hub.hpp"
#include "transport/peer.hpp"
#include "transport/sim_network.hpp"
#include "transport/socket_transport.hpp"
#include "transport/transport_error.hpp"
#include "util/rng.hpp"

namespace pti {
namespace {

using transport::AssemblyHub;
using transport::DeliveredObject;
using transport::LinkConfig;
using transport::Message;
using transport::NetworkError;
using transport::Peer;
using transport::PeerConfig;
using transport::ProtocolMode;
using transport::PushAck;
using transport::SimNetwork;
using transport::SocketTransport;
using transport::SocketTransportConfig;
using transport::TransportError;

Message ping(std::string sender, std::string recipient, std::string detail = "ping") {
  return Message{std::move(sender), std::move(recipient),
                 transport::PushAck{true, std::move(detail)}};
}

// --- the real wire ------------------------------------------------------------

TEST(SocketTransport, ExchangesCrossTheRealWire) {
  SocketTransport net;
  net.attach("echo", [](const Message& request) {
    Message response;
    response.payload = transport::PushAck{
        true, "echo:" + std::get<transport::PushAck>(request.payload).detail};
    return response;
  });

  const Message response = net.send(ping("caller", "echo", "hello"));
  EXPECT_EQ(std::get<transport::PushAck>(response.payload).detail, "echo:hello");
  EXPECT_EQ(response.sender, "echo");
  EXPECT_EQ(response.recipient, "caller");

  // The exchange really crossed the socket: one request + one response
  // frame in each direction, with their header+body bytes counted.
  EXPECT_EQ(net.socket_stats().frames_sent.get(), 2u);
  EXPECT_EQ(net.socket_stats().frames_received.get(), 2u);
  EXPECT_GT(net.socket_stats().wire_bytes_sent.get(),
            2 * serial::FrameCodec::kHeaderSize);
  EXPECT_GE(net.socket_stats().connections_accepted.get(), 1u);
  net.detach("echo");
}

// --- connect retry / backoff --------------------------------------------------

/// A loopback port with (very probably) no listener: bind an ephemeral
/// port, read it back, close it.
[[nodiscard]] std::uint16_t closed_port() {
  SocketTransport probe;
  return probe.port();
}

TEST(SocketTransport, ConnectRetryGivesUpAfterBoundedAttempts) {
  SocketTransportConfig config;
  config.connect_attempts = 3;
  config.connect_backoff_initial_us = 200;
  config.connect_backoff_max_us = 1'000;
  SocketTransport net(config);
  net.add_route("ghost", closed_port());
  try {
    (void)net.send(ping("caller", "ghost"));
    FAIL() << "expected NetworkError";
  } catch (const NetworkError& e) {
    // ECONNREFUSED is transient, so all attempts were spent.
    EXPECT_NE(std::string(e.what()).find("after 3 attempts"), std::string::npos);
  }
  EXPECT_EQ(net.socket_stats().connect_retries.get(), 2u);
  EXPECT_EQ(net.socket_stats().connections_dialed.get(), 0u);
}

TEST(SocketTransport, SingleConnectAttemptDisablesRetry) {
  SocketTransportConfig config;
  config.connect_attempts = 1;
  SocketTransport net(config);
  net.add_route("ghost", closed_port());
  EXPECT_THROW((void)net.send(ping("caller", "ghost")), NetworkError);
  EXPECT_EQ(net.socket_stats().connect_retries.get(), 0u);
}

TEST(SocketTransport, ConnectRetryRecoversWhenListenerComesUp) {
  const std::uint16_t port = closed_port();
  SocketTransportConfig config;
  config.connect_attempts = 50;
  config.connect_backoff_initial_us = 2'000;
  config.connect_backoff_max_us = 10'000;
  SocketTransport client(config);
  client.add_route("late", port);

  // The listener appears only after the client has started (and failed)
  // dialing: the bounded retry must bridge the gap — the restarting-server
  // scenario a single-shot connect cannot survive.
  std::atomic<bool> done{false};
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    SocketTransportConfig server_config;
    server_config.port = port;
    SocketTransport server(server_config);
    server.attach("late", [](const Message& request) {
      Message response;
      response.payload = PushAck{true, "finally"};
      return response;
    });
    while (!done.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.detach("late");
  });

  // Joins on every exit path — an assertion throw must not destroy a
  // joinable thread.
  struct Joiner {
    std::atomic<bool>& done;
    std::thread& thread;
    ~Joiner() {
      done.store(true);
      if (thread.joinable()) thread.join();
    }
  } joiner{done, starter};

  // The dial retry bridges the listener gap; a separate (benign) race —
  // connecting in the window between the server's listen() and its
  // attach("late") — surfaces as a TransportError fault frame, so retry
  // the exchange itself on that one.
  PushAck ack;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    try {
      ack = std::get<PushAck>(client.send(ping("caller", "late")).payload);
      break;
    } catch (const TransportError&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "late endpoint never became reachable";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(ack.detail, "finally");
  EXPECT_GE(client.socket_stats().connect_retries.get(), 1u);
  EXPECT_GE(client.socket_stats().connections_dialed.get(), 1u);
}

TEST(SocketTransport, HandlerExceptionsAreMarshalledBack) {
  SocketTransport net;
  net.attach("thrower", [](const Message&) -> Message {
    throw std::runtime_error("kaboom");
  });
  try {
    (void)net.send(ping("caller", "thrower"));
    FAIL() << "handler exception did not surface";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("kaboom"), std::string::npos) << e.what();
  }
  // The transport survives: the endpoint still answers after a fault.
  net.attach("healthy", [](const Message& request) {
    Message response;
    response.payload = transport::PushAck{true, "ok"};
    address_response(request, response);
    return response;
  });
  EXPECT_TRUE(
      std::get<transport::PushAck>(net.send(ping("caller", "healthy")).payload).delivered);
  net.detach("thrower");
  net.detach("healthy");
}

TEST(SocketTransport, SendAsyncFailuresSurfaceThroughTheFuture) {
  SocketTransport net;
  auto future = net.send_async(ping("caller", "nobody"));
  EXPECT_THROW((void)future.get(), NetworkError);

  std::promise<std::string> callback_result;
  net.send_async(ping("caller", "nobody"),
                 [&](Message, std::exception_ptr error) {
                   try {
                     std::rethrow_exception(error);
                   } catch (const NetworkError& e) {
                     callback_result.set_value(e.what());
                   } catch (...) {
                     callback_result.set_value("wrong exception type");
                   }
                 });
  EXPECT_NE(callback_result.get_future().get().find("nobody"), std::string::npos);
  net.drain();
}

TEST(SocketTransport, SendAsyncDeliversConcurrently) {
  SocketTransport net(SocketTransportConfig{.async_workers = 3});
  std::atomic<int> handled{0};
  net.attach("sink", [&](const Message& request) {
    ++handled;
    Message response;
    response.payload = transport::PushAck{true, "ok"};
    address_response(request, response);
    return response;
  });
  std::vector<std::future<Message>> in_flight;
  for (int i = 0; i < 32; ++i) in_flight.push_back(net.send_async(ping("caller", "sink")));
  for (auto& future : in_flight) {
    EXPECT_TRUE(std::get<transport::PushAck>(future.get().payload).delivered);
  }
  EXPECT_EQ(handled.load(), 32);
  net.drain();
  EXPECT_EQ(net.pending(), 0u);
  net.detach("sink");
}

TEST(SocketTransport, RejectBackpressureFailsOverflowingSendAsync) {
  SocketTransport net(SocketTransportConfig{
      .async_workers = 1,
      .max_outbound = 1,
      .overflow = SocketTransportConfig::Overflow::Reject});
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  net.attach("slow", [&](const Message& request) {
    std::unique_lock lock(mutex);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    Message response;
    response.payload = transport::PushAck{true, "ok"};
    address_response(request, response);
    return response;
  });

  // #1 occupies the single worker (its handler is gated); #2 fills the
  // 1-slot queue; #3 must be rejected with TransportError, not block.
  auto first = net.send_async(ping("caller", "slow"));
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return entered; });
  }
  auto second = net.send_async(ping("caller", "slow"));
  auto third = net.send_async(ping("caller", "slow"));
  EXPECT_THROW((void)third.get(), TransportError);

  {
    std::unique_lock lock(mutex);
    release = true;
    cv.notify_all();
  }
  EXPECT_TRUE(std::get<transport::PushAck>(first.get().payload).delivered);
  EXPECT_TRUE(std::get<transport::PushAck>(second.get().payload).delivered);
  net.drain();
  net.detach("slow");
}

// --- wire-only behavior -------------------------------------------------------

TEST(SocketTransport, HostileBytesGetAFaultFrameAndAClosedConnection) {
  SocketTransport net;
  net.attach("victim", [](const Message&) { return Message{}; });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(net.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  // One header's worth of garbage (exactly 10 bytes, so no unread input
  // lingers to turn the close into an RST): not a valid header, so the
  // transport must answer with a fault frame and close — never crash or
  // hang.
  const std::uint8_t garbage[10] = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6};
  ASSERT_EQ(::send(fd, garbage, sizeof garbage, 0), static_cast<ssize_t>(sizeof garbage));

  std::vector<std::uint8_t> reply(4096);
  std::size_t got = 0;
  for (;;) {
    const ssize_t r = ::recv(fd, reply.data() + got, reply.size() - got, 0);
    if (r <= 0) break;  // connection closed after the fault frame
    got += static_cast<std::size_t>(r);
  }
  ::close(fd);

  ASSERT_GT(got, serial::FrameCodec::kHeaderSize);
  const serial::FrameCodec codec;
  const Message fault = codec.decode(std::span(reply.data(), got));
  const auto& error = std::get<transport::ErrorReply>(fault.payload);
  EXPECT_NE(error.message.find("bad-magic"), std::string::npos) << error.message;

  // The garbage header bytes moved over the wire, so they count — hostile
  // streams must not undercount wire_bytes_received just because they
  // never decode.
  EXPECT_EQ(net.socket_stats().wire_bytes_received.get(), sizeof garbage);

  // And the transport still serves well-formed traffic afterwards.
  net.attach("alive", [](const Message& request) {
    Message response;
    response.payload = transport::PushAck{true, "alive"};
    address_response(request, response);
    return response;
  });
  EXPECT_TRUE(
      std::get<transport::PushAck>(net.send(ping("caller", "alive")).payload).delivered);
  net.detach("victim");
  net.detach("alive");
}

TEST(SocketTransport, OversizedFaultReasonsAreTruncatedNotFatal) {
  // Regression: a valid frame whose recipient string nearly fills the body
  // budget used to make the "no peer attached" fault reason exceed
  // max_body_bytes, so encoding the fault threw FrameError{Oversized} on
  // the reader thread (outside any catch) and std::terminate()d the
  // process. The reason must be truncated and the fault still delivered.
  SocketTransportConfig server_config;
  server_config.frame_limits.max_body_bytes = 4096;
  SocketTransport server(server_config);
  SocketTransport client;

  const std::string huge_name(4000, 'r');  // decodes fine, faults oversized
  client.add_route(huge_name, server.port());
  try {
    (void)client.send(ping("caller", huge_name));
    FAIL() << "unknown recipient did not surface";
  } catch (const NetworkError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no peer attached"), std::string::npos)
        << what.substr(0, 120);
    EXPECT_NE(what.find("[truncated]"), std::string::npos) << what.substr(0, 120);
    EXPECT_LT(what.size(), server_config.frame_limits.max_body_bytes);
  }

  // The reader thread survived: the server still answers new exchanges.
  server.attach("alive", [](const Message& request) {
    Message response;
    response.payload = transport::PushAck{true, "alive"};
    address_response(request, response);
    return response;
  });
  client.add_route("alive", server.port());
  EXPECT_TRUE(
      std::get<transport::PushAck>(client.send(ping("caller", "alive")).payload)
          .delivered);
}

TEST(SocketTransport, UndecodableResponseSurfacesAsNetworkError) {
  // A fake "server" that answers any request with garbage bytes: send()
  // must classify that through the documented wire-failure family
  // (NetworkError), never leak serial::FrameError through the seam.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t fake_port = ntohs(addr.sin_port);

  std::thread fake_server([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::uint8_t request[512];
    (void)::recv(fd, request, sizeof request, 0);  // swallow the request
    const std::uint8_t garbage[10] = {'n', 'o', 'p', 'e', 0, 0, 0, 0, 0, 0};
    (void)::send(fd, garbage, sizeof garbage, 0);
    ::close(fd);
  });

  SocketTransport net;
  net.add_route("impostor", fake_port);
  try {
    (void)net.send(ping("caller", "impostor"));
    FAIL() << "garbage response did not surface";
  } catch (const NetworkError& e) {
    EXPECT_NE(std::string(e.what()).find("undecodable"), std::string::npos) << e.what();
  }
  fake_server.join();
  ::close(listener);
}

TEST(SocketTransport, DropProbabilityDropsBeforeAnyByteMoves) {
  SocketTransport net;
  net.attach("peer", [](const Message&) { return Message{}; });
  net.set_link("caller", "peer", LinkConfig{.drop_probability = 1.0});
  EXPECT_THROW((void)net.send(ping("caller", "peer")), NetworkError);
  EXPECT_EQ(net.stats().drops.get(), 1u);
  EXPECT_EQ(net.socket_stats().frames_sent.get(), 0u);  // dropped pre-wire
  net.detach("peer");
}

TEST(SocketTransport, DroppedResponseFaultsInsteadOfSilentClose) {
  SocketTransport net;
  std::atomic<int> served{0};
  net.attach("peer", [&](const Message& request) {
    ++served;
    Message response;
    response.payload = transport::PushAck{true, "ok"};
    address_response(request, response);
    return response;
  });

  // Warm the connection pool with one successful exchange, then drop every
  // response. A served request whose response is dropped must answer with
  // a fault frame, never a silent close: a zero-byte close on a pooled
  // connection means "never served" to the client's stale-pool retry, so a
  // silent close here would re-execute the handler.
  EXPECT_TRUE(
      std::get<transport::PushAck>(net.send(ping("caller", "peer")).payload).delivered);
  net.set_link("peer", "caller", LinkConfig{.drop_probability = 1.0});
  try {
    (void)net.send(ping("caller", "peer"));
    FAIL() << "dropped response did not surface";
  } catch (const NetworkError& e) {
    EXPECT_NE(std::string(e.what()).find("was dropped"), std::string::npos) << e.what();
  }
  EXPECT_EQ(served.load(), 2);  // exactly once per send — no retry re-execution
  EXPECT_EQ(net.stats().drops.get(), 1u);
  net.detach("peer");
}

TEST(SocketTransport, CrossInstanceRoutingRunsTheFullProtocol) {
  // Two transports = two listeners; each peer lives on its own instance,
  // exactly like two processes sharing only routes. The optimistic push
  // makes bob's handler issue nested TypeInfoRequest/CodeRequest round
  // trips back to alice — every one of them a framed exchange between the
  // two listeners.
  SocketTransport net_a;
  SocketTransport net_b;
  net_a.add_route("bob", net_b.port());
  net_b.add_route("alice", net_a.port());

  auto hub = std::make_shared<AssemblyHub>();
  Peer alice("alice", net_a, hub, PeerConfig{.mode = ProtocolMode::Optimistic});
  Peer bob("bob", net_b, hub, PeerConfig{.mode = ProtocolMode::Optimistic});

  util::Rng rng(0xD15C0ULL);
  const fuzz::Schema schema = fuzz::random_schema(rng);
  alice.host_assembly(fuzz::sender_assembly("xinsA", schema));
  bob.host_assembly(fuzz::receiver_assembly("xinsB", schema, fuzz::InterestMode::Copy, rng));
  bob.add_interest("xinsB.Thing");

  const fuzz::ValuePlan values = fuzz::random_values(schema, rng);
  const auto object = fuzz::make_object(alice, "xinsA", schema, values);
  const PushAck ack = alice.send_object("bob", object);
  ASSERT_TRUE(ack.delivered) << ack.detail;

  const auto delivered = bob.delivered_snapshot();
  ASSERT_EQ(delivered.size(), 1u);
  for (const auto& [field, sent] : values.fields) {
    fuzz::expect_same_value(delivered.front().object->get(field), sent,
                            "cross-instance field " + field);
  }
  // Both instances moved real frames: alice's transport dialed bob's and
  // vice versa (nested description fetches flow bob -> alice).
  EXPECT_GT(net_a.socket_stats().frames_sent.get(), 0u);
  EXPECT_GT(net_b.socket_stats().frames_sent.get(), 0u);
  EXPECT_GT(net_b.socket_stats().connections_dialed.get(), 0u);
}

TEST(SocketTransport, WorksUnderneathThePublicApi) {
  core::InteropSystem system(std::make_unique<SocketTransport>());
  core::InteropRuntime& sender = system.create_runtime("api-sender");
  core::InteropRuntime& receiver = system.create_runtime("api-receiver");

  util::Rng rng(0xAB1EULL);
  const fuzz::Schema schema = fuzz::random_schema(rng);
  sender.publish_assembly(fuzz::sender_assembly("sockapiS", schema));
  receiver.publish_assembly(
      fuzz::receiver_assembly("sockapiR", schema, fuzz::InterestMode::Copy, rng));

  std::atomic<int> deliveries{0};
  auto subscription = receiver.subscribe(receiver.type("sockapiR.Thing"),
                                         [&](const DeliveredObject&) { ++deliveries; });

  const fuzz::ValuePlan values = fuzz::random_values(schema, rng);
  auto object = sender.make("sockapiS.Thing");
  for (const auto& [field, value] : values.fields) object->set(field, value);
  if (schema.has_child) {
    auto child = sender.make("sockapiS.Child");
    for (const auto& [field, value] : values.child_fields) child->set(field, value);
    object->set("child", reflect::Value(std::move(child)));
  }

  const PushAck ack = sender.send("api-receiver", object);
  EXPECT_TRUE(ack.delivered) << ack.detail;
  EXPECT_EQ(deliveries.load(), 1);

  const PushAck async_ack = sender.send_async("api-receiver", object).get();
  EXPECT_TRUE(async_ack.delivered) << async_ack.detail;
  EXPECT_EQ(deliveries.load(), 2);
}

// --- runs: a peer's queued requests share one connection --------------------
//
// The client here has one outbound worker. SetUp parks it on a request to a
// gate endpoint; every request queued while it waits then forms one run
// (same recipient, queue order) once open_gate() lets it go.

/// Answers PushAck{"echo:" + the request's detail}.
Message echo_reply(const Message& request) {
  Message response;
  response.payload =
      transport::PushAck{true, "echo:" + std::get<transport::PushAck>(request.payload).detail};
  address_response(request, response);
  return response;
}

class SocketTransportRun : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.attach("gate", [this](const Message& request) {
      gate_entered_.set_value();
      gate_open_.wait();
      return echo_reply(request);
    });
    client_.add_route("gate", server_.port());
    parked_ = client_.send_async(ping("caller", "gate"));
    gate_entered_.get_future().wait();
  }

  void TearDown() override { open_gate(); }

  void open_gate() {
    if (!gate_opened_) gate_.set_value();
    gate_opened_ = true;
  }

  /// Queues `count` requests to `to`, with details "0", "1", ...; each
  /// callback appends "<detail>=<reply detail or error>" to replies_.
  void queue(const std::string& to, int count, const std::string& payload = {}) {
    for (int i = 0; i < count; ++i) {
      const std::string detail = std::to_string(i) + payload;
      client_.send_async(ping("caller", to, detail),
                         [this, tag = std::to_string(i)](Message reply, std::exception_ptr e) {
                           std::string outcome;
                           try {
                             if (e) std::rethrow_exception(e);
                             outcome = std::get<PushAck>(reply.payload).detail;
                           } catch (const NetworkError& error) {
                             outcome = std::string("NetworkError:") + error.what();
                           } catch (const TransportError& error) {
                             outcome = std::string("TransportError:") + error.what();
                           }
                           std::lock_guard lock(mutex_);
                           replies_.push_back(tag + "=" + outcome.substr(0, 64));
                         });
    }
  }

  [[nodiscard]] std::vector<std::string> replies() {
    std::lock_guard lock(mutex_);
    return replies_;
  }

  std::promise<void> gate_entered_;
  std::promise<void> gate_;
  std::shared_future<void> gate_open_ = gate_.get_future().share();
  bool gate_opened_ = false;
  std::mutex mutex_;
  std::vector<std::string> replies_;
  SocketTransport server_;
  SocketTransport client_{SocketTransportConfig{.async_workers = 1}};
  std::future<Message> parked_;
};

/// Polls `condition` for up to five seconds.
template <class Condition>
[[nodiscard]] bool eventually(Condition condition) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!condition()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST_F(SocketTransportRun, QueuedRequestsLeaveTogetherAndDrainWaitsForTheWholeRun) {
  std::promise<void> first_entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  server_.attach("echo", [&](const Message& request) {
    if (std::get<PushAck>(request.payload).detail == "0") {
      first_entered.set_value();
      released.wait();
    }
    return echo_reply(request);
  });
  client_.add_route("echo", server_.port());
  queue("echo", 8);
  open_gate();
  first_entered.get_future().wait();
  // The gate's request and all eight of the run: one at a time, only the
  // gate's and the first would have been written by now.
  EXPECT_TRUE(eventually([&] { return client_.socket_stats().frames_sent.get() == 9; }))
      << client_.socket_stats().frames_sent.get() << " frames sent";
  EXPECT_EQ(client_.pending(), 8u);
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    client_.drain();
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());
  release.set_value();
  drainer.join();
  EXPECT_EQ(client_.pending(), 0u);
  EXPECT_EQ(replies().size(), 8u);  // every callback ran before drain returned
}

TEST_F(SocketTransportRun, RepliesCompleteInQueueOrderEachOnceWithItsOwnReply) {
  std::mutex served_mutex;
  std::vector<std::string> served;
  server_.attach("echo", [&](const Message& request) {
    std::lock_guard lock(served_mutex);
    served.push_back(std::get<PushAck>(request.payload).detail);
    return echo_reply(request);
  });
  client_.add_route("echo", server_.port());
  queue("echo", 16);
  open_gate();
  client_.drain();
  std::vector<std::string> expected;
  std::vector<std::string> expected_served;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(std::to_string(i) + "=echo:" + std::to_string(i));
    expected_served.push_back(std::to_string(i));
  }
  EXPECT_EQ(replies(), expected);
  std::lock_guard lock(served_mutex);
  EXPECT_EQ(served, expected_served);
}

TEST_F(SocketTransportRun, AHandlerFaultFailsOnlyItsOwnRequest) {
  server_.attach("echo", [](const Message& request) {
    if (std::get<PushAck>(request.payload).detail == "3") {
      throw std::runtime_error("kaboom");
    }
    return echo_reply(request);
  });
  client_.add_route("echo", server_.port());
  queue("echo", 8);
  open_gate();
  client_.drain();
  const std::vector<std::string> got = replies();
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    if (i == 3) {
      EXPECT_TRUE(got[3].starts_with("3=TransportError:")) << got[3];
      EXPECT_NE(got[3].find("kaboom"), std::string::npos) << got[3];
    } else {
      EXPECT_EQ(got[i], std::to_string(i) + "=echo:" + std::to_string(i));
    }
  }
  // The connection that carried a fault is closed, never pooled: the next
  // exchange dials a fresh one.
  const std::uint64_t dialed = client_.socket_stats().connections_dialed.get();
  EXPECT_EQ(std::get<PushAck>(client_.send(ping("caller", "echo", "after")).payload).detail,
            "echo:after");
  EXPECT_EQ(client_.socket_stats().connections_dialed.get(), dialed + 1);
}

TEST_F(SocketTransportRun, RequestsLargerThanTheSocketBuffersCompleteWithoutDeadlock) {
  // Each request and each reply is bigger than both directions' socket
  // buffers: a run that wrote them all before reading would block on a
  // server blocked writing its first reply.
  server_.attach("echo", [](const Message& request) { return echo_reply(request); });
  client_.add_route("echo", server_.port());
  const std::string payload(256 * 1024, 'p');
  queue("echo", 32, payload);
  open_gate();
  std::future<void> drained = std::async(std::launch::async, [&] { client_.drain(); });
  if (drained.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    ADD_FAILURE() << "a run of 32 x 256 KiB requests did not complete in 60 s";
    std::abort();  // the transport's threads are wedged; unwinding would hang
  }
  const std::vector<std::string> got = replies();
  ASSERT_EQ(got.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    const std::string tag = std::to_string(i);
    EXPECT_EQ(got[i], tag + "=" + ("echo:" + tag + payload).substr(0, 64));
  }
}

/// A raw loopback listener whose thread runs a script of accepts, frame
/// reads and replies: wire behaviour a SocketTransport server never shows.
/// After the script it accepts and closes every further connection until
/// destroyed, counting them, so a wrongly re-sent request fails instead of
/// hanging.
class ScriptedPeer {
 public:
  using Script = std::function<void(ScriptedPeer&)>;

  explicit ScriptedPeer(Script script) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listener_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(listener_, 8), 0);
    socklen_t len = sizeof addr;
    ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, script = std::move(script)] {
      script(*this);
      for (int fd; (fd = accept_connection()) >= 0;) ::close(fd);
    });
  }
  ~ScriptedPeer() {
    ::shutdown(listener_, SHUT_RDWR);
    thread_.join();
    ::close(listener_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int accepted() const { return accepted_.load(); }
  [[nodiscard]] std::vector<std::string> served() {
    std::lock_guard lock(mutex_);
    return served_;
  }

  /// The next connection, or -1 once the listener is shut down. Reads on
  /// it time out after ten seconds, so a broken client cannot hang a test.
  int accept_connection() {
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) return -1;
    ++accepted_;
    const timeval timeout{.tv_sec = 10, .tv_usec = 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    return fd;
  }

  /// Reads one request frame; false on a close, a cut or a timeout.
  bool read_request(int fd, Message& request) {
    std::vector<std::uint8_t> frame(serial::FrameCodec::kHeaderSize);
    if (!read_exactly(fd, frame.data(), frame.size())) return false;
    const std::size_t body = codec_.decode_header(frame).body_bytes;
    frame.resize(frame.size() + body);
    if (!read_exactly(fd, frame.data() + serial::FrameCodec::kHeaderSize, body)) return false;
    request = codec_.decode(frame);
    return true;
  }

  /// Reads one request and answers it like the echo endpoint, or writes
  /// only the first `cut_after` bytes of the reply when that is set.
  bool serve(int fd, std::size_t cut_after = SIZE_MAX) {
    Message request;
    if (!read_request(fd, request)) return false;
    {
      std::lock_guard lock(mutex_);
      served_.push_back(std::get<PushAck>(request.payload).detail);
    }
    const std::vector<std::uint8_t> reply = codec_.encode(echo_reply(request));
    const std::size_t n = std::min(cut_after, reply.size());
    return ::send(fd, reply.data(), n, MSG_NOSIGNAL) == static_cast<ssize_t>(n);
  }

  /// Closes cleanly (FIN) without reading what the client sent since,
  /// then waits for the client to close its end.
  static void close_unread(int fd) {
    ::shutdown(fd, SHUT_WR);
    std::uint8_t sink[4096];
    while (::recv(fd, sink, sizeof sink, 0) > 0) {
    }
    ::close(fd);
  }

 private:
  static bool read_exactly(int fd, std::uint8_t* out, std::size_t n) {
    for (std::size_t got = 0; got < n;) {
      const ssize_t r = ::recv(fd, out + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<std::size_t>(r);
    }
    return true;
  }

  serial::FrameCodec codec_;
  int listener_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<int> accepted_{0};
  std::mutex mutex_;
  std::vector<std::string> served_;
  std::thread thread_;
};

TEST_F(SocketTransportRun, CleanCloseResendsTheUnreadRequestsOnANewConnection) {
  ScriptedPeer peer([](ScriptedPeer& self) {
    // Answers two requests, then closes cleanly without reading the rest.
    const int first = self.accept_connection();
    EXPECT_TRUE(self.serve(first));
    EXPECT_TRUE(self.serve(first));
    ScriptedPeer::close_unread(first);
    // The re-sent requests arrive on a second connection.
    const int second = self.accept_connection();
    EXPECT_TRUE(self.serve(second));
    EXPECT_TRUE(self.serve(second));
    ::close(second);
  });
  client_.add_route("scripted", peer.port());
  queue("scripted", 4);
  open_gate();
  client_.drain();
  EXPECT_EQ(replies(), (std::vector<std::string>{"0=echo:0", "1=echo:1", "2=echo:2",
                                                 "3=echo:3"}));
  EXPECT_EQ(peer.served(), (std::vector<std::string>{"0", "1", "2", "3"}));
  EXPECT_EQ(peer.accepted(), 2);
}

TEST_F(SocketTransportRun, CutInsideAReplyFailsTheRestWithoutResending) {
  ScriptedPeer peer([](ScriptedPeer& self) {
    // Answers one request, then sends half a reply and closes.
    const int fd = self.accept_connection();
    EXPECT_TRUE(self.serve(fd));
    EXPECT_TRUE(self.serve(fd, /*cut_after=*/serial::FrameCodec::kHeaderSize + 2));
    ScriptedPeer::close_unread(fd);
  });
  client_.add_route("scripted", peer.port());
  queue("scripted", 4);
  open_gate();
  client_.drain();
  const std::vector<std::string> got = replies();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], "0=echo:0");
  for (int i = 1; i < 4; ++i) {
    EXPECT_TRUE(got[i].starts_with(std::to_string(i) + "=NetworkError:")) << got[i];
  }
  EXPECT_EQ(peer.served(), (std::vector<std::string>{"0", "1"}));
  EXPECT_EQ(peer.accepted(), 1);  // nothing re-sent
}

// --- equivalence with SimNetwork ---------------------------------------------

constexpr std::uint64_t kSweepSeed = 0x50CCE7F00DULL;
constexpr int kSweepRounds = 24;

template <class Transport>
struct Universe {
  Transport net;
  std::shared_ptr<AssemblyHub> hub = std::make_shared<AssemblyHub>();
  Peer sender;
  Peer receiver;

  explicit Universe(ProtocolMode mode, bool sessions = false, std::size_t max_batch = 1)
      : sender("sender", net, hub, config_for(mode, sessions, max_batch)),
        receiver("receiver", net, hub, config_for(mode, sessions, max_batch)) {}

  static PeerConfig config_for(ProtocolMode mode, bool sessions, std::size_t max_batch) {
    PeerConfig config{.mode = mode, .use_sessions = sessions};
    config.session.max_batch = max_batch;
    return config;
  }
};

/// The acceptance pin: the same fixed-seed fuzz rounds, over loopback
/// sockets and over the in-process simulator, must be indistinguishable at
/// the protocol level — verdict, matched interest, delivered contents, and
/// the modelled cost accounting. With `sessions` the sweep runs the
/// session-layer protocol instead (SessionPush/SessionAck frames really
/// crossing the socket) and adds a warmed second push per round, which
/// must also agree between the two transports.
void run_equivalence_sweep(ProtocolMode mode, const char* tag, bool sessions = false,
                           std::size_t max_batch = 1) {
  util::Rng rng(kSweepSeed);
  int accepted = 0;
  for (int index = 0; index < kSweepRounds; ++index) {
    const fuzz::Round round = fuzz::draw_round(index, tag, rng);

    PushAck sim_ack;
    PushAck socket_ack;
    std::vector<DeliveredObject> sim_delivered;
    std::vector<DeliveredObject> socket_delivered;

    Universe<SimNetwork> sim_universe(mode, sessions, max_batch);
    fuzz::run_round(round, sim_universe.sender, sim_universe.receiver, sim_ack,
                    sim_delivered);
    Universe<SocketTransport> socket_universe(mode, sessions, max_batch);
    fuzz::run_round(round, socket_universe.sender, socket_universe.receiver, socket_ack,
                    socket_delivered);

    const std::string context = std::string(tag) + " round " + std::to_string(index);

    // Identical verdict and matched interest.
    ASSERT_EQ(socket_ack.delivered, sim_ack.delivered) << context;
    EXPECT_EQ(socket_ack.detail, sim_ack.detail) << context;

    if (sessions) {
      // Warmed repeat over both live sessions: same verdict, one framed
      // exchange each (the request and its SessionAck), on the simulator
      // and on the real socket alike.
      const std::uint64_t sim_before = sim_universe.net.stats().messages.get();
      const std::uint64_t socket_before = socket_universe.net.stats().messages.get();
      const PushAck sim_warm =
          fuzz::push_again(round, sim_universe.sender, sim_universe.receiver);
      const PushAck socket_warm =
          fuzz::push_again(round, socket_universe.sender, socket_universe.receiver);
      ASSERT_EQ(socket_warm.delivered, sim_warm.delivered) << context;
      EXPECT_EQ(socket_warm.detail, sim_warm.detail) << context;
      EXPECT_EQ(sim_warm.delivered, sim_ack.delivered) << context;
      EXPECT_EQ(sim_universe.net.stats().messages.get() - sim_before, 2u) << context;
      EXPECT_EQ(socket_universe.net.stats().messages.get() - socket_before, 2u)
          << context;
      EXPECT_EQ(sim_universe.receiver.stats().session_verdict_hits, 1u) << context;
      EXPECT_EQ(socket_universe.receiver.stats().session_verdict_hits, 1u) << context;

      if (max_batch > 1) {
        // Batched window: max_batch async pushes fill the window and
        // cross as ONE SessionBatch frame — two messages total — on the
        // simulator and on the real socket alike, every slot agreeing
        // with the warmed verdict.
        const auto run_batch = [&](auto& universe) {
          std::vector<std::future<PushAck>> futures;
          for (std::size_t i = 0; i < max_batch; ++i) {
            futures.push_back(universe.sender.send_object_async(
                "receiver", fuzz::make_object(universe.sender, round.sender_ns,
                                              round.schema, round.values)));
          }
          std::vector<PushAck> acks;
          acks.reserve(futures.size());
          for (auto& future : futures) acks.push_back(future.get());
          return acks;
        };
        const std::uint64_t sim_batch_before = sim_universe.net.stats().messages.get();
        const std::uint64_t socket_batch_before =
            socket_universe.net.stats().messages.get();
        const std::vector<PushAck> sim_acks = run_batch(sim_universe);
        const std::vector<PushAck> socket_acks = run_batch(socket_universe);
        for (std::size_t i = 0; i < max_batch; ++i) {
          ASSERT_EQ(socket_acks[i].delivered, sim_acks[i].delivered) << context;
          EXPECT_EQ(socket_acks[i].detail, sim_acks[i].detail) << context;
          EXPECT_EQ(sim_acks[i].delivered, sim_warm.delivered) << context;
          EXPECT_EQ(sim_acks[i].detail, sim_warm.detail) << context;
        }
        EXPECT_EQ(sim_universe.net.stats().messages.get() - sim_batch_before, 2u)
            << context;
        EXPECT_EQ(socket_universe.net.stats().messages.get() - socket_batch_before, 2u)
            << context;
        EXPECT_EQ(sim_universe.receiver.stats().session_batches, 1u) << context;
        EXPECT_EQ(socket_universe.receiver.stats().session_batches, 1u) << context;
      }

      // Refresh the delivered snapshots so the shared comparison below
      // covers the warmed (and batched) deliveries too.
      sim_delivered = sim_universe.receiver.delivered_snapshot();
      socket_delivered = socket_universe.receiver.delivered_snapshot();
    }

    // Identical delivered contents (per accepted round: the cold push,
    // plus in session mode the warmed repeat, plus max_batch batched
    // deliveries when a batching window ran).
    const std::size_t expected_deliveries =
        sessions ? 2u + (max_batch > 1 ? max_batch : 0u) : 1u;
    ASSERT_EQ(socket_delivered.size(), sim_delivered.size()) << context;
    if (socket_ack.delivered) {
      ++accepted;
      ASSERT_EQ(socket_delivered.size(), expected_deliveries) << context;
      for (std::size_t d = 0; d < socket_delivered.size(); ++d) {
        EXPECT_EQ(socket_delivered[d].interest_type, sim_delivered[d].interest_type)
            << context;
        for (const auto& [field, sent] : round.values.fields) {
          fuzz::expect_same_value(socket_delivered[d].object->get(field), sent,
                                  context + " socket field " + field);
        }
      }
    }

    // Identical modelled accounting: same messages, same wire_size bytes,
    // same virtual-clock reading — the socket path charges the exact cost
    // model the simulator does (real framed bytes are socket_stats()).
    EXPECT_EQ(socket_universe.net.stats().messages.get(),
              sim_universe.net.stats().messages.get())
        << context;
    EXPECT_EQ(socket_universe.net.stats().bytes.get(),
              sim_universe.net.stats().bytes.get())
        << context;
    EXPECT_EQ(socket_universe.net.clock().now_ns(), sim_universe.net.clock().now_ns())
        << context;
    EXPECT_GE(socket_universe.net.socket_stats().frames_sent.get(),
              sim_universe.net.stats().messages.get())
        << context;
  }
  EXPECT_GT(accepted, 0) << "sweep degenerated: nothing conformed";
  EXPECT_LT(accepted, kSweepRounds) << "sweep degenerated: everything conformed";
}

TEST(SocketTransportEquivalence, OptimisticProtocolMatchesSimNetwork) {
  run_equivalence_sweep(ProtocolMode::Optimistic, "sko");
}

TEST(SocketTransportEquivalence, EagerProtocolMatchesSimNetwork) {
  run_equivalence_sweep(ProtocolMode::Eager, "ske");
}

TEST(SocketTransportEquivalence, SessionOptimisticMatchesSimNetwork) {
  run_equivalence_sweep(ProtocolMode::Optimistic, "skso", /*sessions=*/true);
}

TEST(SocketTransportEquivalence, SessionEagerMatchesSimNetwork) {
  run_equivalence_sweep(ProtocolMode::Eager, "skse", /*sessions=*/true);
}

TEST(SocketTransportEquivalence, SessionBatchedOptimisticMatchesSimNetwork) {
  run_equivalence_sweep(ProtocolMode::Optimistic, "skbo", /*sessions=*/true,
                        /*max_batch=*/3);
}

TEST(SocketTransportEquivalence, SessionBatchedEagerMatchesSimNetwork) {
  run_equivalence_sweep(ProtocolMode::Eager, "skbe", /*sessions=*/true,
                        /*max_batch=*/3);
}

}  // namespace
}  // namespace pti
