// EndpointRegistry — the one owner of the endpoint contract (transport.hpp)
// for AsyncTransport and SocketTransport, each of which owns one by value:
// the endpoint map, in-flight counts, the thread-local stack of endpoints
// executing on this thread and the waits behind detach() and drain().
// Waiters are woken only when an endpoint's in-flight count reaches zero.
// SimNetwork keeps its own unsynchronised map: its send() is the storm's
// exchange loop, where this mutex would cost two lock round trips per
// exchange. Every member is safe from any thread; a transport may call in
// while holding its own mutex, the registry never calls out holding its.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "transport/transport.hpp"
#include "util/string_util.hpp"

namespace pti::transport {

/// What a concurrent transport's send_async does when its queue is full.
/// Block never applies on a transport thread: waiting there for space only
/// transport threads free would deadlock, so the send fails fast.
enum class Overflow : std::uint8_t {
  Block,   ///< send_async waits for queue space (flow control)
  Reject,  ///< send_async fails the future/callback with TransportError
};

/// One queued asynchronous exchange.
struct PendingSend {
  Message request;
  Transport::SendCallback on_complete;

  /// Runs the completion. It runs on a transport thread, which a throwing
  /// callback must not end, so the exception is swallowed.
  void complete(Message response, std::exception_ptr error) noexcept;
};

class EndpointRegistry {
 public:
  /// One attached incarnation; a later attach of the same name is another.
  struct Endpoint;

  /// One execution of an endpoint's handler: while it lives, quiesce()
  /// waits for it and this thread counts as executing the endpoint. Empty
  /// (false) when the endpoint was not attached. Destroy it on the thread
  /// that began it.
  class Execution {
   public:
    Execution(const Execution&) = delete;
    Execution& operator=(const Execution&) = delete;
    ~Execution();

    explicit operator bool() const noexcept { return endpoint_ != nullptr; }
    [[nodiscard]] const Transport::Handler& handler() const noexcept;

   private:
    friend class EndpointRegistry;
    Execution() noexcept = default;
    Execution(EndpointRegistry& registry, std::shared_ptr<Endpoint> endpoint);  // mutex_ held

    EndpointRegistry* registry_ = nullptr;
    std::shared_ptr<Endpoint> endpoint_;
  };

  void attach(std::string_view name, Transport::Handler handler);
  /// Unregisters `name`, so no execution of it begins afterwards. Returns
  /// the unlinked incarnation, or null when `name` was not attached.
  std::shared_ptr<Endpoint> unlink(std::string_view name);
  /// Waits until `endpoint`'s executions finish, unless this thread is one
  /// of them (a handler cannot wait for itself).
  void quiesce(const Endpoint& endpoint) const;

  [[nodiscard]] bool is_attached(std::string_view name) const;
  /// The incarnation attached under `name`, or null.
  [[nodiscard]] std::shared_ptr<Endpoint> find(std::string_view name) const;
  /// Begins an execution of the endpoint attached under `name` — when
  /// `incarnation` is given, only if that one is still attached.
  [[nodiscard]] Execution begin(std::string_view name, const Endpoint* incarnation = nullptr);

  /// Blocks until `queue_idle()` (read under `mutex`, waited for on `cv`)
  /// and no handler executing hold in one pass: a finishing handler may
  /// queue more work.
  template <class QueueIdle>
  void drain(std::mutex& mutex, std::condition_variable& cv, QueueIdle queue_idle) const {
    for (;;) {
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, queue_idle);
      }
      {
        std::unique_lock lock(mutex_);
        idle_cv_.wait(lock, [&] { return executing_ == 0; });
      }
      std::unique_lock lock(mutex);
      if (queue_idle() && executing() == 0) return;
    }
  }
  [[nodiscard]] std::size_t executing() const;
  /// True while this thread runs a handler, or a completion inside one.
  [[nodiscard]] static bool executing_on_this_thread() noexcept;

 private:
  mutable std::mutex mutex_;  ///< guards endpoints_, executing_ and each Endpoint
  mutable std::condition_variable idle_cv_;
  std::map<std::string, std::shared_ptr<Endpoint>, util::ICaseLess> endpoints_;
  std::size_t executing_ = 0;
};

}  // namespace pti::transport
