// TracingTransport — the benchmark's decorator on the Transport seam.
//
// It forwards every Transport member to an owned SocketTransport and, while
// its Tracer is enabled, records:
//   * an Exchange span around send() and around both forms of
//     send_async() (from the call until the completion runs), parented to
//     the innermost span open on the calling thread;
//   * a Handler span around every handler given to attach(), parented to
//     the exchange that carried the request. The socket transport runs
//     handlers on its own reader threads, so the link goes through a table
//     of in-flight exchanges keyed by (sender, recipient): the benchmark's
//     clients are closed loops, so each key has at most a few exchanges in
//     flight and the oldest unmatched one is the request being served.
// A sample of in-flight request/response pairs is copied per kind so the
// frame codec can be re-timed on the exact messages after the run.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "transport/socket_transport.hpp"

namespace pti::perfbench {

class TracingTransport final : public transport::Transport {
 public:
  using MessagePair = std::pair<transport::Message, transport::Message>;

  TracingTransport(std::unique_ptr<transport::SocketTransport> inner, Tracer& tracer);

  void attach(std::string_view name, Handler handler) override;
  void detach(std::string_view name) override { inner_->detach(name); }
  [[nodiscard]] bool is_attached(std::string_view name) const noexcept override {
    return inner_->is_attached(name);
  }

  transport::Message send(const transport::Message& request) override;
  [[nodiscard]] std::future<transport::Message> send_async(
      transport::Message request) override;
  void send_async(transport::Message request, SendCallback on_complete) override;

  void set_default_link(const transport::LinkConfig& config) noexcept override {
    inner_->set_default_link(config);
  }
  void set_link(std::string_view from, std::string_view to,
                const transport::LinkConfig& config) override {
    inner_->set_link(from, to, config);
  }
  void set_default_peer_quota(const transport::PeerQuotaConfig& config) override {
    inner_->set_default_peer_quota(config);
  }
  void set_peer_quota(std::string_view peer,
                      const transport::PeerQuotaConfig& config) override {
    inner_->set_peer_quota(peer, config);
  }
  [[nodiscard]] transport::PeerQuotaTable* peer_quotas() noexcept override {
    return inner_->peer_quotas();
  }
  [[nodiscard]] const transport::NetStats& stats() const noexcept override {
    return inner_->stats();
  }
  void reset_stats() noexcept override { inner_->reset_stats(); }
  [[nodiscard]] util::SimClock& clock() noexcept override { return inner_->clock(); }

  /// Sampled in-flight (request, response) pairs of one reported kind.
  [[nodiscard]] std::vector<MessagePair> samples(MsgKind kind) const;

 private:
  static constexpr std::size_t kSampleEvery = 32;
  static constexpr std::size_t kMaxSamples = 128;

  [[nodiscard]] static std::string route_key(const transport::Message& m);
  std::uint32_t open_exchange(const transport::Message& request, MsgKind kind);
  void close_exchange(const std::string& key, std::uint32_t id);
  [[nodiscard]] bool take_sample(MsgKind kind);
  void keep_sample(MsgKind kind, const transport::Message& request,
                   const transport::Message& response);

  Tracer& tracer_;

  std::mutex inflight_mutex_;  ///< guards inflight_
  std::unordered_map<std::string, std::deque<std::uint32_t>> inflight_;

  mutable std::mutex samples_mutex_;  ///< guards samples_ and seen_
  std::array<std::vector<MessagePair>, kMsgKinds> samples_;
  std::array<std::size_t, kMsgKinds> seen_{};

  /// Declared last so its threads stop before the tables they use go away.
  std::unique_ptr<transport::SocketTransport> inner_;
};

}  // namespace pti::perfbench
