// A Transport for tests that delegates to a SimNetwork and hands each
// request to an optional hook on its way in, which may count, record or
// rewrite it. The whole stack runs against the seam, not the SimNetwork.
#pragma once

#include <functional>
#include <string_view>
#include <utility>

#include "transport/sim_network.hpp"

namespace pti::testing_support {

class TapTransport final : public transport::Transport {
 public:
  /// Sees (and may rewrite) every request before the SimNetwork sends it.
  std::function<void(transport::Message&)> on_send;

  void attach(std::string_view name, Handler handler) override {
    inner_.attach(name, std::move(handler));
  }
  void detach(std::string_view name) override { inner_.detach(name); }
  [[nodiscard]] bool is_attached(std::string_view name) const noexcept override {
    return inner_.is_attached(name);
  }
  transport::Message send(const transport::Message& request) override {
    if (!on_send) return inner_.send(request);
    transport::Message tapped = request;
    on_send(tapped);
    return inner_.send(tapped);
  }
  void set_default_link(const transport::LinkConfig& config) noexcept override {
    inner_.set_default_link(config);
  }
  void set_link(std::string_view from, std::string_view to,
                const transport::LinkConfig& config) override {
    inner_.set_link(from, to, config);
  }
  [[nodiscard]] const transport::NetStats& stats() const noexcept override {
    return inner_.stats();
  }
  void reset_stats() noexcept override { inner_.reset_stats(); }
  [[nodiscard]] util::SimClock& clock() noexcept override { return inner_.clock(); }

 private:
  transport::SimNetwork inner_;
};

}  // namespace pti::testing_support
