// Type lists for typed suites that run one body over the Transport
// implementations, named after the transport
// (EndpointContract/SocketTransport.DoubleAttachThrows).
#pragma once

#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "transport/async_transport.hpp"
#include "transport/sim_network.hpp"
#include "transport/socket_transport.hpp"

namespace pti::testing_support {

using AllTransports = ::testing::Types<transport::SimNetwork, transport::AsyncTransport,
                                       transport::SocketTransport>;
/// The transports that run handlers on threads of their own.
using ConcurrentTransports =
    ::testing::Types<transport::AsyncTransport, transport::SocketTransport>;
/// The transports whose nested sends run the nested handler on the
/// sending thread.
using InProcessTransports = ::testing::Types<transport::SimNetwork, transport::AsyncTransport>;

struct TransportName {
  template <class T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, transport::SimNetwork>) {
      return "SimNetwork";
    } else if constexpr (std::is_same_v<T, transport::AsyncTransport>) {
      return "AsyncTransport";
    } else {
      static_assert(std::is_same_v<T, transport::SocketTransport>);
      return "SocketTransport";
    }
  }
};

}  // namespace pti::testing_support
