// The ways a Peer sends one push, so one test body can assert that every
// shape reaches the same outcome: the paper's ObjectPush, a synchronous or
// unbatched async SessionPush, and a one-entry SessionBatch window.
#pragma once

#include <future>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "transport/peer.hpp"

namespace pti::testing_support {

enum class PushShape { Cold, Sync, Async, Batched };

/// `config` with the session settings the shape sends with.
inline transport::PeerConfig with_shape(transport::PeerConfig config, PushShape shape) {
  config.use_sessions = shape != PushShape::Cold;
  config.session.max_batch = shape == PushShape::Batched ? 4 : 1;
  return config;
}

/// Sends `object` from `from` to `to` as `shape` and waits for its ack.
inline transport::PushAck push_as(PushShape shape, transport::Peer& from,
                                  const std::string& to,
                                  const std::shared_ptr<reflect::DynObject>& object) {
  if (shape == PushShape::Cold || shape == PushShape::Sync) {
    return from.send_object(to, object);
  }
  std::future<transport::PushAck> ack = from.send_object_async(to, object);
  from.flush_session_batches();
  return ack.get();
}

inline std::string shape_name(PushShape shape) {
  switch (shape) {
    case PushShape::Cold:
      return "Cold";
    case PushShape::Sync:
      return "Sync";
    case PushShape::Async:
      return "Async";
    case PushShape::Batched:
      return "Batched";
  }
  return "Unknown";
}

inline std::string shape_param_name(const ::testing::TestParamInfo<PushShape>& info) {
  return shape_name(info.param);
}

}  // namespace pti::testing_support
