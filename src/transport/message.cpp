#include "transport/message.hpp"

#include "serial/frame_codec.hpp"

namespace pti::transport {

namespace {

struct KindVisitor {
  const char* operator()(const ObjectPush&) const noexcept { return "ObjectPush"; }
  const char* operator()(const PushAck&) const noexcept { return "PushAck"; }
  const char* operator()(const TypeInfoRequest&) const noexcept { return "TypeInfoRequest"; }
  const char* operator()(const TypeInfoResponse&) const noexcept {
    return "TypeInfoResponse";
  }
  const char* operator()(const CodeRequest&) const noexcept { return "CodeRequest"; }
  const char* operator()(const CodeResponse&) const noexcept { return "CodeResponse"; }
  const char* operator()(const InvokeRequest&) const noexcept { return "InvokeRequest"; }
  const char* operator()(const InvokeResponse&) const noexcept { return "InvokeResponse"; }
  const char* operator()(const ErrorReply&) const noexcept { return "ErrorReply"; }
  const char* operator()(const SessionPush&) const noexcept { return "SessionPush"; }
  const char* operator()(const SessionAck&) const noexcept { return "SessionAck"; }
  const char* operator()(const SessionBatch&) const noexcept { return "SessionBatch"; }
  const char* operator()(const SessionBatchAck&) const noexcept {
    return "SessionBatchAck";
  }
};

}  // namespace

std::size_t Message::wire_size() const noexcept {
  return serial::FrameCodec::measure(*this).total;
}

const char* Message::kind_name() const noexcept {
  return std::visit(KindVisitor{}, payload);
}

}  // namespace pti::transport
