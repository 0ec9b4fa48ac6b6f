#include "serial/frame_codec.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <variant>

#include "util/byte_buffer.hpp"

namespace pti::serial {

namespace {

using transport::CodeRequest;
using transport::CodeResponse;
using transport::ErrorReply;
using transport::InvokeRequest;
using transport::InvokeResponse;
using transport::Message;
using transport::MessagePayload;
using transport::ObjectPush;
using transport::PushAck;
using transport::SessionAck;
using transport::SessionBatch;
using transport::SessionBatchAck;
using transport::SessionIntro;
using transport::SessionPush;
using transport::SessionStatus;
using transport::TypeInfoRequest;
using transport::TypeInfoResponse;
using util::ByteReader;
using util::ByteWriter;

constexpr std::size_t kKindCount = std::variant_size_v<MessagePayload>;

/// Mirrors the decoder's element cap: a list every conforming peer is
/// guaranteed to reject as Oversized must fail fast at encode, not as a
/// confusing remote fault plus a torn-down connection.
void write_string_list(ByteWriter& out, const std::vector<std::string>& list,
                       const FrameLimits& limits) {
  if (list.size() > limits.max_list_elements) {
    throw FrameError(FrameFault::Oversized,
                     "list of " + std::to_string(list.size()) +
                         " elements exceeds the " +
                         std::to_string(limits.max_list_elements) + "-element limit");
  }
  out.write_varint(list.size());
  for (const std::string& s : list) out.write_string(s);
}

/// Reads `count` length-prefixed strings. Every encoded string occupies at
/// least one byte, so a count exceeding the bytes left cannot be honest —
/// reject it before allocating anything proportional to it. The element
/// cap bounds the per-element std::string overhead on top of the byte
/// budget (67M empty strings fit a 64 MiB body but cost gigabytes).
std::vector<std::string> read_string_list(ByteReader& in, const FrameLimits& limits) {
  const std::uint64_t count = in.read_varint();
  if (count > in.remaining()) {
    throw util::ByteBufferError("list count exceeds remaining frame bytes");
  }
  if (count > limits.max_list_elements) {
    throw FrameError(FrameFault::Oversized,
                     "list of " + std::to_string(count) + " elements exceeds the " +
                         std::to_string(limits.max_list_elements) + "-element limit");
  }
  std::vector<std::string> list;
  list.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) list.push_back(in.read_string());
  return list;
}

/// Reads a varint element count for a session list, applying the same
/// honesty bound as read_string_list: each element occupies at least one
/// byte, so a count above the bytes left cannot be satisfied.
std::uint64_t read_list_count(ByteReader& in, const FrameLimits& limits) {
  const std::uint64_t count = in.read_varint();
  if (count > in.remaining()) {
    throw util::ByteBufferError("list count exceeds remaining frame bytes");
  }
  if (count > limits.max_list_elements) {
    throw FrameError(FrameFault::Oversized,
                     "list of " + std::to_string(count) + " elements exceeds the " +
                         std::to_string(limits.max_list_elements) + "-element limit");
  }
  return count;
}

// --- shared session bodies ---------------------------------------------------
//
// SessionPush and SessionAck travel both standalone (kinds 9/10) and as
// batch entries (kinds 11/12); one encode/decode pair serves both so the
// batched wire image of an entry is byte-identical to its standalone one.

void write_session_push(ByteWriter& out, const SessionPush& m, const FrameLimits& limits) {
  out.write_varint(m.token);
  if (m.wire_types.size() > limits.max_list_elements ||
      m.intros.size() > limits.max_list_elements) {
    throw FrameError(FrameFault::Oversized,
                     "session list exceeds the " +
                         std::to_string(limits.max_list_elements) + "-element limit");
  }
  out.write_varint(m.wire_types.size());
  for (const std::uint32_t id : m.wire_types) out.write_varint(id);
  out.write_string(m.encoding);
  out.write_bytes(m.payload);
  out.write_varint(m.intros.size());
  for (const SessionIntro& i : m.intros) {
    out.write_varint(i.wire_id);
    out.write_string(i.type_name);
    out.write_string(i.description_xml);
    out.write_string(i.assembly_name);
    out.write_string(i.download_path);
  }
  write_string_list(out, m.intro_assembly_names, limits);
  out.write_varint(m.intro_assembly_bytes);
}

void write_session_ack(ByteWriter& out, const SessionAck& m, const FrameLimits& limits) {
  out.write_u8(static_cast<std::uint8_t>(m.status));
  out.write_bool(m.delivered);
  out.write_string(m.detail);
  if (m.known_desc_hashes.size() > limits.max_list_elements) {
    throw FrameError(FrameFault::Oversized,
                     "advertised-hash set of " +
                         std::to_string(m.known_desc_hashes.size()) +
                         " elements exceeds the " +
                         std::to_string(limits.max_list_elements) + "-element limit");
  }
  out.write_varint(m.known_desc_hashes.size());
  for (const std::uint64_t hash : m.known_desc_hashes) out.write_varint(hash);
}

SessionPush read_session_push(ByteReader& in, const FrameLimits& limits) {
  const auto read_wire_id = [&in]() {
    const std::uint64_t id = in.read_varint();
    if (id > 0xFFFFFFFFull) {
      throw util::ByteBufferError("session wire id exceeds 32 bits");
    }
    return static_cast<std::uint32_t>(id);
  };
  SessionPush m;
  m.token = in.read_varint();
  const std::uint64_t type_count = read_list_count(in, limits);
  m.wire_types.reserve(static_cast<std::size_t>(type_count));
  for (std::uint64_t i = 0; i < type_count; ++i) m.wire_types.push_back(read_wire_id());
  m.encoding = in.read_string();
  m.payload = in.read_bytes();
  const std::uint64_t intro_count = read_list_count(in, limits);
  m.intros.reserve(static_cast<std::size_t>(intro_count));
  for (std::uint64_t i = 0; i < intro_count; ++i) {
    SessionIntro intro;
    intro.wire_id = read_wire_id();
    intro.type_name = in.read_string();
    intro.description_xml = in.read_string();
    intro.assembly_name = in.read_string();
    intro.download_path = in.read_string();
    m.intros.push_back(std::move(intro));
  }
  m.intro_assembly_names = read_string_list(in, limits);
  m.intro_assembly_bytes = in.read_varint();
  return m;
}

SessionAck read_session_ack(ByteReader& in, const FrameLimits& limits) {
  SessionAck m;
  const std::uint8_t status = in.read_u8();
  if (status > static_cast<std::uint8_t>(SessionStatus::Error)) {
    throw util::ByteBufferError("session ack status " + std::to_string(status) +
                                " names no SessionStatus");
  }
  m.status = static_cast<SessionStatus>(status);
  m.delivered = in.read_bool();
  m.detail = in.read_string();
  const std::uint64_t hash_count = read_list_count(in, limits);
  m.known_desc_hashes.reserve(static_cast<std::size_t>(hash_count));
  for (std::uint64_t i = 0; i < hash_count; ++i) {
    m.known_desc_hashes.push_back(in.read_varint());
  }
  return m;
}

struct BodyWriter {
  ByteWriter& out;
  const FrameLimits& limits;

  void operator()(const ObjectPush& m) const {
    out.write_bytes(m.envelope);
    write_string_list(out, m.eager_descriptions_xml, limits);
    write_string_list(out, m.eager_assembly_names, limits);
    out.write_varint(m.eager_assembly_bytes);
  }
  void operator()(const PushAck& m) const {
    out.write_bool(m.delivered);
    out.write_string(m.detail);
  }
  void operator()(const TypeInfoRequest& m) const {
    write_string_list(out, m.type_names, limits);
  }
  void operator()(const TypeInfoResponse& m) const {
    write_string_list(out, m.descriptions_xml, limits);
    write_string_list(out, m.unknown, limits);
  }
  void operator()(const CodeRequest& m) const { out.write_string(m.assembly_name); }
  void operator()(const CodeResponse& m) const {
    out.write_string(m.assembly_name);
    out.write_bool(m.found);
    out.write_varint(m.code_bytes);
  }
  void operator()(const InvokeRequest& m) const {
    out.write_varint(m.object_id);
    out.write_string(m.method_name);
    out.write_bytes(m.args_envelope);
  }
  void operator()(const InvokeResponse& m) const {
    out.write_bool(m.ok);
    out.write_bytes(m.result_envelope);
    out.write_string(m.error);
  }
  void operator()(const ErrorReply& m) const { out.write_string(m.message); }
  void operator()(const SessionPush& m) const { write_session_push(out, m, limits); }
  void operator()(const SessionAck& m) const { write_session_ack(out, m, limits); }
  void operator()(const SessionBatch& m) const {
    if (m.entries.size() > limits.max_list_elements) {
      throw FrameError(FrameFault::Oversized,
                       "batch of " + std::to_string(m.entries.size()) +
                           " entries exceeds the " +
                           std::to_string(limits.max_list_elements) + "-element limit");
    }
    out.write_varint(m.entries.size());
    for (const SessionPush& entry : m.entries) write_session_push(out, entry, limits);
  }
  void operator()(const SessionBatchAck& m) const {
    if (m.entries.size() > limits.max_list_elements) {
      throw FrameError(FrameFault::Oversized,
                       "batch ack of " + std::to_string(m.entries.size()) +
                           " entries exceeds the " +
                           std::to_string(limits.max_list_elements) + "-element limit");
    }
    out.write_varint(m.entries.size());
    for (const SessionAck& entry : m.entries) write_session_ack(out, entry, limits);
  }
};

MessagePayload read_body_payload(std::uint8_t kind, ByteReader& in,
                                 const FrameLimits& limits) {
  switch (kind) {
    case 0: {
      ObjectPush m;
      m.envelope = in.read_bytes();
      m.eager_descriptions_xml = read_string_list(in, limits);
      m.eager_assembly_names = read_string_list(in, limits);
      m.eager_assembly_bytes = in.read_varint();
      return m;
    }
    case 1: {
      PushAck m;
      m.delivered = in.read_bool();
      m.detail = in.read_string();
      return m;
    }
    case 2: {
      TypeInfoRequest m;
      m.type_names = read_string_list(in, limits);
      return m;
    }
    case 3: {
      TypeInfoResponse m;
      m.descriptions_xml = read_string_list(in, limits);
      m.unknown = read_string_list(in, limits);
      return m;
    }
    case 4: {
      CodeRequest m;
      m.assembly_name = in.read_string();
      return m;
    }
    case 5: {
      CodeResponse m;
      m.assembly_name = in.read_string();
      m.found = in.read_bool();
      m.code_bytes = in.read_varint();
      return m;
    }
    case 6: {
      InvokeRequest m;
      m.object_id = in.read_varint();
      m.method_name = in.read_string();
      m.args_envelope = in.read_bytes();
      return m;
    }
    case 7: {
      InvokeResponse m;
      m.ok = in.read_bool();
      m.result_envelope = in.read_bytes();
      m.error = in.read_string();
      return m;
    }
    case 8: {
      ErrorReply m;
      m.message = in.read_string();
      return m;
    }
    case 9: return read_session_push(in, limits);
    case 10: return read_session_ack(in, limits);
    case 11: {
      SessionBatch m;
      const std::uint64_t entry_count = read_list_count(in, limits);
      m.entries.reserve(static_cast<std::size_t>(entry_count));
      for (std::uint64_t i = 0; i < entry_count; ++i) {
        m.entries.push_back(read_session_push(in, limits));
      }
      return m;
    }
    case 12: {
      SessionBatchAck m;
      const std::uint64_t entry_count = read_list_count(in, limits);
      m.entries.reserve(static_cast<std::size_t>(entry_count));
      for (std::uint64_t i = 0; i < entry_count; ++i) {
        m.entries.push_back(read_session_ack(in, limits));
      }
      return m;
    }
    default: break;
  }
  // Unreachable: decode_header validated the kind. Kept total anyway.
  throw FrameError(FrameFault::UnknownKind,
                   "kind " + std::to_string(kind) + " names no payload variant");
}

}  // namespace

std::vector<std::uint8_t> FrameCodec::encode(const Message& message) const {
  ByteWriter body;
  body.reserve(message.sender.size() + message.recipient.size() + 64);
  body.write_string(message.sender);
  body.write_string(message.recipient);
  std::visit(BodyWriter{body, limits_}, message.payload);
  // The header's length field is a u32, so 0xFFFFFFFF caps the encodable
  // body regardless of how far FrameLimits was loosened — silently
  // truncating the declared length would desync the whole stream.
  constexpr std::size_t kWireMax = 0xFFFFFFFFu;
  if (body.size() > limits_.max_body_bytes || body.size() > kWireMax) {
    throw FrameError(FrameFault::Oversized,
                     "encoded body of " + std::to_string(body.size()) +
                         " bytes exceeds the " +
                         std::to_string(std::min(limits_.max_body_bytes, kWireMax)) +
                         "-byte limit");
  }

  ByteWriter frame;
  frame.reserve(kHeaderSize + body.size());
  frame.write_raw(kMagic);
  frame.write_u8(kVersion);
  frame.write_u8(static_cast<std::uint8_t>(message.payload.index()));
  frame.write_u32(static_cast<std::uint32_t>(body.size()));
  frame.write_raw(body.bytes());
  return frame.take();
}

FrameCodec::Header FrameCodec::decode_header(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() < kHeaderSize) {
    throw FrameError(FrameFault::Truncated,
                     std::to_string(bytes.size()) + " bytes cannot hold the " +
                         std::to_string(kHeaderSize) + "-byte header");
  }
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (bytes[i] != kMagic[i]) {
      throw FrameError(FrameFault::BadMagic, "frame does not start with \"PTIF\"");
    }
  }
  Header header;
  header.version = bytes[4];
  header.kind = bytes[5];
  header.body_bytes = static_cast<std::uint32_t>(bytes[6]) |
                      (static_cast<std::uint32_t>(bytes[7]) << 8) |
                      (static_cast<std::uint32_t>(bytes[8]) << 16) |
                      (static_cast<std::uint32_t>(bytes[9]) << 24);
  if (header.version != kVersion) {
    throw FrameError(FrameFault::BadVersion,
                     "version " + std::to_string(header.version) +
                         " (this codec speaks " + std::to_string(kVersion) + ")");
  }
  if (header.kind >= kKindCount) {
    throw FrameError(FrameFault::UnknownKind,
                     "kind " + std::to_string(header.kind) + " names no payload variant");
  }
  if (header.body_bytes > limits_.max_body_bytes) {
    throw FrameError(FrameFault::Oversized,
                     "declared body of " + std::to_string(header.body_bytes) +
                         " bytes exceeds the " + std::to_string(limits_.max_body_bytes) +
                         "-byte limit");
  }
  return header;
}

Message FrameCodec::decode_body(const Header& header,
                                std::span<const std::uint8_t> body) const {
  if (body.size() != header.body_bytes) {
    throw FrameError(body.size() < header.body_bytes ? FrameFault::Truncated
                                                     : FrameFault::Corrupt,
                     "header declares " + std::to_string(header.body_bytes) +
                         " body bytes, got " + std::to_string(body.size()));
  }
  ByteReader in(body);
  Message message;
  try {
    message.sender = in.read_string();
    message.recipient = in.read_string();
    message.payload = read_body_payload(header.kind, in, limits_);
  } catch (const util::ByteBufferError& e) {
    throw FrameError(FrameFault::Corrupt, e.what());
  }
  if (!in.at_end()) {
    throw FrameError(FrameFault::Corrupt,
                     std::to_string(in.remaining()) + " trailing bytes after the payload");
  }
  return message;
}

Message FrameCodec::decode(std::span<const std::uint8_t> frame) const {
  const Header header = decode_header(frame);
  return decode_body(header, frame.subspan(kHeaderSize));
}

}  // namespace pti::serial
