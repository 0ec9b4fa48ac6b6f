#include "serial/frame_codec.hpp"

#include <algorithm>
#include <bit>
#include <concepts>
#include <string>
#include <type_traits>
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

void require_known_kind(std::uint8_t kind) {
  if (kind >= kKindCount) {
    throw FrameError(FrameFault::UnknownKind,
                     "kind " + std::to_string(kind) + " names no payload variant");
  }
}

// One field list per body, in wire order, walked to encode, to decode and
// to measure, so a layout, its decoding and its size come from one
// definition. SessionPush/SessionAck recurse through theirs: a batch entry
// is byte-identical to its standalone kind-9/10 body by construction.

template <typename M, typename T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

/// Assembly bytes the simulation charges but no socket carries: a varint
/// on the wire, whose value measure() adds to the frame's size.
template <typename T>
struct Simulated {
  T& bytes;
};

/// a + b, saturating: the simulated counts are peer-declared.
std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) { return a + std::min(b, ~a); }

void fields(Is<ObjectPush> auto& m, auto& v) {
  v(m.envelope, m.eager_descriptions_xml, m.eager_assembly_names,
    Simulated{m.eager_assembly_bytes});
}
void fields(Is<PushAck> auto& m, auto& v) { v(m.delivered, m.detail); }
void fields(Is<TypeInfoRequest> auto& m, auto& v) { v(m.type_names); }
void fields(Is<TypeInfoResponse> auto& m, auto& v) { v(m.descriptions_xml, m.unknown); }
void fields(Is<CodeRequest> auto& m, auto& v) { v(m.assembly_name); }
void fields(Is<CodeResponse> auto& m, auto& v) {
  v(m.assembly_name, m.found, Simulated{m.code_bytes});
}
void fields(Is<InvokeRequest> auto& m, auto& v) {
  v(m.object_id, m.method_name, m.args_envelope);
}
void fields(Is<InvokeResponse> auto& m, auto& v) { v(m.ok, m.result_envelope, m.error); }
void fields(Is<ErrorReply> auto& m, auto& v) { v(m.message); }
void fields(Is<SessionIntro> auto& m, auto& v) {
  v(m.wire_id, m.type_name, m.description_xml, m.assembly_name, m.download_path);
}
void fields(Is<SessionPush> auto& m, auto& v) {
  v(m.token, m.wire_types, m.encoding, m.payload, m.intros, m.intro_assembly_names,
    Simulated{m.intro_assembly_bytes});
}
void fields(Is<SessionAck> auto& m, auto& v) {
  v(m.status, m.delivered, m.detail, m.known_desc_hashes);
}
void fields(Is<SessionBatch> auto& m, auto& v) { v(m.entries); }
void fields(Is<SessionBatchAck> auto& m, auto& v) { v(m.entries); }

/// The list element cap, charged by both directions over the whole frame
/// (a per-list cap multiplies through nested lists: a batch's entries'
/// intros). It bounds the decode's per-element object overhead on top of
/// the byte budget (67M empty strings fit a 64 MiB body but cost
/// gigabytes); a frame every conforming peer rejects as Oversized fails
/// fast at encode, not as a remote fault plus a torn-down connection.
struct ElementBudget {
  std::uint64_t max = ~std::uint64_t{0};  ///< none by default
  std::uint64_t total = 0;
  void charge(std::uint64_t count) {
    total += count;
    if (total > max) {
      throw FrameError(FrameFault::Oversized,
                       "list of " + std::to_string(count) + " elements brings the frame to " +
                           std::to_string(total) + ", over the " + std::to_string(max) +
                           "-element limit");
    }
  }
};

/// ByteWriter's primitives, counted instead of written.
struct ByteCounter {
  static std::size_t varint(std::uint64_t v) { return (std::bit_width(v | 1) + 6u) / 7; }
  std::size_t bytes = 0;
  void write_u8(std::uint8_t) { ++bytes; }
  void write_varint(std::uint64_t v) { bytes += varint(v); }
  void write_string(std::string_view s) { bytes += varint(s.size()) + s.size(); }
  void write_bytes(std::span<const std::uint8_t> b) { bytes += varint(b.size()) + b.size(); }
};

/// Writes field lists to a ByteWriter, or counts them on a ByteCounter:
/// each field type's rule is written once, here.
template <typename Sink>
struct Writer {
  Sink& out;
  ElementBudget elements;
  std::uint64_t simulated = 0;  ///< the Simulated fields' sum, saturating

  /// One message's body: sender, recipient, then its payload's field list.
  void body(const Message& message) {
    (*this)(message.sender, message.recipient);
    std::visit([this](const auto& m) { fields(m, *this); }, message.payload);
  }
  template <typename... F>
  void operator()(const F&... f) {
    (field(f), ...);
  }

  void field(bool v) { out.write_u8(v ? 1 : 0); }
  void field(std::uint64_t v) { out.write_varint(v); }
  void field(std::uint32_t v) { out.write_varint(v); }
  void field(SessionStatus v) { out.write_u8(static_cast<std::uint8_t>(v)); }
  void field(const std::string& v) { out.write_string(v); }
  void field(const std::vector<std::uint8_t>& v) { out.write_bytes(v); }
  void field(Simulated<const std::uint64_t> v) {
    field(v.bytes);
    simulated = saturating_add(simulated, v.bytes);
  }
  template <typename T>
  void field(const std::vector<T>& list) {
    elements.charge(list.size());
    out.write_varint(list.size());
    for (const T& item : list) field(item);
  }
  /// A nested record: SessionIntro, SessionPush or SessionAck.
  template <typename M>
  void field(const M& record) {
    fields(record, *this);
  }
};

/// Decodes field lists, with every wire check the decode makes.
struct Reader {
  ByteReader& in;
  ElementBudget elements;

  template <typename... F>
  void operator()(F&&... f) {
    (field(f), ...);
  }

  /// A byte of at most `last`: a bool or a SessionStatus has exactly one
  /// encoding per value (ByteReader::read_bool takes any nonzero byte).
  std::uint8_t byte_up_to(std::uint8_t last, const char* what) {
    const std::uint8_t byte = in.read_u8();
    if (byte > last) throw util::ByteBufferError(what + (" byte " + std::to_string(byte)));
    return byte;
  }
  void field(bool& v) { v = byte_up_to(1, "bool") == 1; }
  void field(SessionStatus& v) {
    v = static_cast<SessionStatus>(
        byte_up_to(static_cast<std::uint8_t>(SessionStatus::Error), "session ack status"));
  }
  void field(std::uint64_t& v) { v = in.read_varint(); }
  void field(Simulated<std::uint64_t> v) { field(v.bytes); }
  /// A session wire id.
  void field(std::uint32_t& v) {
    const std::uint64_t id = in.read_varint();
    if (id > 0xFFFFFFFFull) throw util::ByteBufferError("session wire id exceeds 32 bits");
    v = static_cast<std::uint32_t>(id);
  }
  void field(std::string& v) { v = in.read_string(); }
  void field(std::vector<std::uint8_t>& v) { v = in.read_bytes(); }
  /// Every encoded element occupies at least one byte, so a count above
  /// the bytes left cannot be honest: both checks run before anything
  /// proportional to the count is allocated.
  template <typename T>
  void field(std::vector<T>& list) {
    const std::uint64_t count = in.read_varint();
    if (count > in.remaining()) {
      throw util::ByteBufferError("list count exceeds remaining frame bytes");
    }
    elements.charge(count);
    list.resize(static_cast<std::size_t>(count));
    for (T& item : list) field(item);
  }
  template <typename M>
  void field(M& record) {
    fields(record, *this);
  }
};

/// The default-constructed payload alternative that `kind` names.
MessagePayload alternative(std::uint8_t kind) {
  require_known_kind(kind);
  return [kind]<std::size_t... I>(std::index_sequence<I...>) {
    MessagePayload payload;
    ((kind == I ? (void)payload.emplace<I>() : void()), ...);
    return payload;
  }(std::make_index_sequence<kKindCount>{});
}

}  // namespace

FrameCodec::Size FrameCodec::measure(const Message& message) noexcept {
  ByteCounter counter{kHeaderSize};
  Writer<ByteCounter> writer{counter, {}};
  writer.body(message);
  return {counter.bytes, saturating_add(counter.bytes, writer.simulated)};
}

std::vector<std::uint8_t> FrameCodec::encode(const Message& message, Size* size) const {
  const Size measured = measure(message);
  if (size != nullptr) *size = measured;
  const std::size_t body = measured.frame - kHeaderSize;
  // The header's length field is a u32, so 0xFFFFFFFF caps the encodable
  // body regardless of how far FrameLimits was loosened — silently
  // truncating the declared length would desync the whole stream.
  constexpr std::size_t kWireMax = 0xFFFFFFFFu;
  if (body > limits_.max_body_bytes || body > kWireMax) {
    throw FrameError(FrameFault::Oversized,
                     "encoded body of " + std::to_string(body) + " bytes exceeds the " +
                         std::to_string(std::min(limits_.max_body_bytes, kWireMax)) +
                         "-byte limit");
  }

  ByteWriter frame;
  frame.reserve(kHeaderSize + body);  // the one buffer, exactly the frame's size
  frame.write_raw(kMagic);
  frame.write_u8(kVersion);
  frame.write_u8(static_cast<std::uint8_t>(message.payload.index()));
  frame.write_u32(static_cast<std::uint32_t>(body));
  Writer<ByteWriter>{frame, {limits_.max_list_elements}}.body(message);
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
  require_known_kind(header.kind);
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
    Reader reader{in, {limits_.max_list_elements}};
    reader(message.sender, message.recipient);
    message.payload = alternative(header.kind);
    std::visit([&reader](auto& m) { fields(m, reader); }, message.payload);
  } catch (const util::ByteBufferError& e) {
    throw FrameError(FrameFault::Corrupt, e.what());
  }
  // Only the exact encoding decodes: no trailing bytes, no overlong varint.
  if (measure(message).frame != kHeaderSize + body.size()) {
    throw FrameError(FrameFault::Corrupt, "body is not its message's exact encoding");
  }
  return message;
}

Message FrameCodec::decode(std::span<const std::uint8_t> frame) const {
  const Header header = decode_header(frame);
  return decode_body(header, frame.subspan(kHeaderSize));
}

}  // namespace pti::serial
