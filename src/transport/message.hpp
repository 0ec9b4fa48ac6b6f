// Protocol messages of the optimistic transport protocol (paper Fig. 1)
// plus the remoting messages of Section 6.2.
//
//   ObjectPush       (1) object arrives, wrapped in the hybrid envelope
//   TypeInfoRequest  (2) receiver asks for unknown type descriptions
//   TypeInfoResponse (3) sender returns XML type descriptions
//   CodeRequest      (4) types conform: receiver asks for the assembly
//   CodeResponse     (5) code arrives, object becomes usable
//   InvokeRequest/InvokeResponse — pass-by-reference remote invocations
//   PushAck / ErrorReply — outcome signalling
//
// A message's size is measured off serial::FrameCodec's field lists: the
// frame that crosses a socket, plus the simulated assembly bytes that frame
// carries only as counts (see wire_size()).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace pti::transport {

struct ObjectPush {
  std::vector<std::uint8_t> envelope;  ///< serial::Envelope bytes
  /// Eager-mode extras: descriptions and assemblies shipped up front.
  std::vector<std::string> eager_descriptions_xml;
  std::vector<std::string> eager_assembly_names;
  std::uint64_t eager_assembly_bytes = 0;
};

struct PushAck {
  bool delivered = false;
  std::string detail;  ///< interest type on success, reason on rejection
};

struct TypeInfoRequest {
  std::vector<std::string> type_names;
};

struct TypeInfoResponse {
  std::vector<std::string> descriptions_xml;  ///< one per known requested type
  std::vector<std::string> unknown;           ///< requested names this peer lacks
};

struct CodeRequest {
  std::string assembly_name;
};

struct CodeResponse {
  std::string assembly_name;
  bool found = false;
  std::uint64_t code_bytes = 0;  ///< simulated size of the shipped assembly
};

struct InvokeRequest {
  std::uint64_t object_id = 0;
  std::string method_name;
  std::vector<std::uint8_t> args_envelope;  ///< list-of-arguments envelope
};

struct InvokeResponse {
  bool ok = false;
  std::vector<std::uint8_t> result_envelope;  ///< valid when ok
  std::string error;                          ///< valid when !ok
};

struct ErrorReply {
  std::string message;
};

/// One type description piggybacked inline on a SessionPush: binds a
/// session-scoped wire id to a named type the receiver has not seen from
/// this sender yet. Carries everything a cold TypeInfoResponse would, so
/// the nested fetch exchange disappears.
struct SessionIntro {
  std::uint32_t wire_id = 0;
  std::string type_name;
  std::string description_xml;
  std::string assembly_name;
  std::string download_path;
};

/// Session-mode object push: the envelope's type set travels as compact
/// wire ids (established by earlier intros) and the payload travels raw,
/// without the XML envelope wrapper. First-contact types ride along as
/// inline intros — a warmed push is exactly one framed exchange.
struct SessionPush {
  std::uint64_t token = 0;                ///< sender-chosen session identity
  std::vector<std::uint32_t> wire_types;  ///< envelope type set, root first
  std::string encoding;                   ///< payload serializer name
  std::vector<std::uint8_t> payload;      ///< raw serialized object bytes
  std::vector<SessionIntro> intros;       ///< first-contact descriptions
  /// Eager-mode extras: assemblies prepaid alongside the intros.
  std::vector<std::string> intro_assembly_names;
  std::uint64_t intro_assembly_bytes = 0;
};

enum class SessionStatus : std::uint8_t {
  Ok = 0,     ///< session recognised, verdict in `delivered`/`detail`
  Reset = 1,  ///< receiver lost the session state: replay with intros
  Error = 2,  ///< handling failed; `detail` is what an ErrorReply would say
};

struct SessionAck {
  SessionStatus status = SessionStatus::Ok;
  bool delivered = false;
  std::string detail;  ///< interest type on success, reason on rejection
  /// Content hashes (FNV-64 of the canonical description XML) of type
  /// descriptions this receiver already holds. Advertised on Reset and on
  /// the first ack of a session so senders — and, through the hub intro
  /// registry, *other* senders — can skip re-shipping those descriptions.
  std::vector<std::uint64_t> known_desc_hashes;
};

/// Several session pushes to the same recipient in one framed exchange.
/// Entries correlate positionally with the ack's slots: entry i is
/// answered by SessionBatchAck::entries[i], and each slot carries a full
/// per-entry verdict so one refused entry never desynchronises the rest.
struct SessionBatch {
  std::vector<SessionPush> entries;
};

struct SessionBatchAck {
  std::vector<SessionAck> entries;  ///< one verdict per batch entry, in order
};

using MessagePayload =
    std::variant<ObjectPush, PushAck, TypeInfoRequest, TypeInfoResponse, CodeRequest,
                 CodeResponse, InvokeRequest, InvokeResponse, ErrorReply, SessionPush,
                 SessionAck, SessionBatch, SessionBatchAck>;

struct Message {
  std::string sender;
  std::string recipient;
  MessagePayload payload;

  /// serial::FrameCodec::measure(*this).total: what transports charge and admit.
  [[nodiscard]] std::size_t wire_size() const noexcept;
  [[nodiscard]] const char* kind_name() const noexcept;
};

}  // namespace pti::transport
