// FrameCodec — the versioned binary frame protocol that puts
// transport::Message on a real wire.
//
// FrameCodec gives every payload variant a byte representation so a
// transport can ship it across a socket, and measures its size from it:
//
//   offset  size  field
//   0       4     magic "PTIF"
//   4       1     protocol version (kVersion)
//   5       1     kind — the Message payload variant index (0..12)
//   6       4     body length in bytes, little-endian u32
//   10      len   body
//
//   body := sender string, recipient string, then the variant's field
//   list, encoded with util::ByteWriter primitives (LEB128 varints,
//   length-prefixed strings/bytes) — the same primitives as the binary
//   object serializer, so the whole frame shares one encoding idiom. Each
//   variant (and SessionIntro) has one field list in wire order, which
//   encode(), decode_body() and measure() all walk, so a layout's two
//   directions and its size cannot drift apart. ObjectPush and
//   InvokeRequest bodies embed serial::Envelope bytes verbatim.
//
// Versioning rules: the magic never changes; a decoder accepts exactly the
// versions it speaks (currently only kVersion) and rejects everything else
// as FrameFault::BadVersion — peers negotiate by failing loudly, not by
// guessing. New payload variants append new kind values; existing kinds
// never change shape within a version. (Version 2 added the SessionBatch /
// SessionBatchAck kinds and the known-description hash set on SessionAck —
// a shape change to an existing kind, hence the bump.)
//
// Decoding is strict and total: any input either is the exact encoding of
// the Message it yields or throws serial::FrameError with a classified
// FrameFault. No crash, no partial message, no unbounded allocation (body
// length is capped by FrameLimits before any body byte is touched, and list
// counts cannot allocate beyond the bytes present or the element budget).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "serial/serial_error.hpp"
#include "transport/message.hpp"

namespace pti::serial {

/// Resource caps, enforced by decode and by encode alike. The defaults
/// admit every frame the protocol produces today with room to spare (a
/// session window holds a few list elements per entry); transports facing
/// hostile peers can tighten them per codec instance.
struct FrameLimits {
  /// Max body length a header may declare (and encode() may produce).
  std::size_t max_body_bytes = 64u * 1024u * 1024u;  // 64 MiB
  /// Max list elements in one frame, summed over all its lists, nested
  /// ones included (a batch's entries and each entry's intros). Bounds the
  /// decode's per-element object overhead (a sea of empty strings
  /// amplifies ~32x over its wire bytes), not just its raw byte budget; a
  /// per-list cap would multiply through the nesting.
  std::size_t max_list_elements = 65536;
};

class FrameCodec {
 public:
  static constexpr std::array<std::uint8_t, 4> kMagic = {'P', 'T', 'I', 'F'};
  static constexpr std::uint8_t kVersion = 2;
  static constexpr std::size_t kHeaderSize = 10;

  /// The validated contents of a frame header.
  struct Header {
    std::uint8_t version = 0;
    std::uint8_t kind = 0;          ///< Message payload variant index
    std::uint32_t body_bytes = 0;   ///< body length following the header
  };

  /// The frame encode() writes, and `total`: that frame plus the assembly
  /// bytes it carries only as counts, saturating (they are peer-declared).
  struct Size {
    std::size_t frame = 0;
    std::uint64_t total = 0;
  };

  explicit FrameCodec(FrameLimits limits = {}) noexcept : limits_(limits) {}

  /// One walk of the field lists, without encoding and without the element
  /// budget (a message in memory allocates nothing per element).
  [[nodiscard]] static Size measure(const transport::Message& message) noexcept;

  [[nodiscard]] const FrameLimits& limits() const noexcept { return limits_; }

  /// Serializes `message` into one complete frame (header + body); `*size`,
  /// when given, receives its measure(). Throws FrameError{Oversized} when
  /// the body exceeds max_body_bytes or the frame's lists hold more than
  /// max_list_elements in total — the same caps the decoder enforces, so
  /// anything encode() accepts every conforming peer decodes.
  [[nodiscard]] std::vector<std::uint8_t> encode(const transport::Message& message,
                                                 Size* size = nullptr) const;

  /// Decodes exactly one complete frame. Throws FrameError on any
  /// malformed input (see the fault taxonomy in serial_error.hpp).
  [[nodiscard]] transport::Message decode(std::span<const std::uint8_t> frame) const;

  /// Validates the fixed-size header alone — the stream-reading entry
  /// point: read kHeaderSize bytes, call this, then read exactly
  /// header.body_bytes more and hand them to decode_body().
  [[nodiscard]] Header decode_header(std::span<const std::uint8_t> bytes) const;

  /// Decodes a body whose header has already been validated. `body.size()`
  /// must equal `header.body_bytes`.
  [[nodiscard]] transport::Message decode_body(const Header& header,
                                               std::span<const std::uint8_t> body) const;

 private:
  FrameLimits limits_;
};

}  // namespace pti::serial
