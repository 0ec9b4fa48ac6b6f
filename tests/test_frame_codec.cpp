// serial::FrameCodec — the wire frame protocol.
//
// Three parts:
//   * round-trip: every Message payload variant survives encode→decode
//     byte-exactly (canonical encoding makes re-encode a strong equality
//     oracle), including empty strings, embedded NULs and binary blobs;
//   * pins: the bytes of every frame and the outcome of every hostile
//     frame in a seeded corpus are fixed digests, so a layout changed on
//     the encode and decode sides at once still fails here;
//   * hostile input: a fixed-seed corpus of truncated, bit-flipped,
//     wrong-version, wrong-kind, oversized and trailing-junk frames must
//     each either decode to a valid Message (a flip that happens to keep
//     the frame well-formed) or throw serial::FrameError with a sensible
//     FrameFault — never crash, never throw anything else, never allocate
//     proportionally to a lying length/count field. The same corpus runs
//     under the TSan and ASan presets in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/expected.hpp"
#include "serial/frame_codec.hpp"
#include "transport/message.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pti {
namespace {

using serial::FrameCodec;
using serial::FrameError;
using serial::FrameFault;
using serial::FrameLimits;
using transport::Message;

/// One representative message per payload variant, with awkward contents:
/// empty strings, embedded NULs, binary payload bytes, large counts.
std::vector<Message> sample_messages() {
  std::vector<Message> samples;

  transport::ObjectPush push;
  push.envelope = {0x00, 0xFF, 0x7F, 0x80, 'P', 'T', 'I', 'F'};
  push.eager_descriptions_xml = {"<type name=\"teamA.Person\"/>", ""};
  push.eager_assembly_names = {"teamA.people", std::string("team\0B", 6)};
  push.eager_assembly_bytes = 123456789;
  samples.push_back({"alice", "bob", std::move(push)});

  samples.push_back({"bob", "alice", transport::PushAck{true, "teamB.Person"}});
  samples.push_back({"", "bob", transport::PushAck{false, ""}});

  samples.push_back(
      {"alice", "bob", transport::TypeInfoRequest{{"teamA.Person", "teamA.Address", ""}}});
  samples.push_back({"bob", "alice",
                     transport::TypeInfoResponse{{"<desc/>", std::string(300, 'x')},
                                                 {"teamC.Unknown"}}});
  samples.push_back({"alice", "bob", transport::CodeRequest{"teamA.people"}});
  samples.push_back({"bob", "alice", transport::CodeResponse{"teamA.people", true, 4096}});

  transport::InvokeRequest invoke;
  invoke.object_id = 0xDEADBEEFCAFEULL;
  invoke.method_name = "get_name";
  invoke.args_envelope = {1, 2, 3, 0, 255};
  samples.push_back({"alice", "bob", std::move(invoke)});

  samples.push_back(
      {"bob", "alice", transport::InvokeResponse{true, {9, 8, 7}, ""}});
  samples.push_back(
      {"bob", "alice", transport::InvokeResponse{false, {}, "no such method"}});
  samples.push_back({"bob", "alice", transport::ErrorReply{"peer 'bob' cannot handle it"}});

  transport::SessionPush session;
  session.token = 0xFEEDFACE12345ULL;
  session.wire_types = {1, 0, 0xFFFFFFFFu};
  session.encoding = "soap-1.1";
  session.payload = {0x00, 0x01, 0xFF, 'P', 'T', 'I', 'F', 0x80};
  session.intros.push_back({7, "teamA.Person", "<type name=\"teamA.Person\"/>",
                            "teamA.people", std::string("net://alice\0x", 13)});
  session.intros.push_back({0, "", "", "", ""});
  session.intro_assembly_names = {"teamA.people"};
  session.intro_assembly_bytes = 987654321;
  samples.push_back({"alice", "bob", std::move(session)});

  samples.push_back({"bob", "alice",
                     transport::SessionAck{transport::SessionStatus::Ok, true,
                                           "teamB.Person", {}}});
  samples.push_back(
      {"bob", "alice",
       transport::SessionAck{transport::SessionStatus::Reset, false, "",
                             {0ULL, 0xFFFFFFFFFFFFFFFFULL, 0xCBF29CE484222325ULL}}});

  transport::SessionBatch batch;
  {
    transport::SessionPush warm;
    warm.token = 42;
    warm.wire_types = {3};
    warm.encoding = "soap-1.1";
    warm.payload = {0xDE, 0xAD, 0x00};
    batch.entries.push_back(std::move(warm));
    transport::SessionPush cold;
    cold.token = 42;
    cold.wire_types = {4, 0};
    cold.encoding = "";
    cold.intros.push_back({4, "teamA.Thing", "<type name=\"teamA.Thing\"/>",
                           "teamA.gen", std::string("net://x\0y", 9)});
    batch.entries.push_back(std::move(cold));
    batch.entries.push_back(transport::SessionPush{});  // degenerate empty entry
  }
  samples.push_back({"alice", "bob", std::move(batch)});

  transport::SessionBatchAck batch_ack;
  batch_ack.entries.push_back(
      {transport::SessionStatus::Ok, true, "teamB.Person", {0x1234ULL}});
  batch_ack.entries.push_back({transport::SessionStatus::Ok, false, "", {}});
  batch_ack.entries.push_back(
      {transport::SessionStatus::Reset, false, "session state lost", {7ULL, 8ULL}});
  samples.push_back({"bob", "alice", std::move(batch_ack)});
  return samples;
}

TEST(FrameCodec, RoundTripsEveryMessageKind) {
  const FrameCodec codec;
  for (const Message& original : sample_messages()) {
    const std::vector<std::uint8_t> frame = codec.encode(original);
    const Message decoded = codec.decode(frame);

    EXPECT_EQ(decoded.sender, original.sender);
    EXPECT_EQ(decoded.recipient, original.recipient);
    EXPECT_EQ(decoded.payload.index(), original.payload.index());
    EXPECT_STREQ(decoded.kind_name(), original.kind_name());
    EXPECT_EQ(decoded.wire_size(), original.wire_size());
    // Canonical encoding: re-encoding the decode must reproduce the frame
    // byte-for-byte — a full-content equality oracle for every variant.
    EXPECT_EQ(codec.encode(decoded), frame) << original.kind_name();
  }
}

TEST(FrameCodec, RoundTripPreservesFieldContents) {
  const FrameCodec codec;
  Message original{"alice", "bob",
                   transport::TypeInfoResponse{{"<a/>", "<b/>"}, {"miss1", "miss2"}}};
  const Message decoded = codec.decode(codec.encode(original));
  const auto& response = std::get<transport::TypeInfoResponse>(decoded.payload);
  EXPECT_EQ(response.descriptions_xml, (std::vector<std::string>{"<a/>", "<b/>"}));
  EXPECT_EQ(response.unknown, (std::vector<std::string>{"miss1", "miss2"}));

  transport::ObjectPush push;
  push.envelope = {0x42, 0x00, 0x99};
  push.eager_assembly_bytes = 777;
  const Message decoded_push =
      codec.decode(codec.encode(Message{"a", "b", std::move(push)}));
  const auto& out = std::get<transport::ObjectPush>(decoded_push.payload);
  EXPECT_EQ(out.envelope, (std::vector<std::uint8_t>{0x42, 0x00, 0x99}));
  EXPECT_EQ(out.eager_assembly_bytes, 777u);
}

TEST(FrameCodec, HeaderLayoutIsPinned) {
  const FrameCodec codec;
  const std::vector<std::uint8_t> frame =
      codec.encode({"a", "b", transport::CodeRequest{"asm"}});
  ASSERT_GE(frame.size(), FrameCodec::kHeaderSize);
  EXPECT_EQ(frame[0], 'P');
  EXPECT_EQ(frame[1], 'T');
  EXPECT_EQ(frame[2], 'I');
  EXPECT_EQ(frame[3], 'F');
  EXPECT_EQ(frame[4], FrameCodec::kVersion);
  EXPECT_EQ(frame[5], 4u);  // CodeRequest's variant index
  const std::uint32_t declared = static_cast<std::uint32_t>(frame[6]) |
                                 (static_cast<std::uint32_t>(frame[7]) << 8) |
                                 (static_cast<std::uint32_t>(frame[8]) << 16) |
                                 (static_cast<std::uint32_t>(frame[9]) << 24);
  EXPECT_EQ(declared, frame.size() - FrameCodec::kHeaderSize);
}

TEST(FrameCodec, StreamingHeaderThenBodyPathMatchesDecode) {
  const FrameCodec codec;
  for (const Message& original : sample_messages()) {
    const std::vector<std::uint8_t> frame = codec.encode(original);
    const auto header =
        codec.decode_header(std::span(frame).first(FrameCodec::kHeaderSize));
    EXPECT_EQ(header.version, FrameCodec::kVersion);
    EXPECT_EQ(header.body_bytes, frame.size() - FrameCodec::kHeaderSize);
    const Message decoded =
        codec.decode_body(header, std::span(frame).subspan(FrameCodec::kHeaderSize));
    EXPECT_EQ(codec.encode(decoded), frame);
  }
}

/// Expects decode to throw FrameError with the given fault.
void expect_fault(const FrameCodec& codec, std::span<const std::uint8_t> frame,
                  FrameFault fault, const std::string& context) {
  try {
    (void)codec.decode(frame);
    FAIL() << context << ": decode accepted a malformed frame";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.fault(), fault) << context << ": " << e.what();
  }
}

TEST(FrameCodec, EveryTruncationOfEveryKindIsRejected) {
  const FrameCodec codec;
  for (const Message& original : sample_messages()) {
    const std::vector<std::uint8_t> frame = codec.encode(original);
    for (std::size_t keep = 0; keep < frame.size(); ++keep) {
      const std::span prefix(frame.data(), keep);
      try {
        (void)codec.decode(prefix);
        FAIL() << original.kind_name() << " decoded from a " << keep << "-byte prefix";
      } catch (const FrameError& e) {
        // A truncated frame is reported as Truncated (header or body cut)
        // or Corrupt (the body parses short) — never anything vaguer.
        EXPECT_TRUE(e.fault() == FrameFault::Truncated || e.fault() == FrameFault::Corrupt)
            << original.kind_name() << " prefix " << keep << ": " << e.what();
      }
    }
  }
}

TEST(FrameCodec, WrongMagicVersionAndKindAreClassified) {
  const FrameCodec codec;
  const std::vector<std::uint8_t> frame =
      codec.encode({"alice", "bob", transport::PushAck{true, "ok"}});

  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> bad = frame;
    bad[i] ^= 0xFF;
    expect_fault(codec, bad, FrameFault::BadMagic, "magic byte " + std::to_string(i));
  }
  // Version 1 frames (pre-batch wire) are rejected too: the codec is
  // strictly single-version; rollouts bump every peer together.
  for (const std::uint8_t version : {0, 1, 7, 255}) {
    std::vector<std::uint8_t> bad = frame;
    bad[4] = version;
    expect_fault(codec, bad, FrameFault::BadVersion,
                 "version " + std::to_string(version));
  }
  for (const std::uint8_t kind : {13, 14, 127, 255}) {
    std::vector<std::uint8_t> bad = frame;
    bad[5] = kind;
    expect_fault(codec, bad, FrameFault::UnknownKind, "kind " + std::to_string(kind));
  }
}

TEST(FrameCodec, OversizedAndTrailingFramesAreRejected) {
  const FrameCodec tight(FrameLimits{.max_body_bytes = 64});
  // Encode-side: a body that cannot fit the limit refuses to encode.
  transport::TypeInfoResponse big;
  big.descriptions_xml.push_back(std::string(1000, 'x'));
  try {
    (void)tight.encode({"a", "b", big});
    FAIL() << "oversized body encoded";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.fault(), FrameFault::Oversized);
  }

  // Decode-side: a header *declaring* a huge body is rejected before any
  // body byte is touched (no allocation proportional to the lie).
  std::vector<std::uint8_t> lying = {'P', 'T', 'I', 'F', FrameCodec::kVersion, 1,
                                     0xFF, 0xFF, 0xFF, 0x7F};
  expect_fault(tight, lying, FrameFault::Oversized, "lying length");

  // Trailing junk after a well-formed frame body.
  const FrameCodec codec;
  std::vector<std::uint8_t> padded =
      codec.encode({"alice", "bob", transport::PushAck{true, "ok"}});
  padded.push_back(0xAB);
  expect_fault(codec, padded, FrameFault::Corrupt, "trailing byte");
}

TEST(FrameCodec, ListCountBombsCannotAllocate) {
  // Hand-craft a TypeInfoRequest body whose list count claims 2^40 strings
  // but provides no bytes: must reject fast, not reserve gigabytes.
  const FrameCodec codec;
  std::vector<std::uint8_t> body;
  body.push_back(1);  // sender "a" (varint length 1)
  body.push_back('a');
  body.push_back(1);  // recipient "b"
  body.push_back('b');
  for (int i = 0; i < 5; ++i) body.push_back(0x80);  // varint 2^40 …
  body.push_back(0x10);                              // … continued
  std::vector<std::uint8_t> frame = {'P', 'T', 'I', 'F', FrameCodec::kVersion, 2};
  frame.push_back(static_cast<std::uint8_t>(body.size()));
  frame.push_back(0);
  frame.push_back(0);
  frame.push_back(0);
  frame.insert(frame.end(), body.begin(), body.end());
  expect_fault(codec, frame, FrameFault::Corrupt, "count bomb");
}

TEST(FrameCodec, ListElementCountCapIsEnforced) {
  // A sea of empty strings fits a modest byte budget while costing ~32x
  // its wire size in std::string objects — the element cap rejects it.
  const FrameCodec loose;
  transport::TypeInfoRequest request;
  for (int i = 0; i < 8; ++i) request.type_names.push_back("t" + std::to_string(i));
  const std::vector<std::uint8_t> frame = loose.encode({"a", "b", request});

  const FrameCodec capped(FrameLimits{.max_list_elements = 4});
  expect_fault(capped, frame, FrameFault::Oversized, "list element cap");
  // At or under the cap, the same codec decodes fine.
  const FrameCodec roomy(FrameLimits{.max_list_elements = 8});
  EXPECT_EQ(roomy.encode(roomy.decode(frame)), frame);

  // Encode-side symmetry: a list every conforming peer is guaranteed to
  // reject refuses to encode in the first place — fail fast locally, not
  // as a remote fault after crossing the wire.
  try {
    (void)capped.encode({"a", "b", request});
    FAIL() << "over-cap list encoded";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.fault(), FrameFault::Oversized);
  }
}

/// Frames a hand-crafted body under the given kind index.
std::vector<std::uint8_t> frame_body(std::uint8_t kind,
                                     const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> frame = {'P', 'T', 'I', 'F', FrameCodec::kVersion, kind};
  frame.push_back(static_cast<std::uint8_t>(body.size()));
  frame.push_back(static_cast<std::uint8_t>(body.size() >> 8));
  frame.push_back(0);
  frame.push_back(0);
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

TEST(FrameCodec, BatchEntryCountBombsCannotAllocate) {
  // SessionBatch (kind 11) and SessionBatchAck (kind 12) bodies whose
  // entry count claims 2^40 entries with no bytes behind it: the honesty
  // check (one byte minimum per entry) must fire before any reserve.
  const FrameCodec codec;
  std::vector<std::uint8_t> body;
  body.push_back(1);  // sender "a"
  body.push_back('a');
  body.push_back(1);  // recipient "b"
  body.push_back('b');
  for (int i = 0; i < 5; ++i) body.push_back(0x80);  // varint 2^40 …
  body.push_back(0x10);                              // … continued
  expect_fault(codec, frame_body(11, body), FrameFault::Corrupt, "batch count bomb");
  expect_fault(codec, frame_body(12, body), FrameFault::Corrupt, "batch ack count bomb");
}

TEST(FrameCodec, AdvertisedHashCountBombCannotAllocate) {
  // A SessionAck (kind 10) whose advertised-hash count lies: status Ok,
  // not delivered, empty detail, then a 2^40 hash count and no hashes.
  const FrameCodec codec;
  std::vector<std::uint8_t> body;
  body.push_back(1);  // sender "a"
  body.push_back('a');
  body.push_back(1);  // recipient "b"
  body.push_back('b');
  body.push_back(0);  // status = Ok
  body.push_back(0);  // delivered = false
  body.push_back(0);  // detail: empty string
  for (int i = 0; i < 5; ++i) body.push_back(0x80);  // varint 2^40 …
  body.push_back(0x10);                              // … continued
  expect_fault(codec, frame_body(10, body), FrameFault::Corrupt, "hash count bomb");
}

TEST(FrameCodec, SessionAckStatusAboveErrorIsRejected) {
  // Status 2 (Error) answers one failed push in its own slot and round-
  // trips; status 3 names no SessionStatus, alone or inside a batch ack.
  const FrameCodec codec;
  transport::SessionBatchAck acks;
  acks.entries.push_back({transport::SessionStatus::Ok, true, "teamB.Person", {}});
  acks.entries.push_back(
      {transport::SessionStatus::Error, false, "resource-exhausted: over budget", {}});
  for (const Message& valid :
       {Message{"b", "a", acks}, Message{"b", "a", acks.entries.back()}}) {
    const std::vector<std::uint8_t> frame = codec.encode(valid);
    EXPECT_EQ(codec.encode(codec.decode(frame)), frame) << valid.kind_name();
  }

  // sender "a", recipient "b", status 3, not delivered, empty detail, no hashes.
  const std::vector<std::uint8_t> ack = {1, 'a', 1, 'b', 3, 0, 0, 0};
  expect_fault(codec, frame_body(10, ack), FrameFault::Corrupt, "session ack status 3");
  const std::vector<std::uint8_t> batch_ack = {1, 'a', 1, 'b', 1, 3, 0, 0, 0};
  expect_fault(codec, frame_body(12, batch_ack), FrameFault::Corrupt, "batch slot status 3");
}

TEST(FrameCodec, BatchEntryAndHashSetCapsAreEnforced) {
  // Allocation is bounded BEFORE body bytes: entry lists and advertised
  // hash sets above max_list_elements classify as Oversized on decode and
  // refuse to encode in the first place.
  const FrameCodec loose;
  transport::SessionBatch batch;
  for (int i = 0; i < 8; ++i) {
    transport::SessionPush entry;
    entry.token = static_cast<std::uint64_t>(i);
    batch.entries.push_back(std::move(entry));
  }
  const std::vector<std::uint8_t> frame = loose.encode({"a", "b", batch});
  const FrameCodec capped(FrameLimits{.max_list_elements = 4});
  expect_fault(capped, frame, FrameFault::Oversized, "batch entry cap");
  try {
    (void)capped.encode({"a", "b", batch});
    FAIL() << "over-cap batch encoded";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.fault(), FrameFault::Oversized);
  }
  const FrameCodec roomy(FrameLimits{.max_list_elements = 8});
  EXPECT_EQ(roomy.encode(roomy.decode(frame)), frame);

  transport::SessionAck ack{transport::SessionStatus::Ok, true, "", {}};
  for (std::uint64_t h = 0; h < 8; ++h) ack.known_desc_hashes.push_back(h * 97);
  const std::vector<std::uint8_t> ack_frame = loose.encode({"a", "b", ack});
  expect_fault(capped, ack_frame, FrameFault::Oversized, "hash set cap");
  try {
    (void)capped.encode({"a", "b", ack});
    FAIL() << "over-cap hash set encoded";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.fault(), FrameFault::Oversized);
  }
  EXPECT_EQ(roomy.encode(roomy.decode(ack_frame)), ack_frame);
}

TEST(FrameCodec, ListElementCapBoundsTheWholeFrame) {
  // A per-list cap multiplies through nested lists: 20 batch entries of
  // 65,536 empty intros each passed it and decoded into 1.3M intros. The
  // cap bounds the elements of all of a frame's lists together.
  transport::SessionBatch batch;
  for (int i = 0; i < 3; ++i) {
    transport::SessionPush entry;
    entry.intros.resize(2);
    batch.entries.push_back(std::move(entry));
  }
  const transport::TypeInfoResponse response{{"<a/>", "<b/>", "<c/>"}, {"x", "y", "z"}};
  // 3 entries + 3 × 2 intros = 9 elements; 3 + 3 names = 6 elements.
  const std::pair<Message, std::size_t> cases[] = {{Message{"a", "b", batch}, 9},
                                                   {Message{"a", "b", response}, 6}};
  const FrameCodec loose;
  const FrameCodec capped(FrameLimits{.max_list_elements = 4});  // every one list fits
  for (const auto& [message, total] : cases) {
    const std::vector<std::uint8_t> frame = loose.encode(message);
    expect_fault(capped, frame, FrameFault::Oversized, message.kind_name());
    try {
      (void)capped.encode(message);
      FAIL() << message.kind_name() << " over the frame-wide cap encoded";
    } catch (const FrameError& e) {
      EXPECT_EQ(e.fault(), FrameFault::Oversized);
    }
    const FrameCodec one_short(FrameLimits{.max_list_elements = total - 1});
    expect_fault(one_short, frame, FrameFault::Oversized, message.kind_name());
    const FrameCodec exact(FrameLimits{.max_list_elements = total});
    EXPECT_EQ(exact.encode(exact.decode(frame)), frame) << message.kind_name();
  }
}

TEST(FrameCodec, FixedSeedBitFlipCorpusNeverCrashes) {
  const FrameCodec codec;
  util::Rng rng(0xBADC0FFEEULL);
  int rejected = 0;
  int survived = 0;
  for (const Message& original : sample_messages()) {
    const std::vector<std::uint8_t> frame = codec.encode(original);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint8_t> mutated = frame;
      // 1-3 random bit flips anywhere in the frame.
      const int flips = 1 + static_cast<int>(rng.next_below(3));
      for (int f = 0; f < flips; ++f) {
        const std::size_t byte = rng.next_below(mutated.size());
        mutated[static_cast<std::size_t>(byte)] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      try {
        const Message decoded = codec.decode(mutated);
        // A flip that kept the frame well-formed must yield a message whose
        // encoding is the mutated frame itself: decoding is canonical.
        EXPECT_EQ(codec.encode(decoded), mutated);
        ++survived;
      } catch (const FrameError&) {
        ++rejected;  // classified rejection is the expected outcome
      }
      // Anything else (std::bad_alloc, segfault, foreign exception types)
      // escapes the try and fails the test run loudly.
    }
  }
  // The corpus must actually exercise the rejection paths.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(survived, 0);
}

// --- pinned wire bytes and hostile outcomes ---------------------------------
//
// Re-encoding is the round-trip tests' only oracle, so a layout edited on
// the encode and decode sides at once passes them. These pins were
// recorded on the version-2 wire and must not move without a version bump.

std::uint64_t fnv(std::uint64_t digest, std::span<const std::uint8_t> bytes) {
  return util::fnv1a64(
      std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()), digest);
}

/// 0..300 arbitrary bytes: embedded NULs, and lengths of 128 and more whose
/// varint prefix takes two bytes.
std::string random_string(util::Rng& rng) {
  std::size_t size = 0;
  switch (rng.next_below(4)) {
    case 0: break;
    case 1: size = 1 + rng.next_below(16); break;
    case 2: size = 128 + rng.next_below(173); break;
    default: size = rng.next_below(64); break;
  }
  std::string s(size, '\0');
  for (char& c : s) c = static_cast<char>(rng.next_below(256));
  return s;
}

std::vector<std::uint8_t> random_bytes(util::Rng& rng) {
  const std::string s = random_string(rng);
  return {s.begin(), s.end()};
}

/// Varint length edges half the time, any 64-bit value otherwise.
std::uint64_t random_u64(util::Rng& rng) {
  static constexpr std::uint64_t kEdges[] = {
      0, 1, 127, 128, 16383, 16384, 0xFFFFFFFFULL, 0x100000000ULL, ~0ULL};
  return rng.next_below(2) == 0 ? kEdges[rng.next_below(std::size(kEdges))]
                                : rng.next_u64();
}

std::uint32_t random_wire_id(util::Rng& rng) {
  static constexpr std::uint32_t kEdges[] = {0, 1, 127, 128, 0xFFFFFFFFu};
  return rng.next_below(2) == 0 ? kEdges[rng.next_below(std::size(kEdges))]
                                : static_cast<std::uint32_t>(rng.next_u64());
}

bool random_bool(util::Rng& rng) { return rng.next_below(2) == 1; }

template <typename T, typename Make>
std::vector<T> random_list(util::Rng& rng, std::size_t max, Make make) {
  std::vector<T> list(rng.next_below(max + 1));
  for (T& item : list) item = make(rng);
  return list;
}

transport::SessionIntro random_intro(util::Rng& rng) {
  transport::SessionIntro m;
  m.wire_id = random_wire_id(rng);
  m.type_name = random_string(rng);
  m.description_xml = random_string(rng);
  m.assembly_name = random_string(rng);
  m.download_path = random_string(rng);
  return m;
}

transport::SessionPush random_session_push(util::Rng& rng) {
  transport::SessionPush m;
  m.token = random_u64(rng);
  m.wire_types = random_list<std::uint32_t>(rng, 4, random_wire_id);
  m.encoding = random_string(rng);
  m.payload = random_bytes(rng);
  m.intros = random_list<transport::SessionIntro>(rng, 3, random_intro);
  m.intro_assembly_names = random_list<std::string>(rng, 3, random_string);
  m.intro_assembly_bytes = random_u64(rng);
  return m;
}

transport::SessionAck random_session_ack(util::Rng& rng) {
  transport::SessionAck m;
  m.status = static_cast<transport::SessionStatus>(rng.next_below(3));
  m.delivered = random_bool(rng);
  m.detail = random_string(rng);
  m.known_desc_hashes = random_list<std::uint64_t>(rng, 5, random_u64);
  return m;
}

/// A message of payload kind `kind` with every field drawn from `rng`.
Message random_message(util::Rng& rng, std::size_t kind) {
  Message m;
  m.sender = random_string(rng);
  m.recipient = random_string(rng);
  switch (kind) {
    case 0: {
      transport::ObjectPush p;
      p.envelope = random_bytes(rng);
      p.eager_descriptions_xml = random_list<std::string>(rng, 3, random_string);
      p.eager_assembly_names = random_list<std::string>(rng, 3, random_string);
      p.eager_assembly_bytes = random_u64(rng);
      m.payload = std::move(p);
      break;
    }
    case 1: {
      transport::PushAck p;
      p.delivered = random_bool(rng);
      p.detail = random_string(rng);
      m.payload = std::move(p);
      break;
    }
    case 2:
      m.payload = transport::TypeInfoRequest{random_list<std::string>(rng, 5, random_string)};
      break;
    case 3: {
      transport::TypeInfoResponse p;
      p.descriptions_xml = random_list<std::string>(rng, 4, random_string);
      p.unknown = random_list<std::string>(rng, 3, random_string);
      m.payload = std::move(p);
      break;
    }
    case 4: m.payload = transport::CodeRequest{random_string(rng)}; break;
    case 5: {
      transport::CodeResponse p;
      p.assembly_name = random_string(rng);
      p.found = random_bool(rng);
      p.code_bytes = random_u64(rng);
      m.payload = std::move(p);
      break;
    }
    case 6: {
      transport::InvokeRequest p;
      p.object_id = random_u64(rng);
      p.method_name = random_string(rng);
      p.args_envelope = random_bytes(rng);
      m.payload = std::move(p);
      break;
    }
    case 7: {
      transport::InvokeResponse p;
      p.ok = random_bool(rng);
      p.result_envelope = random_bytes(rng);
      p.error = random_string(rng);
      m.payload = std::move(p);
      break;
    }
    case 8: m.payload = transport::ErrorReply{random_string(rng)}; break;
    case 9: m.payload = random_session_push(rng); break;
    case 10: m.payload = random_session_ack(rng); break;
    case 11:
      m.payload = transport::SessionBatch{
          random_list<transport::SessionPush>(rng, 5, random_session_push)};
      break;
    default:
      m.payload = transport::SessionBatchAck{
          random_list<transport::SessionAck>(rng, 5, random_session_ack)};
      break;
  }
  return m;
}

/// sample_messages() plus 2,080 seeded messages, 160 of each kind.
std::vector<Message> pinned_corpus() {
  std::vector<Message> corpus = sample_messages();
  util::Rng rng(0x5EED'F4A3ULL);
  constexpr std::size_t kKinds = std::variant_size_v<transport::MessagePayload>;
  for (std::size_t i = 0; i < 160 * kKinds; ++i) {
    corpus.push_back(random_message(rng, i % kKinds));
  }
  return corpus;
}

TEST(FrameCodec, FrameBytesArePinned) {
  struct Pin {
    std::size_t size;
    std::uint64_t fnv;
  };
  static constexpr Pin kSamplePins[] = {
      {84, 0xcd42afe7a4ab82b1ULL},  {34, 0x6607246e5a95891bULL},
      {17, 0xc8d357a3b3f320d4ULL},  {49, 0x8d17f84eefd63f0dULL},
      {346, 0x0b6d8ca14ba6fe9aULL}, {33, 0x09b4b80966c1b3a3ULL},
      {36, 0x3d6f84da4e07feb4ULL},  {42, 0x02a6e78e5c6ae095ULL},
      {26, 0xc3ed097a813c5a26ULL},  {37, 0xa41ad9f766765e3cULL},
      {48, 0x4e74179b6275574bULL},  {148, 0x82d039e43070756fULL},
      {36, 0xad8bd6c4964d5826ULL},  {45, 0x67496f184b25e884ULL},
      {116, 0x7576b78f83705786ULL}, {67, 0x39a2b29ca827e7c4ULL}};
  const FrameCodec codec;
  const std::vector<Message> samples = sample_messages();
  ASSERT_EQ(samples.size(), std::size(kSamplePins));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::vector<std::uint8_t> frame = codec.encode(samples[i]);
    EXPECT_EQ(frame.size(), kSamplePins[i].size) << i << " " << samples[i].kind_name();
    EXPECT_EQ(fnv(util::kFnvOffset64, frame), kSamplePins[i].fnv)
        << i << " " << samples[i].kind_name();
  }

  std::uint64_t digest = util::kFnvOffset64;
  std::size_t bytes = 0;
  for (const Message& message : pinned_corpus()) {
    const std::vector<std::uint8_t> frame = codec.encode(message);
    bytes += frame.size();
    digest = fnv(digest, frame);
  }
  EXPECT_EQ(bytes, 906333u);
  EXPECT_EQ(digest, 0x76382e0328ca139bULL);
}

TEST(FrameCodec, HostileOutcomesArePinned) {
  // Each frame of the pinned corpus yields four hostile variants: two with
  // 1-3 bit flips, one cut short, and one cut short with its header's
  // length rewritten to match, so the body parser meets the cut. Each
  // outcome folds in: the FNV of the decoded message's re-encoding, or
  // the FrameFault that rejected the frame.
  const FrameCodec codec;
  util::Rng rng(0xF11B'5EEDULL);
  std::uint64_t digest = util::kFnvOffset64;
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  const auto fold_outcome = [&](std::span<const std::uint8_t> frame) {
    Message message;
    try {
      message = codec.decode(frame);
    } catch (const FrameError& e) {
      ++rejected;
      digest = util::hash_combine(digest, static_cast<std::uint64_t>(e.fault()));
      return;
    }
    ++decoded;
    const std::vector<std::uint8_t> encoded = codec.encode(message);
    // Canonical decoding: a frame that decodes is its message's encoding.
    EXPECT_TRUE(std::ranges::equal(encoded, frame)) << message.kind_name();
    digest = util::hash_combine(digest, fnv(util::kFnvOffset64, encoded));
  };
  for (const Message& message : pinned_corpus()) {
    const std::vector<std::uint8_t> frame = codec.encode(message);
    for (int variant = 0; variant < 2; ++variant) {
      std::vector<std::uint8_t> flipped = frame;
      const int flips = 1 + static_cast<int>(rng.next_below(3));
      for (int f = 0; f < flips; ++f) {
        flipped[rng.next_below(flipped.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      fold_outcome(flipped);
    }
    fold_outcome(std::span(frame).first(rng.next_below(frame.size())));

    const std::size_t kept = rng.next_below(frame.size() - FrameCodec::kHeaderSize);
    const auto prefix = std::span(frame).first(FrameCodec::kHeaderSize + kept);
    std::vector<std::uint8_t> cut(prefix.begin(), prefix.end());
    for (std::size_t b = 0; b < 4; ++b) {
      cut[6 + b] = static_cast<std::uint8_t>(kept >> (8 * b));
    }
    fold_outcome(cut);
  }
  // 26 of the rejected variants would decode under a lenient reader: a
  // bool byte other than 0 or 1, or a varint longer than its value needs.
  EXPECT_EQ(decoded, 3271u);
  EXPECT_EQ(rejected, 5113u);
  EXPECT_EQ(digest, 0x2ef1f22a231ac9f9ULL);
}

/// The saturating sum of the counts a message declares for the assembly
/// code it stands for: what FrameCodec::Size::total adds to the frame.
std::uint64_t declared_assembly_bytes(const Message& message) {
  std::uint64_t sum = 0;
  const auto add = [&sum](std::uint64_t n) {
    sum = n > ~0ULL - sum ? ~0ULL : sum + n;
  };
  if (const auto* p = std::get_if<transport::ObjectPush>(&message.payload)) {
    add(p->eager_assembly_bytes);
  } else if (const auto* c = std::get_if<transport::CodeResponse>(&message.payload)) {
    add(c->code_bytes);
  } else if (const auto* s = std::get_if<transport::SessionPush>(&message.payload)) {
    add(s->intro_assembly_bytes);
  } else if (const auto* b = std::get_if<transport::SessionBatch>(&message.payload)) {
    for (const auto& entry : b->entries) add(entry.intro_assembly_bytes);
  }
  return sum;
}

TEST(FrameCodec, MeasureIsTheEncodedFramePlusDeclaredAssemblyBytes) {
  // One byte model: the size the link model and the quota read is the
  // frame encode() writes, plus the simulated assembly bytes it counts.
  const FrameCodec codec;
  std::size_t saturated = 0;
  for (const Message& message : pinned_corpus()) {
    const FrameCodec::Size size = FrameCodec::measure(message);
    const std::uint64_t simulated = declared_assembly_bytes(message);
    FrameCodec::Size encoded;
    EXPECT_EQ(size.frame, codec.encode(message, &encoded).size()) << message.kind_name();
    const bool saturates = simulated > ~0ULL - size.frame;
    saturated += saturates ? 1 : 0;
    EXPECT_EQ(size.total, saturates ? ~0ULL : size.frame + simulated) << message.kind_name();
    EXPECT_EQ(encoded.frame, size.frame);  // encode reports the walk it made
    EXPECT_EQ(encoded.total, size.total);
    EXPECT_EQ(message.wire_size(), size.total);
  }
  EXPECT_GT(saturated, 0u);  // the corpus declares counts near 2^64
}

TEST(FrameCodec, MeasureIgnoresTheElementBudget) {
  // A message in memory allocates nothing per element, so measuring it
  // never throws, however many list elements it holds; encode still
  // refuses the frame no peer would decode.
  transport::TypeInfoRequest request;
  request.type_names.resize(FrameLimits{}.max_list_elements + 1);
  const Message message{"a", "b", std::move(request)};
  EXPECT_EQ(FrameCodec::measure(message).frame, FrameCodec::kHeaderSize + 4 + 3 + 65537);
  try {
    (void)FrameCodec{}.encode(message);
    FAIL() << "over-budget list encoded";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.fault(), FrameFault::Oversized);
  }
}

TEST(FrameCodec, OnlyTheExactEncodingDecodes) {
  // A PushAck body: sender "a", recipient "b", delivered, detail. The
  // canonical spelling decodes; a bool byte of 2 and a zero-length string
  // spelled 0x80 0x00 name the same message in more bytes, and are Corrupt.
  const FrameCodec codec;
  const std::vector<std::uint8_t> canonical = {1, 'a', 1, 'b', 1, 0};
  const Message decoded = codec.decode(frame_body(1, canonical));
  EXPECT_TRUE(std::get<transport::PushAck>(decoded.payload).delivered);
  EXPECT_EQ(codec.encode(decoded), frame_body(1, canonical));

  expect_fault(codec, frame_body(1, {1, 'a', 1, 'b', 2, 0}), FrameFault::Corrupt,
               "bool byte 2");
  expect_fault(codec, frame_body(1, {1, 'a', 1, 'b', 1, 0x80, 0x00}), FrameFault::Corrupt,
               "overlong string length");
}

TEST(FrameCodec, FrameErrorsClassifyAsSerialization) {
  const FrameCodec codec;
  const std::vector<std::uint8_t> garbage = {'n', 'o', 'p', 'e', 0, 0, 0, 0, 0, 0};
  try {
    (void)codec.decode(garbage);
    FAIL() << "garbage decoded";
  } catch (...) {
    const core::Error error = core::Error::from_current_exception();
    EXPECT_EQ(error.code, core::ErrorCode::Serialization);
    EXPECT_NE(error.message.find("bad-magic"), std::string::npos) << error.message;
  }
}

}  // namespace
}  // namespace pti
