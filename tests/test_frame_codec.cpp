// serial::FrameCodec — the wire frame protocol.
//
// Two halves:
//   * round-trip: every Message payload variant survives encode→decode
//     byte-exactly (canonical encoding makes re-encode a strong equality
//     oracle), including empty strings, embedded NULs and binary blobs;
//   * hostile input: a fixed-seed corpus of truncated, bit-flipped,
//     wrong-version, wrong-kind, oversized and trailing-junk frames must
//     each either decode to a valid Message (a flip that happens to keep
//     the frame well-formed) or throw serial::FrameError with a sensible
//     FrameFault — never crash, never throw anything else, never allocate
//     proportionally to a lying length/count field. The same corpus runs
//     under the TSan and ASan presets in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/expected.hpp"
#include "serial/frame_codec.hpp"
#include "transport/message.hpp"
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
        // A flip that kept the frame well-formed must yield a message the
        // codec can re-encode (decode never fabricates unencodable state;
        // the re-encode may be shorter when a flip produced a redundant
        // varint spelling, so only re-encodability is asserted).
        EXPECT_FALSE(codec.encode(decoded).empty());
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
