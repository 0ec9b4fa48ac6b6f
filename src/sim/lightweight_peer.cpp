#include "sim/lightweight_peer.hpp"

#include <algorithm>
#include <utility>
#include <variant>

#include "transport/transport_error.hpp"
#include "util/error.hpp"

namespace pti::sim {

using transport::CodeRequest;
using transport::CodeResponse;
using transport::ErrorReply;
using transport::Message;
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

namespace {

constexpr LightweightPeer::PushOutcome kDropped{false, true, LightweightPeer::kNoInterest};

/// The outcome an ack reports: the matched interest is named by `detail`.
LightweightPeer::PushOutcome outcome_of(const TypeUniverse& universe, bool delivered,
                                        const std::string& detail) {
  return {delivered, false,
          delivered ? universe.interest_by_type_name(detail) : LightweightPeer::kNoInterest};
}

}  // namespace

LightweightPeer::LightweightPeer(std::uint32_t index, transport::Transport& network,
                                 TypeUniverse& universe, transport::AssemblyHub& hub,
                                 transport::ProtocolMode mode, bool use_sessions)
    : index_(index),
      name_("p" + std::to_string(index)),
      network_(network),
      universe_(universe),
      hub_(hub),
      mode_(mode),
      known_(universe.type_count(), false),
      loaded_(universe.type_count(), false),
      use_sessions_(use_sessions),
      intro_sent_(universe.type_count()),
      session_known_(universe.type_count()) {}

LightweightPeer::~LightweightPeer() {
  if (live_) leave();
}

void LightweightPeer::set_interests(std::vector<std::uint32_t> interest_families) {
  interest_families_ = std::move(interest_families);
}

void LightweightPeer::join() {
  if (live_) return;
  sub_ = hub_.interests().add_subscriber();
  for (const std::uint32_t family : interest_families_) {
    hub_.interests().add_interest(sub_, universe_.interest_id(family));
  }
  network_.attach(name_, [this](const Message& m) { return handle(m); });
  live_ = true;
}

void LightweightPeer::leave() {
  if (!live_) return;
  network_.detach(name_);
  hub_.interests().remove_subscriber(sub_);
  sub_ = transport::kNoSubscriber;
  live_ = false;
}

std::size_t LightweightPeer::SessionBits::row(std::uint64_t peer) {
  const auto next = static_cast<std::uint32_t>(rows_.size());
  const auto [row, inserted] = rows_.try_emplace(peer, next);
  if (inserted) bits_.resize(bits_.size() + words_, 0);
  return row;
}

void LightweightPeer::SessionBits::clear(std::size_t row) noexcept {
  std::fill_n(bits_.begin() + static_cast<std::ptrdiff_t>(row * words_), words_, 0);
}

SessionPush LightweightPeer::build_session_entry(const std::string& target,
                                                 std::uint32_t family, bool fresh) {
  SessionPush push;
  push.token = index_ + 1;
  push.wire_types = {family + 1};
  push.encoding = universe_.payload_encoding();
  push.payload = universe_.payload_bytes(family);
  if (fresh) {
    SessionIntro intro;
    intro.wire_id = family + 1;
    intro.type_name = universe_.publisher_type_name(family);
    // A target that advertised this hash earlier (to us or to any other
    // sender) gets the wire binding without the XML.
    if (!hub_.intro_registry().knows(target, universe_.description_hash(family))) {
      intro.description_xml = universe_.description_xml(family);
    }
    intro.assembly_name = universe_.assembly_name(family);
    intro.download_path = "net://origin/" + universe_.assembly_name(family);
    push.intros.push_back(std::move(intro));
    if (mode_ == transport::ProtocolMode::Eager) {
      push.intro_assembly_names.push_back(universe_.assembly_name(family));
      push.intro_assembly_bytes = universe_.assembly_code_size(family);
    }
  }
  return push;
}

// --- sender: one settle ------------------------------------------------------
//
// Every session push shape (the unbatched push, each batch slot, the
// replay) ends in settle(); a Reset earns the push exactly one replay.

std::optional<LightweightPeer::PushOutcome> LightweightPeer::settle(
    const std::string& target, std::size_t row, const SessionAck& ack, std::uint32_t family,
    bool fresh) {
  hub_.intro_registry().record_all(target, ack.known_desc_hashes);
  switch (ack.status) {
    case SessionStatus::Ok:
      if (fresh) intro_sent_.set(row, family);  // commit-on-ack
      return outcome_of(universe_, ack.delivered, ack.detail);
    case SessionStatus::Reset:
      // The receiver lost the session: the replay re-introduces the family.
      intro_sent_.clear(row);
      return std::nullopt;
    case SessionStatus::Error:
      break;
  }
  return kDropped;
}

LightweightPeer::PushOutcome LightweightPeer::push_session(const LightweightPeer& target,
                                                           std::uint32_t family,
                                                           bool may_replay) {
  // Publishing makes us the origin: we hold the description and code.
  known_[family] = true;
  loaded_[family] = true;
  const std::size_t row = intro_sent_.row(target.index());
  const bool fresh = !intro_sent_.test(row, family);
  std::optional<PushOutcome> outcome = kDropped;  // until a SessionAck says otherwise
  try {
    const Message response = network_.send(
        Message{name_, target.name(), build_session_entry(target.name(), family, fresh)});
    if (const auto* ack = std::get_if<SessionAck>(&response.payload)) {
      outcome = settle(target.name(), row, *ack, family, fresh);
    }
  } catch (const pti::Error&) {
    // Drop, partition, or quota rejection.
  }
  if (!outcome && may_replay) return push_session(target, family, false);
  return outcome.value_or(kDropped);
}

void LightweightPeer::publish_batch_to(const LightweightPeer& target,
                                       const std::vector<std::uint32_t>& families,
                                       std::vector<PushOutcome>& out) {
  out.assign(families.size(), kDropped);
  if (families.empty()) return;
  const std::size_t row = intro_sent_.row(target.index());

  // Plans are built at flush time, exactly like transport::Peer's window:
  // the FIRST entry for a family carries the intro, later entries in the
  // same frame ride the binding the receiver learns while processing it.
  SessionBatch batch;
  batch.entries.reserve(families.size());
  batch_fresh_.assign(families.size(), false);
  for (std::size_t i = 0; i < families.size(); ++i) {
    const std::uint32_t family = families[i];
    known_[family] = true;
    loaded_[family] = true;
    // A frame holds at most session_batch entries, so the scan is short.
    const auto earlier = families.begin() + static_cast<std::ptrdiff_t>(i);
    batch_fresh_[i] = !intro_sent_.test(row, family) &&
                      std::find(families.begin(), earlier, family) == earlier;
    batch.entries.push_back(build_session_entry(target.name(), family, batch_fresh_[i]));
  }

  try {
    const Message response = network_.send(Message{name_, target.name(), std::move(batch)});
    const auto* back = std::get_if<SessionBatchAck>(&response.payload);
    if (back == nullptr || back->entries.size() != families.size()) {
      return;  // in-band fault (ErrorReply) or malformed ack: all dropped
    }
    // Each slot settles on its own ack: a Reset in slot i replays entry i
    // alone, leaving every other slot's verdict untouched.
    for (std::size_t i = 0; i < families.size(); ++i) {
      const auto outcome = settle(target.name(), row, back->entries[i], families[i],
                                  batch_fresh_[i]);
      out[i] = outcome ? *outcome : push_session(target, families[i], false);
    }
  } catch (const pti::Error&) {
    // The whole frame dropped: every entry is a drop.
  }
}

LightweightPeer::PushOutcome LightweightPeer::publish_to(const LightweightPeer& target,
                                                         std::uint32_t family) {
  if (use_sessions_) return push_session(target, family, true);
  ObjectPush push;
  push.envelope = universe_.envelope_bytes(family);
  if (mode_ == transport::ProtocolMode::Eager) {
    push.eager_descriptions_xml.push_back(universe_.description_xml(family));
    push.eager_assembly_names.push_back(universe_.assembly_name(family));
    push.eager_assembly_bytes = universe_.assembly_code_size(family);
  }
  // Publishing makes us the origin: we hold the description and code.
  known_[family] = true;
  loaded_[family] = true;
  try {
    const Message response = network_.send(Message{name_, target.name(), std::move(push)});
    if (const auto* ack = std::get_if<PushAck>(&response.payload)) {
      return outcome_of(universe_, ack->delivered, ack->detail);
    }
    return kDropped;  // in-band fault (ErrorReply)
  } catch (const pti::Error&) {
    return kDropped;  // drop, partition, or quota rejection
  }
}

// --- receiver: one decision core ---------------------------------------------

Message LightweightPeer::handle(const Message& request) {
  const std::string& sender = request.sender;
  try {
    if (const auto* push = std::get_if<ObjectPush>(&request.payload)) {
      return Message{name_, sender, handle_push(sender, *push)};
    }
    if (const auto* push = std::get_if<SessionPush>(&request.payload)) {
      SessionAck ack = answer_session_push(sender, *push);
      // Kind 9 answers a failure as ErrorReply, like every other kind.
      if (ack.status == SessionStatus::Error) {
        return Message{name_, sender, ErrorReply{std::move(ack.detail)}};
      }
      return Message{name_, sender, std::move(ack)};
    }
    if (const auto* batch = std::get_if<SessionBatch>(&request.payload)) {
      // Strict order, one answer per slot: the ack stream a batch produces
      // is exactly the concatenation of the per-push acks.
      SessionBatchAck back;
      back.entries.reserve(batch->entries.size());
      for (const SessionPush& entry : batch->entries) {
        back.entries.push_back(answer_session_push(sender, entry));
      }
      return Message{name_, sender, std::move(back)};
    }
    if (const auto* info = std::get_if<TypeInfoRequest>(&request.payload)) {
      TypeInfoResponse response;
      for (const std::string& type_name : info->type_names) {
        const std::uint32_t family = universe_.type_by_name(type_name);
        if (family == TypeUniverse::kNoType || !known_[family]) {
          response.unknown.push_back(type_name);
        } else {
          response.descriptions_xml.push_back(universe_.description_xml(family));
        }
      }
      return Message{name_, sender, std::move(response)};
    }
    if (const auto* code = std::get_if<CodeRequest>(&request.payload)) {
      CodeResponse response;
      response.assembly_name = code->assembly_name;
      // Assembly name "u<t>.gen" maps back to its family via the type map.
      const std::string type_name =
          code->assembly_name.size() > 4
              ? code->assembly_name.substr(0, code->assembly_name.size() - 4) + ".Thing"
              : std::string();
      const std::uint32_t family = universe_.type_by_name(type_name);
      if (family != TypeUniverse::kNoType && loaded_[family]) {
        response.found = true;
        response.code_bytes = universe_.assembly_code_size(family);
      }
      return Message{name_, sender, std::move(response)};
    }
    return Message{name_, sender,
                   ErrorReply{"lightweight peer '" + name_ + "' cannot handle " +
                              request.kind_name()}};
  } catch (const pti::Error& e) {
    // A cold push's nested fetch hit a drop or partition mid-handler:
    // surface it as the in-band fault the publisher counts as a drop.
    return Message{name_, sender, ErrorReply{e.what()}};
  }
}

PushAck LightweightPeer::handle_push(const std::string& sender, const ObjectPush& push) {
  const std::uint32_t family = universe_.type_of_envelope(push.envelope);
  if (family == TypeUniverse::kNoType) return PushAck{false, "unknown envelope"};

  // Eager extras land first, exactly as in Peer::handle_object_push.
  if (!push.eager_descriptions_xml.empty()) known_[family] = true;
  if (!push.eager_assembly_names.empty()) loaded_[family] = true;

  // Step 2: fetch the description when the type is unknown.
  if (!known_[family]) {
    ++counters_.typeinfo_requests;
    const Message response = network_.send(
        Message{name_, sender, TypeInfoRequest{{universe_.publisher_type_name(family)}}});
    const auto* info = std::get_if<TypeInfoResponse>(&response.payload);
    if (info == nullptr || info->descriptions_xml.empty()) {
      return PushAck{false, "sender cannot describe"};
    }
    known_[family] = true;
  }
  return decide(sender, family);
}

SessionAck LightweightPeer::answer_session_push(const std::string& sender,
                                                const SessionPush& push) {
  try {
    // The session token is the sender's index + 1: one row per sender.
    const std::size_t wire_known = session_known_.row(push.token);
    // Descriptions that actually crossed the wire in this push get their
    // hashes advertised back, so ANY sender can skip those bytes next time.
    std::vector<std::uint64_t> advertised;
    for (const SessionIntro& intro : push.intros) {
      const std::uint32_t f = universe_.type_by_name(intro.type_name);
      if (f != TypeUniverse::kNoType && intro.wire_id == f + 1) {
        session_known_.set(wire_known, f);
        known_[f] = true;
        if (!intro.description_xml.empty()) {
          advertised.push_back(universe_.description_hash(f));
        }
      }
    }
    // Eager prepay: the intro's assembly arrived with the push.
    for (const std::string& assembly_name : push.intro_assembly_names) {
      for (const SessionIntro& intro : push.intros) {
        if (intro.assembly_name != assembly_name) continue;
        const std::uint32_t f = universe_.type_by_name(intro.type_name);
        if (f != TypeUniverse::kNoType) loaded_[f] = true;
      }
    }

    if (push.wire_types.empty()) {
      return SessionAck{SessionStatus::Ok, false, "no object types", std::move(advertised)};
    }
    const std::uint32_t wire = push.wire_types.front();
    if (wire == 0 || wire > universe_.type_count() ||
        !session_known_.test(wire_known, wire - 1)) {
      // A Reset ack carries the full known-description set: the sender's
      // replay can skip every description this receiver already holds.
      advertised.clear();
      for (std::uint32_t f = 0; f < universe_.type_count(); ++f) {
        if (known_[f]) advertised.push_back(universe_.description_hash(f));
      }
      return SessionAck{SessionStatus::Reset, false, "session state lost",
                        std::move(advertised)};
    }
    PushAck ack = decide(sender, wire - 1);
    return SessionAck{SessionStatus::Ok, ack.delivered, std::move(ack.detail),
                      std::move(advertised)};
  } catch (const pti::Error& e) {
    return SessionAck{SessionStatus::Error, false, e.what(), {}};
  }
}

PushAck LightweightPeer::decide(const std::string& sender, std::uint32_t family) {
  // Step 3: first conformant interest in declaration order, through the
  // SAME shared index engine Peer uses; the verdict itself is the
  // checker-built matrix.
  const auto match = hub_.interests().match_first(sub_, [&](util::InternedName id) {
    const std::uint32_t interest = universe_.interest_of_id(id);
    return interest != TypeUniverse::kNoType && universe_.conforms(family, interest);
  });
  // The optimistic pay-off: rejection without any code download.
  if (!match) return PushAck{false, "no interest conforms"};

  // Steps 4+5: download the code once per family.
  if (!loaded_[family]) {
    ++counters_.code_requests;
    const Message response =
        network_.send(Message{name_, sender, CodeRequest{universe_.assembly_name(family)}});
    const auto* code = std::get_if<CodeResponse>(&response.payload);
    if (code == nullptr || !code->found) return PushAck{false, "code unavailable"};
    counters_.code_bytes_fetched += code->code_bytes;
    loaded_[family] = true;
  }
  return PushAck{true, universe_.interest_type_name(universe_.interest_of_id(*match))};
}

}  // namespace pti::sim
