#include "transport/peer.hpp"

#include <algorithm>
#include <utility>

#include "conform/baselines.hpp"
#include "serial/typedesc_xml.hpp"
#include "serial/xml_object_serializer.hpp"
#include "transport/peer_quota.hpp"
#include "transport/transport_error.hpp"
#include "util/hash.hpp"
#include "util/string_util.hpp"

namespace pti::transport {

using conform::CheckResult;
using reflect::DynObject;
using reflect::TypeDescription;
using serial::Envelope;
using serial::TypeInfoEntry;

namespace {

/// Parses "net://host/assembly" download paths; returns the host, or empty
/// when the path has another shape.
[[nodiscard]] std::string_view download_host(std::string_view path) noexcept {
  constexpr std::string_view kScheme = "net://";
  if (!util::starts_with(path, kScheme)) return {};
  path.remove_prefix(kScheme.size());
  const std::size_t slash = path.find('/');
  return slash == std::string_view::npos ? path : path.substr(0, slash);
}

/// ErrorReply classification prefix for quota rejections. Peer-level
/// errors travel in-band as addressed ErrorReply messages; this prefix is
/// what lets the requesting side rethrow the typed ResourceExhaustedError
/// instead of a generic ProtocolError — the in-band mirror of the socket
/// transport's "resource|" fault-frame prefix.
constexpr std::string_view kResourceReplyPrefix = "resource-exhausted: ";

/// Cap on hashes a Reset ack advertises: bounds the ack's wire size while
/// still covering every description universe the tests and benches build.
/// A description beyond the cap is simply re-shipped — a byte cost, never
/// a correctness issue.
constexpr std::size_t kMaxAdvertisedHashes = 256;

/// The in-band text of a handler failure: a quota refusal carries
/// kResourceReplyPrefix, so the sender rethrows it typed.
[[nodiscard]] std::string failure_text(const Error& e) {
  if (dynamic_cast<const pti::ResourceExhaustedError*>(&e) != nullptr) {
    return std::string(kResourceReplyPrefix) + e.what();
  }
  return e.what();
}

/// A description's XML with its provenance blanked: the CONTENT an intro
/// carries and hashes. Provenance (assembly name, download path) rides in
/// the intro's own fields and differs per hosting peer, which would make
/// the same type hash apart per sender.
[[nodiscard]] std::string content_xml(const TypeDescription& d) {
  TypeDescription content = d;
  content.set_assembly_name("");
  content.set_download_path("");
  return serial::type_description_to_string(content);
}

/// Fails an async push's future, unless it has already settled.
void fail_slot(std::promise<PushAck>& promise, const std::exception_ptr& error) {
  try {
    promise.set_exception(error);
  } catch (const std::future_error&) {
    // Settled (or replayed) before the failure: keep its outcome.
  }
}

/// The one reading of a push reply, as slot `slot` of a push of `slots`
/// entries: a SessionBatchAck holds a slot per entry, a SessionAck or
/// PushAck is the single slot, and an ErrorReply fails every slot with its
/// text.
[[nodiscard]] SessionAck reply_slot(Message& response, std::size_t slot, std::size_t slots) {
  if (auto* acks = std::get_if<SessionBatchAck>(&response.payload)) {
    if (acks->entries.size() != slots) {
      throw ProtocolError("batch ack carries " + std::to_string(acks->entries.size()) +
                          " verdicts for " + std::to_string(slots) + " entries");
    }
    return std::move(acks->entries[slot]);
  }
  if (auto* ack = std::get_if<SessionAck>(&response.payload); ack != nullptr && slots == 1) {
    return std::move(*ack);
  }
  if (auto* ack = std::get_if<PushAck>(&response.payload); ack != nullptr && slots == 1) {
    return SessionAck{SessionStatus::Ok, ack->delivered, std::move(ack->detail), {}};
  }
  if (const auto* err = std::get_if<ErrorReply>(&response.payload)) {
    return SessionAck{SessionStatus::Error, false, err->message, {}};
  }
  throw ProtocolError("unexpected response to a push: " + std::string(response.kind_name()));
}

}  // namespace

Peer::Peer(std::string name, Transport& network, std::shared_ptr<AssemblyHub> hub,
           PeerConfig config)
    : name_(std::move(name)),
      network_(network),
      hub_(std::move(hub)),
      config_(std::move(config)),
      checker_(domain_.registry(), config_.conformance, &cache_),
      proxies_(domain_, checker_),
      sessions_(config_.session) {
  if (!hub_) throw TransportError("peer '" + name_ + "' needs an assembly hub");
  sub_ = hub_->interests().add_subscriber();
  serializers_ = serial::SerializerRegistry::with_defaults();
  // The XML serializer honours field visibility when it can see the
  // descriptions (XmlSerializer semantics).
  serializers_.add(std::make_shared<serial::XmlObjectSerializer>(&domain_.registry()));
  if (!serializers_.has(config_.payload_encoding)) {
    throw TransportError("unknown payload encoding '" + config_.payload_encoding + "'");
  }
  network_.attach(name_, [this](const Message& m) { return handle(m); });
}

Peer::~Peer() {
  // Drain the batching windows first: queued pushes hold promises whose
  // futures callers may still be waiting on, and their sends must enter
  // the outbound tracker before wait_idle below.
  flush_session_batches();
  // A concurrent transport's detach blocks until in-flight executions of
  // this peer's handler finish; then wait for our own outbound async-send
  // completions (their callbacks capture `this`). Only after both
  // quiescence points is member destruction safe — and only then may the
  // subscriber slot be returned to the shared index (no handler can be
  // mid-match on it anymore).
  network_.detach(name_);
  outbound_.wait_idle();
  if (sub_ != kNoSubscriber) hub_->interests().remove_subscriber(sub_);
}

std::vector<const TypeDescription*> Peer::host_assembly(
    std::shared_ptr<const reflect::Assembly> assembly) {
  if (!assembly) throw TransportError("cannot host a null assembly");
  const std::string path = "net://" + name_ + "/" + assembly->name();
  hub_->publish(assembly);
  return domain_.load_assembly(std::move(assembly), path);
}

util::InternedName Peer::add_interest(std::string_view type_name) {
  const TypeDescription* d = domain_.registry().find(type_name);
  if (d == nullptr) {
    throw ProtocolError("interest type '" + std::string(type_name) +
                        "' is not known to peer '" + name_ + "'");
  }
  return add_interest(*d);
}

util::InternedName Peer::add_interest(const TypeDescription& interest) {
  const util::InternedName id = interest.name_id();
  const std::vector<util::InternedName> declared = interest_ids();
  if (std::find(declared.begin(), declared.end(), id) != declared.end()) {
    return id;  // already declared: the cached verdicts stay valid
  }
  hub_->interests().add_interest(sub_, id);
  // A new interest can turn a cached session REJECT into an accept; cached
  // verdicts must be recomputed against the widened interest set.
  sessions_.invalidate_verdicts();
  return id;
}

std::vector<util::InternedName> Peer::interest_ids() const {
  InterestIndex& index = hub_->interests();
  util::EpochManager::Pin pin(index.epochs());
  const auto* ids = index.interests_of(sub_);
  return ids != nullptr ? *ids : std::vector<util::InternedName>{};
}

std::size_t Peer::delivered_count() const {
  std::scoped_lock lock(delivered_mutex_);
  return delivered_.size();
}

std::vector<DeliveredObject> Peer::delivered_snapshot() const {
  std::scoped_lock lock(delivered_mutex_);
  return delivered_;
}

reflect::Value Peer::wire_value(const std::shared_ptr<DynObject>& object) {
  if (!object) throw ProtocolError("cannot send a null object");
  // The wire carries real state, never proxy wrappers.
  return reflect::Value(proxies_.unwrap(object));
}

Peer::SessionObject Peer::build_session_object(const std::shared_ptr<DynObject>& object) {
  const reflect::Value root = wire_value(object);
  serial::ObjectSerializer& serializer = serializers_.get(config_.payload_encoding);
  return SessionObject{serial::collect_type_info(root, &domain_.registry()),
                       std::string(serializer.encoding()), serializer.serialize(root)};
}

std::vector<const TypeDescription*> Peer::collect_closure(std::vector<std::string> roots) {
  std::set<std::string, util::ICaseLess> visited;
  std::vector<const TypeDescription*> closure;
  // LIFO frontier, exactly the historical traversal: the emitted order is
  // part of the wire format (eager description lists and session intro
  // order are pinned by the cross-transport equivalence tests).
  std::vector<std::string>& frontier = roots;
  while (!frontier.empty()) {
    const std::string type_name = std::move(frontier.back());
    frontier.pop_back();
    if (!visited.insert(type_name).second) continue;
    const TypeDescription* d = domain_.registry().find(type_name);
    if (d == nullptr || d->kind() == reflect::TypeKind::Primitive) continue;
    closure.push_back(d);
    d->for_each_reference([&](const std::string& ref) { frontier.push_back(ref); });
  }
  return closure;
}

ObjectPush Peer::build_push(const std::shared_ptr<DynObject>& object) {
  serial::EnvelopeBuilder builder(serializers_.get(config_.payload_encoding),
                                  &domain_.registry());
  const Envelope envelope = builder.build(wire_value(object));

  ObjectPush push;
  push.envelope = envelope.to_bytes();

  if (config_.mode == ProtocolMode::Eager) {
    // Ship the transitive description closure and every implementing
    // assembly up front — the baseline the optimistic protocol beats.
    std::vector<std::string> roots;
    roots.reserve(envelope.types().size());
    for (const auto& t : envelope.types()) roots.push_back(t.type_name);
    std::set<std::string, util::ICaseLess> assemblies;
    for (const TypeDescription* d : collect_closure(std::move(roots))) {
      push.eager_descriptions_xml.push_back(serial::type_description_to_string(*d));
      if (!d->assembly_name().empty()) assemblies.insert(d->assembly_name());
    }
    for (const auto& assembly_name : assemblies) {
      if (const auto assembly = hub_->fetch(assembly_name)) {
        push.eager_assembly_names.push_back(assembly_name);
        push.eager_assembly_bytes += assembly->simulated_code_size();
      }
    }
  }
  return push;
}

SessionPush Peer::build_session_push(const std::string& to, const SessionObject& object,
                                    SessionPlan& out, Carried& carried) {
  out.names.clear();
  out.names.reserve(object.types.size());
  for (const auto& t : object.types) out.names.push_back(t.type_name);
  SessionTable::SendPlan plan = sessions_.plan(to, out.names);
  out.token = plan.token;
  out.fresh = plan.fresh;

  SessionPush push;
  push.token = plan.token;
  push.wire_types = std::move(plan.wire_ids);
  push.encoding = object.encoding;
  push.payload = object.payload;
  if (plan.fresh.empty()) return push;

  // First contact for some envelope types: their description closure
  // rides along inline, so the receiver's conformance check needs no
  // nested TypeInfoRequest exchange.
  std::vector<std::string> roots;
  roots.reserve(plan.fresh.size());
  for (const std::size_t i : plan.fresh) roots.push_back(out.names[i]);
  const std::vector<const TypeDescription*> closure = collect_closure(std::move(roots));

  std::set<std::string, util::ICaseLess> envelope_names(out.names.begin(), out.names.end());
  std::vector<std::string> extra_names;
  std::vector<const TypeDescription*> extras;
  for (const TypeDescription* d : closure) {
    if (envelope_names.insert(d->qualified_name()).second) {
      extra_names.push_back(d->qualified_name());
      extras.push_back(d);
    }
  }
  const SessionTable::SendPlan extra_plan = sessions_.plan(to, extra_names, plan.token);

  // One intro per binding, unless an earlier entry of the frame carries it.
  // Shared-intro elision: when the hub's registry says this receiver
  // already holds the content (it advertised the hash to some sender of
  // this universe), the intro keeps its binding but drops the description
  // bytes — a hot type's description crosses the wire once per receiver,
  // not once per sender/receiver pair.
  const auto introduce = [&](std::uint32_t wire_id, const std::string& type_name,
                             const std::string& assembly_name,
                             const std::string& download_path, const TypeDescription* d) {
    if (!carried.intros.insert(type_name).second) return;
    SessionIntro intro{wire_id, type_name, {}, assembly_name, download_path};
    if (d != nullptr && d->kind() != reflect::TypeKind::Primitive) {
      intro.description_xml = content_xml(*d);
      if (hub_->intro_registry().knows(to, util::fnv1a64(intro.description_xml))) {
        intro.description_xml.clear();
        ++stats_.session_intro_skips;
      }
    }
    push.intros.push_back(std::move(intro));
  };
  for (const std::size_t i : plan.fresh) {
    introduce(push.wire_types[i], out.names[i], object.types[i].assembly_name,
              object.types[i].download_path, domain_.registry().find(out.names[i]));
  }
  for (const std::size_t j : extra_plan.fresh) {
    const TypeDescription* d = extras[j];
    introduce(extra_plan.wire_ids[j], extra_names[j], d->assembly_name(), d->download_path(),
              d);
  }
  for (const std::size_t j : extra_plan.fresh) {
    out.names.push_back(extra_names[j]);
    out.fresh.push_back(out.names.size() - 1);
  }

  if (config_.mode == ProtocolMode::Eager) {
    // Eager + session: prepay the assemblies of everything introduced,
    // mirroring the eager ObjectPush — a warmed eager push ships none,
    // nor does an entry whose assemblies an earlier entry prepaid.
    std::set<std::string, util::ICaseLess> assemblies;
    for (const TypeDescription* d : closure) {
      if (!d->assembly_name().empty()) assemblies.insert(d->assembly_name());
    }
    for (const auto& assembly_name : assemblies) {
      if (!carried.assemblies.insert(assembly_name).second) continue;
      if (const auto assembly = hub_->fetch(assembly_name)) {
        push.intro_assembly_names.push_back(assembly_name);
        push.intro_assembly_bytes += assembly->simulated_code_size();
      }
    }
  }
  return push;
}

// --- sender: one completion path --------------------------------------------
//
// Every push shape ends in the same two steps: reply_slot reads the reply
// (an ErrorReply becomes an Error slot), and settle resolves the slot
// (commit on Ok; on Error throw, typed for quota refusals; one replay on
// Reset). Async pushes leave through the one tracked dispatch; an
// unbatched async session push and every Reset replay are a window of one.

template <class Complete>
void Peer::dispatch(Message request, Complete complete) {
  outbound_.add();
  try {
    network_.send_async(std::move(request),
                        [this, complete = std::move(complete)](
                            Message response, std::exception_ptr error) mutable {
                          // `this` stays valid: ~Peer waits for outbound_ to
                          // drain, and the transport invokes every callback
                          // exactly once (failed/detached sends included).
                          struct Done {
                            OutboundTracker& tracker;
                            ~Done() { tracker.done(); }
                          } done{outbound_};
                          complete(response, error);
                        });
  } catch (...) {
    outbound_.done();
    throw;
  }
}

std::optional<PushAck> Peer::settle(const std::string& to, SessionAck& ack,
                                    const SessionPlan* plan, bool may_replay) {
  hub_->intro_registry().record_all(to, ack.known_desc_hashes);
  switch (ack.status) {
    case SessionStatus::Ok:
      if (plan != nullptr) sessions_.commit_send(to, plan->token, plan->names, plan->fresh);
      return PushAck{ack.delivered, std::move(ack.detail)};
    case SessionStatus::Reset:
      // The receiver lost the session (eviction, restart): start a new
      // token; the caller replays once with every type introduced inline.
      sessions_.reset_peer(to);
      if (!may_replay) throw ProtocolError("session push to '" + to + "' kept resetting");
      ++stats_.session_retries;
      return std::nullopt;
    case SessionStatus::Error:
      break;
  }
  if (util::starts_with(ack.detail, kResourceReplyPrefix)) {
    throw pti::ResourceExhaustedError("push to '" + to + "' rejected: " +
                                      ack.detail.substr(kResourceReplyPrefix.size()));
  }
  throw ProtocolError("push to '" + to + "' failed: " + ack.detail);
}

PushAck Peer::send_object(std::string_view to, const std::shared_ptr<DynObject>& object) {
  const std::string recipient(to);
  if (!config_.use_sessions) {
    Message response = network_.send(Message{name_, recipient, build_push(object)});
    ++stats_.objects_sent;
    SessionAck ack = reply_slot(response, 0, 1);
    return *settle(recipient, ack, nullptr, false);
  }
  const SessionObject session_object = build_session_object(object);
  // Flush-on-sync: a synchronous send must not overtake pushes already
  // queued in this recipient's batching window.
  flush_batch_window(recipient);
  for (bool may_replay = true;; may_replay = false) {
    SessionPlan plan;
    Carried carried;
    Message response = network_.send(Message{
        name_, recipient, build_session_push(recipient, session_object, plan, carried)});
    ++stats_.objects_sent;
    SessionAck ack = reply_slot(response, 0, 1);
    if (auto done = settle(recipient, ack, &plan, may_replay)) return std::move(*done);
  }
}

std::future<PushAck> Peer::send_object_async(std::string_view to,
                                             const std::shared_ptr<DynObject>& object) {
  const std::string recipient(to);
  if (!config_.use_sessions) {
    ObjectPush push = build_push(object);
    auto promise = std::make_shared<std::promise<PushAck>>();
    std::future<PushAck> future = promise->get_future();
    dispatch(Message{name_, recipient, std::move(push)},
             [this, recipient, promise](Message& response, std::exception_ptr error) {
               try {
                 if (error) std::rethrow_exception(error);
                 ++stats_.objects_sent;
                 SessionAck ack = reply_slot(response, 0, 1);
                 promise->set_value(*settle(recipient, ack, nullptr, false));
               } catch (...) {
                 promise->set_exception(std::current_exception());
               }
             });
    return future;
  }
  PendingPush item{build_session_object(object), {}, {}, true};
  std::future<PushAck> future = item.promise.get_future();
  const bool batching = config_.session.max_batch > 1;
  std::vector<PendingPush> ready;
  if (!batching) {
    ready.push_back(std::move(item));  // an unbatched push is a window of one
  } else {
    // Batching window: queue the push; a full window travels as one
    // SessionBatch frame. The send happens outside the lock.
    std::scoped_lock lock(batch_mutex_);
    std::vector<PendingPush>& window = batch_windows_[recipient];
    window.push_back(std::move(item));
    if (window.size() >= config_.session.max_batch) {
      ready = std::move(window);
      batch_windows_.erase(recipient);
    }
  }
  if (!ready.empty()) send_window(recipient, std::move(ready), batching);
  return future;
}

void Peer::send_window(const std::string& recipient, std::vector<PendingPush> items,
                       bool batch) {
  auto window = std::make_shared<std::vector<PendingPush>>(std::move(items));
  try {
    // Plans are made at dispatch time, in queue order: wire ids and the token
    // reflect the session as the receiver will see it, entry by entry. Each
    // intro rides in the first entry that needs it; if that entry fails
    // before the receiver learns it, a later entry meets an unknown wire id,
    // is answered Reset and gets its one replay.
    Message request{name_, recipient, {}};
    Carried carried;
    if (batch) {
      SessionBatch frame;
      frame.entries.reserve(window->size());
      for (PendingPush& item : *window) {
        frame.entries.push_back(
            build_session_push(recipient, item.object, item.plan, carried));
      }
      request.payload = std::move(frame);
    } else {
      PendingPush& item = window->front();
      request.payload = build_session_push(recipient, item.object, item.plan, carried);
    }
    dispatch(std::move(request), [this, recipient, window](Message& response,
                                                          std::exception_ptr error) {
      if (!error) stats_.objects_sent += window->size();
      // Each slot settles on its own ack: a Reset in slot i replays entry i
      // alone; every other slot keeps its verdict and its wire-id commits.
      for (std::size_t i = 0; i < window->size(); ++i) {
        PendingPush& item = (*window)[i];
        try {
          if (error) std::rethrow_exception(error);
          SessionAck ack = reply_slot(response, i, window->size());
          if (auto done = settle(recipient, ack, &item.plan, item.may_replay)) {
            item.promise.set_value(std::move(*done));
            continue;
          }
          // Replay from the transport thread — Resets are rare, and the
          // one replay per push bounds the nested sends.
          item.may_replay = false;
          std::vector<PendingPush> replay;
          replay.push_back(std::move(item));
          send_window(recipient, std::move(replay), false);
        } catch (...) {
          fail_slot(item.promise, std::current_exception());
        }
      }
    });
  } catch (...) {
    for (PendingPush& item : *window) fail_slot(item.promise, std::current_exception());
  }
}

void Peer::flush_batch_window(const std::string& recipient) {
  std::vector<PendingPush> ready;
  {
    std::scoped_lock lock(batch_mutex_);
    const auto it = batch_windows_.find(recipient);
    if (it == batch_windows_.end()) return;
    ready = std::move(it->second);
    batch_windows_.erase(it);
  }
  if (!ready.empty()) send_window(recipient, std::move(ready), true);
}

void Peer::flush_session_batches() {
  std::vector<std::pair<std::string, std::vector<PendingPush>>> ready;
  {
    std::scoped_lock lock(batch_mutex_);
    ready.reserve(batch_windows_.size());
    for (auto& [recipient, window] : batch_windows_) {
      if (!window.empty()) ready.emplace_back(recipient, std::move(window));
    }
    batch_windows_.clear();
  }
  for (auto& [recipient, items] : ready) send_window(recipient, std::move(items), true);
}

// --- receiver: one decision core ---------------------------------------------

Message Peer::handle(const Message& request) {
  if (extra_handler_) {
    if (auto handled = extra_handler_(request)) return std::move(*handled);
  }
  const std::string& sender = request.sender;
  try {
    if (const auto* push = std::get_if<ObjectPush>(&request.payload)) {
      return Message{name_, sender, handle_object_push(sender, *push)};
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
      // One framed exchange, one slot per entry, answered strictly in order
      // through the same per-push answer as kind 9 — batching changes the
      // wire shape, never a decision, an outcome or their order.
      ++stats_.session_batches;
      SessionBatchAck out;
      out.entries.reserve(batch->entries.size());
      for (const SessionPush& entry : batch->entries) {
        out.entries.push_back(answer_session_push(sender, entry));
      }
      return Message{name_, sender, std::move(out)};
    }
    if (const auto* ti = std::get_if<TypeInfoRequest>(&request.payload)) {
      return Message{name_, sender, handle_typeinfo(*ti)};
    }
    if (const auto* code = std::get_if<CodeRequest>(&request.payload)) {
      return Message{name_, sender, handle_code(*code)};
    }
    return Message{name_, sender,
                   ErrorReply{std::string("peer '") + name_ + "' cannot handle " +
                              request.kind_name()}};
  } catch (const Error& e) {
    return Message{name_, sender, ErrorReply{failure_text(e)}};
  }
}

TypeInfoResponse Peer::handle_typeinfo(const TypeInfoRequest& request) {
  TypeInfoResponse response;
  for (const auto& type_name : request.type_names) {
    const TypeDescription* d = domain_.registry().find(type_name);
    if (d == nullptr || d->kind() == reflect::TypeKind::Primitive) {
      response.unknown.push_back(type_name);
    } else {
      response.descriptions_xml.push_back(serial::type_description_to_string(*d));
      ++stats_.typeinfo_served;
    }
  }
  return response;
}

CodeResponse Peer::handle_code(const CodeRequest& request) {
  CodeResponse response;
  response.assembly_name = request.assembly_name;
  if (domain_.has_assembly(request.assembly_name) && hub_->has(request.assembly_name)) {
    response.found = true;
    response.code_bytes = hub_->fetch(request.assembly_name)->simulated_code_size();
    ++stats_.code_served;
  }
  return response;
}

PushAck Peer::handle_object_push(const std::string& sender, const ObjectPush& push) {
  ++stats_.objects_received;
  const Envelope envelope = Envelope::from_bytes(push.envelope);
  // Eager extras land before the decision: descriptions through the
  // registry boundary, then the prepaid assemblies.
  register_descriptions(sender, push.eager_descriptions_xml);
  load_prepaid_assemblies(push.eager_assembly_names);
  if (envelope.types().empty()) {
    ++stats_.objects_rejected;
    return PushAck{false, "envelope carries no object types"};
  }
  Verdict verdict = decide(sender, envelope.types(), nullptr);
  if (!verdict.conformant) return PushAck{false, std::move(verdict.detail)};
  return deliver(sender, envelope.read_payload(serializers_), std::move(verdict));
}

SessionAck Peer::answer_session_push(const std::string& sender, const SessionPush& push) {
  try {
    std::vector<std::uint64_t> held;
    SessionAck ack = process_session_push(sender, push, held);
    advertise_known_descriptions(std::move(held), ack);
    return ack;
  } catch (const Error& e) {
    return SessionAck{SessionStatus::Error, false, failure_text(e), {}};
  }
}

SessionAck Peer::process_session_push(const std::string& sender, const SessionPush& push,
                                      std::vector<std::uint64_t>& held) {
  ++stats_.objects_received;
  ++stats_.session_pushes;

  // Session bookkeeping first: adopt/refresh the inbound session, learn
  // the inline intros (idempotent), register their descriptions. The
  // distinct-name budget for intro names was already charged at the
  // transport seam (count_new_names), before this handler ran. The ack
  // attests only content this receiver holds: a description this push
  // registered, or one it held already whose content XML hashes the same
  // (hashed once per description, not once per intro).
  sessions_.open_inbound(sender, push.token);
  std::unordered_map<const TypeDescription*, std::uint64_t> held_content;
  for (const SessionIntro& intro : push.intros) {
    if (sessions_.learn(sender, push.token, intro)) ++stats_.session_intros;
    if (intro.description_xml.empty()) continue;
    const std::uint64_t hash = util::fnv1a64(intro.description_xml);
    if (const TypeDescription* known = domain_.registry().find(intro.type_name)) {
      const auto [it, fresh] = held_content.try_emplace(known);
      if (fresh) it->second = util::fnv1a64(content_xml(*known));
      if (it->second == hash) held.push_back(hash);
      continue;
    }
    // The XML is content-only; provenance comes from the intro fields.
    TypeDescription d = serial::type_description_from_string(intro.description_xml);
    d.set_assembly_name(intro.assembly_name);
    d.set_download_path(intro.download_path);
    domain_.registry().add(std::move(d));
    held.push_back(hash);
  }
  load_prepaid_assemblies(push.intro_assembly_names);

  std::vector<TypeInfoEntry> entries;
  if (!sessions_.resolve(sender, push.token, push.wire_types, entries)) {
    // Unknown wire ids: the session that established them is gone (evicted,
    // replaced, or dropped at its binding cap). Tell the sender to replay
    // with intros.
    ++stats_.session_resets;
    return SessionAck{SessionStatus::Reset, false, "session state lost", {}};
  }
  if (push.wire_types.empty()) {
    ++stats_.objects_rejected;
    return SessionAck{SessionStatus::Ok, false, "envelope carries no object types", {}};
  }
  Verdict verdict = decide(sender, entries, &push);
  if (!verdict.conformant) {
    return SessionAck{SessionStatus::Ok, false, std::move(verdict.detail), {}};
  }
  PushAck ack = deliver(
      sender, serializers_.get(push.encoding).deserialize(push.payload), std::move(verdict));
  return SessionAck{SessionStatus::Ok, ack.delivered, std::move(ack.detail), {}};
}

void Peer::advertise_known_descriptions(std::vector<std::uint64_t> held, SessionAck& ack) {
  // The ack attests `held`, the intro content this push left the receiver
  // holding. A Reset ack instead carries the receiver's whole known set
  // (capped) so the replay — and, through the hub registry, every other
  // sender — skips those bytes.
  if (held.empty() && ack.status != SessionStatus::Reset) return;
  std::scoped_lock lock(desc_hashes_mutex_);
  for (const std::uint64_t hash : held) {
    if (known_desc_hashes_.size() >= IntroRegistry::kMaxHashesPerReceiver) break;
    known_desc_hashes_.insert(hash);
  }
  if (ack.status == SessionStatus::Reset) {
    for (const std::uint64_t hash : known_desc_hashes_) {
      if (ack.known_desc_hashes.size() >= kMaxAdvertisedHashes) break;
      ack.known_desc_hashes.push_back(hash);
    }
  } else {
    ack.known_desc_hashes = std::move(held);
  }
}

Peer::Verdict Peer::decide(const std::string& sender, const std::vector<TypeInfoEntry>& types,
                           const SessionPush* session) {
  // Read before any conformance work, so a concurrent invalidation discards
  // (rather than corrupts) the verdict this push caches.
  const std::uint64_t gen = sessions_.generation();
  const auto cache = [&](const Verdict& verdict) {
    if (session != nullptr) {
      sessions_.store_verdict(sender, session->token, session->wire_types.front(), verdict,
                              gen);
    }
  };
  std::optional<Verdict> cached;
  if (session != nullptr) {
    cached = sessions_.find_verdict(sender, session->token, session->wire_types.front(),
                                    session->wire_types);
  }
  Verdict verdict;
  if (cached) {
    // The warmed path: a decisive verdict for this exact type set under the
    // current generation. No registry walk, no conformance check, no
    // nested exchange.
    ++stats_.session_verdict_hits;
    verdict = std::move(*cached);
  } else {
    // Protocol step 2: descriptions for the graph's unknown types.
    if (!describe_types(types, sender, config_.mode == ProtocolMode::Optimistic)) {
      ++stats_.typeinfo_cache_hits;
    }

    // Protocol step 3: conformance against the interest set, gated by the
    // configured matcher (the paper's rule by default, a Section 2
    // baseline otherwise). The declaration-ordered scan lives in the hub's
    // shared InterestIndex (match_first pins its snapshot for the
    // duration); the accept predicate is the full checker — potentially
    // fetching, hence slow — and the first match wins.
    const TypeDescription* pushed = domain_.registry().find(types.front().type_name);
    bool undecided = false;
    const auto accept = [&](util::InternedName interest_id) {
      const TypeDescription* interest = domain_.registry().find_by_id(interest_id);
      if (interest == nullptr) return false;
      const CheckResult result = check_with_fetch(*pushed, *interest, sender);
      if (result.needs_more_types()) undecided = true;
      if (!result.conformant) return false;
      switch (config_.matcher) {
        case MatcherKind::ImplicitStructural:
          return true;
        case MatcherKind::Exact:
          return result.plan.kind() == conform::ConformanceKind::Identity;
        case MatcherKind::Nominal:
          return result.plan.kind() == conform::ConformanceKind::Identity ||
                 result.plan.kind() == conform::ConformanceKind::Explicit;
        case MatcherKind::TaggedStructural: {
          conform::TaggedStructuralMatcher tagged(domain_.registry());
          return tagged.matches(*pushed, *interest);
        }
      }
      return false;
    };
    if (session != nullptr) verdict.wire_types = session->wire_types;
    if (const auto match = hub_->interests().match_first(sub_, accept)) {
      verdict.conformant = true;
      verdict.matched_interest = domain_.registry().find_by_id(*match)->qualified_name();
      verdict.matched_id = *match;
    } else {
      verdict.detail = "no interest conforms to '" + types.front().type_name + "'";
      // An undecided rejection (the sender could not supply every
      // referenced description) stays uncached: a later push may resolve
      // differently.
      if (!undecided) cache(verdict);
    }
  }
  if (!verdict.conformant) {
    // The optimistic pay-off: no conformant interest, no code download.
    ++stats_.objects_rejected;
    return verdict;
  }

  // Protocol steps 4+5: code for every type in the object graph.
  if (verdict.code_ready) {
    ++stats_.code_cache_hits;
    return verdict;
  }
  if (!ensure_code(types, sender)) ++stats_.code_cache_hits;
  verdict.code_ready = true;
  cache(verdict);
  return verdict;
}

PushAck Peer::deliver(const std::string& sender, const reflect::Value& root, Verdict verdict) {
  if (root.kind() != reflect::ValueKind::Object || !root.as_object()) {
    ++stats_.objects_rejected;
    return PushAck{false, "payload root is not an object"};
  }
  DeliveredObject delivered;
  delivered.object = root.as_object();
  // Lossy payload encodings (public-only XML) may have dropped private
  // fields; restore the declared shape now that the code is loaded.
  domain_.fill_missing_fields(*delivered.object);
  delivered.adapted = proxies_.wrap(delivered.object, verdict.matched_interest);
  delivered.interest_type = verdict.matched_interest;
  delivered.interest_id = verdict.matched_id;
  delivered.sender = sender;
  if (config_.retain_delivered) {
    std::scoped_lock lock(delivered_mutex_);
    delivered_.push_back(delivered);
  }
  ++stats_.objects_delivered;
  if (on_delivery_) on_delivery_(delivered);
  return PushAck{true, std::move(verdict.matched_interest)};
}

bool Peer::describe_types(const std::vector<TypeInfoEntry>& types, std::string_view from,
                          bool may_fetch) {
  std::vector<std::string> unknown;
  for (const auto& t : types) {
    if (domain_.registry().find(t.type_name) == nullptr) unknown.push_back(t.type_name);
  }
  if (unknown.empty()) return false;
  if (!may_fetch) {
    throw ProtocolError("eager push from '" + std::string(from) + "' missing descriptions");
  }
  fetch_descriptions(from, std::move(unknown));
  for (const auto& t : types) {
    if (domain_.registry().find(t.type_name) == nullptr) {
      throw ProtocolError("sender '" + std::string(from) + "' could not describe type '" +
                          t.type_name + "'");
    }
  }
  return true;
}

CheckResult Peer::check_with_fetch(const TypeDescription& source,
                                   const TypeDescription& target,
                                   std::string_view sender) {
  CheckResult result = checker_.check(source, target);
  // A concurrent push may register a missing type between the check and
  // the fetch, which then has nothing left to ask for: that is progress too.
  const auto any_known = [&](const std::vector<std::string>& names) {
    return std::any_of(names.begin(), names.end(), [&](const std::string& name) {
      return domain_.registry().find(name) != nullptr;
    });
  };
  std::size_t rounds = 0;
  while (result.needs_more_types() && config_.mode == ProtocolMode::Optimistic &&
         rounds < kMaxFetchRounds) {
    ++rounds;
    if (fetch_descriptions(sender, result.missing_types) == 0 &&
        !any_known(result.missing_types)) {
      break;  // the sender cannot help further
    }
    result = checker_.check(source, target);
  }
  return result;
}

bool Peer::ensure_code(const std::vector<TypeInfoEntry>& types, std::string_view sender) {
  bool downloaded = false;
  for (const TypeInfoEntry& entry : types) {
    if (domain_.is_loaded(entry.type_name)) continue;

    // Resolve which assembly implements the type: the envelope carries it;
    // the registered description is the fallback.
    std::string assembly_name = entry.assembly_name;
    std::string path = entry.download_path;
    if (assembly_name.empty()) {
      if (const TypeDescription* d = domain_.registry().find(entry.type_name)) {
        assembly_name = d->assembly_name();
        path = d->download_path();
      }
    }
    if (assembly_name.empty()) {
      throw ProtocolError("no assembly known for type '" + entry.type_name + "'");
    }
    if (domain_.has_assembly(assembly_name)) continue;  // another type loaded it

    std::string host{download_host(path)};
    if (host.empty()) host = std::string(sender);

    ++stats_.code_requests;
    downloaded = true;
    const Message response =
        network_.send(Message{name_, host, CodeRequest{assembly_name}});
    const auto* code = std::get_if<CodeResponse>(&response.payload);
    if (code == nullptr || !code->found) {
      throw ProtocolError("assembly '" + assembly_name + "' is not available from '" +
                          host + "'");
    }
    const auto assembly = hub_->fetch(assembly_name);
    if (!assembly) {
      throw ProtocolError("assembly '" + assembly_name +
                          "' acknowledged but missing from the hub");
    }
    domain_.load_assembly(assembly, path);
  }
  return downloaded;
}

void Peer::ensure_types_usable(const std::vector<TypeInfoEntry>& types,
                               std::string_view counterpart) {
  describe_types(types, counterpart, true);
  ensure_code(types, counterpart);
}

std::size_t Peer::fetch_descriptions(std::string_view from, std::vector<std::string> names) {
  // Deduplicate and drop what we already know.
  std::set<std::string, util::ICaseLess> unique;
  std::vector<std::string> wanted;
  for (auto& n : names) {
    if (domain_.registry().find(n) != nullptr) continue;
    if (unique.insert(n).second) wanted.push_back(std::move(n));
  }
  if (wanted.empty()) return 0;

  ++stats_.typeinfo_requests;
  const Message response =
      network_.send(Message{name_, std::string(from), TypeInfoRequest{std::move(wanted)}});
  const auto* info = std::get_if<TypeInfoResponse>(&response.payload);
  if (info == nullptr) {
    throw ProtocolError("unexpected response to TypeInfoRequest: " +
                        std::string(response.kind_name()));
  }
  return register_descriptions(from, info->descriptions_xml);
}

std::size_t Peer::register_descriptions(std::string_view from,
                                        const std::vector<std::string>& descriptions_xml) {
  if (descriptions_xml.empty()) return 0;
  std::vector<TypeDescription> parsed;
  parsed.reserve(descriptions_xml.size());
  for (const auto& xml_text : descriptions_xml) {
    parsed.push_back(serial::type_description_from_string(xml_text));
  }
  // Registry-boundary name governance: registering a description makes its
  // name permanent (TypeRegistry is append-only), so before anything is
  // added the supplying peer's distinct-name budget is charged for every
  // description we do not already hold. Over budget, the whole batch is
  // refused (ResourceExhaustedError) and nothing sticks — the transient
  // interns the parse created stay cold and reclaimable by eviction.
  if (PeerQuotaTable* quotas = network_.peer_quotas();
      quotas != nullptr && quotas->enabled()) {
    std::size_t fresh = 0;
    for (const auto& d : parsed) {
      if (domain_.registry().find_by_id(d.name_id()) == nullptr) ++fresh;
    }
    quotas->charge_new_names(from, fresh);
  }
  for (auto& d : parsed) domain_.registry().add(std::move(d));
  return parsed.size();
}

void Peer::load_prepaid_assemblies(const std::vector<std::string>& assembly_names) {
  for (const auto& assembly_name : assembly_names) {
    if (!domain_.has_assembly(assembly_name)) {
      if (const auto assembly = hub_->fetch(assembly_name)) {
        domain_.load_assembly(assembly, "");
      }
    }
  }
}

}  // namespace pti::transport
