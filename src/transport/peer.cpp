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

}  // namespace

Peer::Peer(std::string name, Transport& network, std::shared_ptr<AssemblyHub> hub,
           PeerConfig config)
    : name_(std::move(name)),
      network_(network),
      hub_(std::move(hub)),
      config_(std::move(config)),
      checker_(domain_.registry(), config_.conformance,
               config_.use_conformance_cache ? &cache_ : nullptr),
      proxies_(domain_, checker_),
      sessions_(config_.session) {
  if (!hub_) throw TransportError("peer '" + name_ + "' needs an assembly hub");
  sub_ = hub_->interests().add_subscriber();
  interest_names_ = std::make_shared<const std::vector<std::string>>();
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
  InterestIndex& index = hub_->interests();
  std::scoped_lock lock(interest_names_mutex_);
  {
    util::EpochManager::Pin pin(index.epochs());
    if (const auto* entries = index.interests_of(sub_)) {
      for (const auto& entry : *entries) {
        if (entry.interest == id) return id;  // already declared
      }
    }
  }
  index.add_interest(sub_, id, interest.fingerprint());
  // Publish a fresh immutable name snapshot; readers holding the old one
  // keep a valid (if stale) view.
  auto names = std::make_shared<std::vector<std::string>>(*interest_names_);
  names->push_back(interest.qualified_name());
  interest_names_ = std::move(names);
  // A new interest can turn a cached session REJECT into an accept; cached
  // verdicts must be recomputed against the widened interest set.
  sessions_.invalidate_verdicts();
  return id;
}

std::shared_ptr<const std::vector<std::string>> Peer::interests() const {
  std::scoped_lock lock(interest_names_mutex_);
  return interest_names_;
}

std::vector<util::InternedName> Peer::interest_ids() const {
  InterestIndex& index = hub_->interests();
  std::vector<util::InternedName> out;
  util::EpochManager::Pin pin(index.epochs());
  if (const auto* entries = index.interests_of(sub_)) {
    out.reserve(entries->size());
    for (const auto& entry : *entries) out.push_back(entry.interest);
  }
  return out;
}

std::size_t Peer::delivered_count() const {
  std::scoped_lock lock(delivered_mutex_);
  return delivered_.size();
}

std::vector<DeliveredObject> Peer::delivered_snapshot() const {
  std::scoped_lock lock(delivered_mutex_);
  return delivered_;
}

std::string Peer::describe_type_xml(std::string_view type_name) const {
  const TypeDescription* d =
      const_cast<reflect::TypeRegistry&>(domain_.registry()).find(type_name);
  if (d == nullptr) {
    throw ProtocolError("peer '" + name_ + "' does not know type '" +
                        std::string(type_name) + "'");
  }
  return serial::type_description_to_string(*d);
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
    if (!d->superclass().empty()) frontier.push_back(d->superclass());
    for (const auto& itf : d->interfaces()) frontier.push_back(itf);
    for (const auto& f : d->fields()) frontier.push_back(f.type_name);
    for (const auto& m : d->methods()) {
      frontier.push_back(m.return_type);
      for (const auto& p : m.params) frontier.push_back(p.type_name);
    }
    for (const auto& c : d->constructors()) {
      for (const auto& p : c.params) frontier.push_back(p.type_name);
    }
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

PushAck Peer::ack_from_response(const Message& response, std::string_view to) {
  if (const auto* ack = std::get_if<PushAck>(&response.payload)) return *ack;
  if (const auto* err = std::get_if<ErrorReply>(&response.payload)) {
    if (util::starts_with(err->message, kResourceReplyPrefix)) {
      throw pti::ResourceExhaustedError(
          "push to '" + std::string(to) + "' rejected: " +
          err->message.substr(kResourceReplyPrefix.size()));
    }
    throw ProtocolError("push to '" + std::string(to) + "' failed: " + err->message);
  }
  throw ProtocolError("unexpected response to ObjectPush: " +
                      std::string(response.kind_name()));
}

SessionAck Peer::session_ack_from_response(const Message& response, std::string_view to) {
  if (const auto* ack = std::get_if<SessionAck>(&response.payload)) return *ack;
  if (const auto* err = std::get_if<ErrorReply>(&response.payload)) {
    if (util::starts_with(err->message, kResourceReplyPrefix)) {
      throw pti::ResourceExhaustedError(
          "push to '" + std::string(to) + "' rejected: " +
          err->message.substr(kResourceReplyPrefix.size()));
    }
    throw ProtocolError("push to '" + std::string(to) + "' failed: " + err->message);
  }
  throw ProtocolError("unexpected response to SessionPush: " +
                      std::string(response.kind_name()));
}

Peer::SessionSend Peer::build_session_push(const std::string& to,
                                           const SessionObject& object) {
  SessionSend out;
  out.names.reserve(object.types.size());
  for (const auto& t : object.types) out.names.push_back(t.type_name);
  SessionTable::SendPlan plan = sessions_.plan_send(to, out.names);
  out.token = plan.token;
  out.fresh = plan.fresh;

  out.push.token = plan.token;
  out.push.wire_types = std::move(plan.wire_ids);
  out.push.encoding = object.encoding;
  out.push.payload = object.payload;

  if (!plan.fresh.empty()) {
    // First contact for some envelope types: their description closure
    // rides along inline, so the receiver's conformance check needs no
    // nested TypeInfoRequest exchange.
    std::vector<std::string> roots;
    roots.reserve(plan.fresh.size());
    for (const std::size_t i : plan.fresh) roots.push_back(out.names[i]);
    const std::vector<const TypeDescription*> closure = collect_closure(std::move(roots));

    std::set<std::string, util::ICaseLess> envelope_names(out.names.begin(),
                                                          out.names.end());
    std::vector<std::string> extra_names;
    std::vector<const TypeDescription*> extras;
    for (const TypeDescription* d : closure) {
      if (envelope_names.insert(d->qualified_name()).second) {
        extra_names.push_back(d->qualified_name());
        extras.push_back(d);
      }
    }
    const SessionTable::SendPlan extra_plan =
        sessions_.plan_extras(to, plan.token, extra_names);

    // Shared-intro elision: when the hub's registry says this receiver
    // already holds a description (it advertised the content hash to some
    // sender of this universe), the intro keeps its wire-id/name binding
    // but drops the description bytes — a hot type's description crosses
    // the wire once per receiver, not once per sender/receiver pair.
    const auto elide_known = [&](SessionIntro& intro) {
      if (intro.description_xml.empty()) return;
      const std::uint64_t hash = util::fnv1a64(intro.description_xml);
      if (hub_->intro_registry().knows(to, hash)) {
        intro.description_xml.clear();
        ++stats_.session_intro_skips;
      }
    };
    // Intro XML carries type CONTENT only: provenance (assembly name,
    // download path) already rides in the intro's own fields and differs
    // per hosting peer, which would make the same type hash apart per
    // sender and defeat cross-sender elision.
    const auto content_xml = [](const TypeDescription& d) {
      TypeDescription content = d;
      content.set_assembly_name("");
      content.set_download_path("");
      return serial::type_description_to_string(content);
    };

    for (const std::size_t i : plan.fresh) {
      SessionIntro intro;
      intro.wire_id = out.push.wire_types[i];
      intro.type_name = out.names[i];
      intro.assembly_name = object.types[i].assembly_name;
      intro.download_path = object.types[i].download_path;
      if (const TypeDescription* d = domain_.registry().find(out.names[i])) {
        if (d->kind() != reflect::TypeKind::Primitive) {
          intro.description_xml = content_xml(*d);
        }
      }
      elide_known(intro);
      out.push.intros.push_back(std::move(intro));
    }
    for (const std::size_t j : extra_plan.fresh) {
      const TypeDescription* d = extras[j];
      SessionIntro intro;
      intro.wire_id = extra_plan.wire_ids[j];
      intro.type_name = extra_names[j];
      intro.assembly_name = d->assembly_name();
      intro.download_path = d->download_path();
      intro.description_xml = content_xml(*d);
      elide_known(intro);
      out.push.intros.push_back(std::move(intro));
    }
    for (const std::size_t j : extra_plan.fresh) {
      out.names.push_back(extra_names[j]);
      out.fresh.push_back(out.names.size() - 1);
    }

    if (config_.mode == ProtocolMode::Eager) {
      // Eager + session: prepay the assemblies of everything introduced,
      // mirroring the eager ObjectPush — a warmed eager push ships none.
      std::set<std::string, util::ICaseLess> assemblies;
      for (const TypeDescription* d : closure) {
        if (!d->assembly_name().empty()) assemblies.insert(d->assembly_name());
      }
      for (const auto& assembly_name : assemblies) {
        if (const auto assembly = hub_->fetch(assembly_name)) {
          out.push.intro_assembly_names.push_back(assembly_name);
          out.push.intro_assembly_bytes += assembly->simulated_code_size();
        }
      }
    }
  }
  return out;
}

PushAck Peer::send_object_session(std::string_view to, const SessionObject& object) {
  const std::string recipient(to);
  // Flush-on-sync: a synchronous send must not overtake pushes already
  // queued in this recipient's batching window.
  flush_batch_window(recipient);
  for (int attempt = 0; attempt < 2; ++attempt) {
    SessionSend send = build_session_push(recipient, object);
    const Message response =
        network_.send(Message{name_, recipient, std::move(send.push)});
    ++stats_.objects_sent;
    const SessionAck ack = session_ack_from_response(response, recipient);
    hub_->intro_registry().record_all(recipient, ack.known_desc_hashes);
    if (ack.status == SessionStatus::Reset) {
      // The receiver lost the session (eviction, restart): start a new
      // token and replay once with every type introduced inline.
      sessions_.reset_peer(recipient);
      ++stats_.session_retries;
      continue;
    }
    sessions_.commit_send(recipient, send.token, send.names, send.fresh);
    return PushAck{ack.delivered, ack.detail};
  }
  throw ProtocolError("session push to '" + recipient + "' kept resetting");
}

PushAck Peer::send_object(std::string_view to,
                          const std::shared_ptr<DynObject>& object) {
  if (config_.use_sessions) return send_object_session(to, build_session_object(object));
  ObjectPush push = build_push(object);
  const Message response =
      network_.send(Message{name_, std::string(to), std::move(push)});
  ++stats_.objects_sent;
  return ack_from_response(response, to);
}

void Peer::send_session_attempt(const std::string& recipient,
                                std::shared_ptr<const SessionObject> object,
                                std::shared_ptr<std::promise<PushAck>> promise,
                                int retries_left) {
  try {
    SessionSend send = build_session_push(recipient, *object);
    auto token = send.token;
    outbound_.add();
    try {
      network_.send_async(
          Message{name_, recipient, std::move(send.push)},
          [this, recipient, object, promise, retries_left, token,
           names = std::move(send.names), fresh = std::move(send.fresh)](
              Message response, std::exception_ptr error) {
            struct Done {
              OutboundTracker& tracker;
              ~Done() { tracker.done(); }
            } done{outbound_};
            if (error) {
              promise->set_exception(error);
              return;
            }
            ++stats_.objects_sent;
            try {
              const SessionAck ack = session_ack_from_response(response, recipient);
              hub_->intro_registry().record_all(recipient, ack.known_desc_hashes);
              if (ack.status == SessionStatus::Reset) {
                sessions_.reset_peer(recipient);
                if (retries_left > 0) {
                  // Replay once with a fresh token, from the transport
                  // thread — Resets are rare, the nested send is bounded.
                  ++stats_.session_retries;
                  send_session_attempt(recipient, object, promise,
                                       retries_left - 1);
                  return;
                }
                throw ProtocolError("session push to '" + recipient +
                                    "' kept resetting");
              }
              sessions_.commit_send(recipient, token, names, fresh);
              promise->set_value(PushAck{ack.delivered, ack.detail});
            } catch (...) {
              promise->set_exception(std::current_exception());
            }
          });
    } catch (...) {
      outbound_.done();
      throw;
    }
  } catch (...) {
    promise->set_exception(std::current_exception());
  }
}

std::future<PushAck> Peer::send_object_async(std::string_view to,
                                             const std::shared_ptr<DynObject>& object) {
  if (config_.use_sessions) {
    auto promise = std::make_shared<std::promise<PushAck>>();
    std::future<PushAck> future = promise->get_future();
    auto session_object = std::make_shared<const SessionObject>(build_session_object(object));
    const std::string recipient(to);
    if (config_.session.max_batch > 1) {
      // Batching window: queue the push; a full window travels as one
      // SessionBatch frame. The send happens outside the lock.
      std::vector<PendingPush> ready;
      {
        std::scoped_lock lock(batch_mutex_);
        std::vector<PendingPush>& window = batch_windows_[recipient];
        window.push_back(PendingPush{std::move(session_object), std::move(promise)});
        if (window.size() >= config_.session.max_batch) {
          ready = std::move(window);
          batch_windows_.erase(recipient);
        }
      }
      if (!ready.empty()) send_batch_attempt(recipient, std::move(ready));
      return future;
    }
    send_session_attempt(recipient, std::move(session_object), std::move(promise), 1);
    return future;
  }
  ObjectPush push = build_push(object);
  auto promise = std::make_shared<std::promise<PushAck>>();
  std::future<PushAck> future = promise->get_future();
  const std::string recipient(to);
  outbound_.add();
  try {
    network_.send_async(
        Message{name_, recipient, std::move(push)},
        [this, promise, recipient](Message response, std::exception_ptr error) {
          // `this` stays valid: ~Peer waits for outbound_ to drain, and
          // the transport invokes every callback exactly once (failed/
          // detached sends included).
          struct Done {
            OutboundTracker& tracker;
            ~Done() { tracker.done(); }
          } done{outbound_};
          if (error) {
            promise->set_exception(error);
            return;
          }
          ++stats_.objects_sent;
          try {
            promise->set_value(ack_from_response(response, recipient));
          } catch (...) {
            promise->set_exception(std::current_exception());
          }
        });
  } catch (...) {
    outbound_.done();
    throw;
  }
  return future;
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
  if (!ready.empty()) send_batch_attempt(recipient, std::move(ready));
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
  for (auto& [recipient, items] : ready) send_batch_attempt(recipient, std::move(items));
}

void Peer::send_batch_attempt(const std::string& recipient,
                              std::vector<PendingPush> items) {
  auto pending = std::make_shared<std::vector<PendingPush>>(std::move(items));
  const auto fail_all = [pending](std::exception_ptr error) {
    for (PendingPush& item : *pending) {
      try {
        item.promise->set_exception(error);
      } catch (const std::future_error&) {
        // Slot already resolved before the failure — keep its verdict.
      }
    }
  };
  try {
    // Plans are made at flush time, in queue order: wire ids and the token
    // reflect the session as the receiver will see it, entry by entry.
    auto sends = std::make_shared<std::vector<SessionSend>>();
    sends->reserve(pending->size());
    SessionBatch batch;
    batch.entries.reserve(pending->size());
    for (const PendingPush& item : *pending) {
      sends->push_back(build_session_push(recipient, *item.object));
      batch.entries.push_back(std::move(sends->back().push));
    }
    outbound_.add();
    try {
      network_.send_async(
          Message{name_, recipient, std::move(batch)},
          [this, recipient, pending, sends, fail_all](Message response,
                                                      std::exception_ptr error) {
            struct Done {
              OutboundTracker& tracker;
              ~Done() { tracker.done(); }
            } done{outbound_};
            if (error) {
              fail_all(error);
              return;
            }
            stats_.objects_sent += pending->size();
            try {
              const auto* acks = std::get_if<SessionBatchAck>(&response.payload);
              if (acks == nullptr) {
                if (const auto* err = std::get_if<ErrorReply>(&response.payload)) {
                  if (util::starts_with(err->message, kResourceReplyPrefix)) {
                    throw pti::ResourceExhaustedError(
                        "batched push to '" + recipient + "' rejected: " +
                        err->message.substr(kResourceReplyPrefix.size()));
                  }
                  throw ProtocolError("batched push to '" + recipient +
                                      "' failed: " + err->message);
                }
                throw ProtocolError("unexpected response to SessionBatch: " +
                                    std::string(response.kind_name()));
              }
              if (acks->entries.size() != pending->size()) {
                throw ProtocolError(
                    "batch ack carries " + std::to_string(acks->entries.size()) +
                    " verdicts for " + std::to_string(pending->size()) + " entries");
              }
              // Per-entry commit on the entry's own ack slot: a Reset in
              // slot i replays entry i alone; every other slot keeps its
              // verdict and its wire-id commits.
              for (std::size_t i = 0; i < acks->entries.size(); ++i) {
                const SessionAck& ack = acks->entries[i];
                hub_->intro_registry().record_all(recipient, ack.known_desc_hashes);
                PendingPush& item = (*pending)[i];
                if (ack.status == SessionStatus::Reset) {
                  sessions_.reset_peer(recipient);
                  ++stats_.session_retries;
                  send_session_attempt(recipient, item.object, item.promise, 1);
                  continue;
                }
                sessions_.commit_send(recipient, (*sends)[i].token, (*sends)[i].names,
                                      (*sends)[i].fresh);
                item.promise->set_value(PushAck{ack.delivered, ack.detail});
              }
            } catch (...) {
              fail_all(std::current_exception());
            }
          });
    } catch (...) {
      outbound_.done();
      throw;
    }
  } catch (...) {
    fail_all(std::current_exception());
  }
}

Message Peer::handle(const Message& request) {
  if (extra_handler_) {
    if (auto handled = extra_handler_(request)) return std::move(*handled);
  }
  try {
    if (const auto* push = std::get_if<ObjectPush>(&request.payload)) {
      return handle_object_push(request, *push);
    }
    if (const auto* spush = std::get_if<SessionPush>(&request.payload)) {
      return handle_session_push(request, *spush);
    }
    if (const auto* batch = std::get_if<SessionBatch>(&request.payload)) {
      return handle_session_batch(request, *batch);
    }
    if (const auto* ti = std::get_if<TypeInfoRequest>(&request.payload)) {
      return Message{name_, request.sender, handle_typeinfo(*ti)};
    }
    if (const auto* code = std::get_if<CodeRequest>(&request.payload)) {
      return Message{name_, request.sender, handle_code(*code)};
    }
    return Message{name_, request.sender,
                   ErrorReply{std::string("peer '") + name_ + "' cannot handle " +
                              request.kind_name()}};
  } catch (const pti::ResourceExhaustedError& e) {
    return Message{name_, request.sender,
                   ErrorReply{std::string(kResourceReplyPrefix) + e.what()}};
  } catch (const Error& e) {
    return Message{name_, request.sender, ErrorReply{e.what()}};
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
  std::vector<TypeDescription> parsed;
  parsed.reserve(info->descriptions_xml.size());
  for (const auto& xml_text : info->descriptions_xml) {
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
  std::size_t registered = 0;
  for (auto& d : parsed) {
    domain_.registry().add(std::move(d));
    ++registered;
  }
  return registered;
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
         rounds < config_.max_fetch_rounds) {
    ++rounds;
    if (fetch_descriptions(sender, result.missing_types) == 0 &&
        !any_known(result.missing_types)) {
      break;  // the sender cannot help further
    }
    result = checker_.check(source, target);
  }
  return result;
}

void Peer::ensure_code(const TypeInfoEntry& entry, std::string_view sender,
                       bool& any_download) {
  if (domain_.is_loaded(entry.type_name)) return;

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
  if (domain_.has_assembly(assembly_name)) return;  // another type loaded it

  std::string host{download_host(path)};
  if (host.empty()) host = std::string(sender);

  ++stats_.code_requests;
  any_download = true;
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

void Peer::ensure_types_usable(const std::vector<TypeInfoEntry>& types,
                               std::string_view counterpart) {
  std::vector<std::string> unknown;
  for (const auto& t : types) {
    if (domain_.registry().find(t.type_name) == nullptr) unknown.push_back(t.type_name);
  }
  if (!unknown.empty()) {
    fetch_descriptions(counterpart, unknown);
    for (const auto& t : types) {
      if (domain_.registry().find(t.type_name) == nullptr) {
        throw ProtocolError("'" + std::string(counterpart) +
                            "' could not describe type '" + t.type_name + "'");
      }
    }
  }
  bool any_download = false;
  for (const auto& entry : types) {
    ensure_code(entry, counterpart, any_download);
  }
}

SessionAck Peer::deliver_session_payload(const std::string& sender,
                                         const SessionPush& push,
                                         const std::string& matched_interest,
                                         util::InternedName matched_id) {
  serial::ObjectSerializer& serializer = serializers_.get(push.encoding);
  const reflect::Value root = serializer.deserialize(push.payload);
  if (root.kind() != reflect::ValueKind::Object || !root.as_object()) {
    ++stats_.objects_rejected;
    return SessionAck{SessionStatus::Ok, false, "payload root is not an object", {}};
  }

  DeliveredObject delivered;
  delivered.object = root.as_object();
  domain_.fill_missing_fields(*delivered.object);
  delivered.adapted = proxies_.wrap(delivered.object, matched_interest);
  delivered.interest_type = matched_interest;
  delivered.interest_id = matched_id;
  delivered.sender = sender;
  if (config_.retain_delivered) {
    std::scoped_lock lock(delivered_mutex_);
    delivered_.push_back(delivered);
  }
  ++stats_.objects_delivered;
  if (on_delivery_) on_delivery_(delivered);

  return SessionAck{SessionStatus::Ok, true, matched_interest, {}};
}

void Peer::advertise_known_descriptions(const SessionPush& push, SessionAck& ack) {
  // The ack attests content the receiver now verifiably holds: the hash of
  // every intro description this push delivered. A Reset ack additionally
  // carries the receiver's whole known set (capped) so the replay — and,
  // through the hub registry, every other sender — skips those bytes.
  std::vector<std::uint64_t> delivered;
  for (const SessionIntro& intro : push.intros) {
    if (!intro.description_xml.empty()) {
      delivered.push_back(util::fnv1a64(intro.description_xml));
    }
  }
  if (delivered.empty() && ack.status != SessionStatus::Reset) return;
  std::scoped_lock lock(desc_hashes_mutex_);
  for (const std::uint64_t hash : delivered) known_desc_hashes_.insert(hash);
  if (ack.status == SessionStatus::Reset) {
    for (const std::uint64_t hash : known_desc_hashes_) {
      if (ack.known_desc_hashes.size() >= kMaxAdvertisedHashes) break;
      ack.known_desc_hashes.push_back(hash);
    }
  } else {
    ack.known_desc_hashes = std::move(delivered);
  }
}

Message Peer::handle_session_push(const Message& request, const SessionPush& push) {
  SessionAck ack = process_session_push(request.sender, push);
  advertise_known_descriptions(push, ack);
  return Message{name_, request.sender, std::move(ack)};
}

Message Peer::handle_session_batch(const Message& request, const SessionBatch& batch) {
  // One framed exchange, one verdict slot per entry, processed strictly in
  // order through the same per-push protocol as kind 9 — batching changes
  // the wire shape, never a decision or the order decisions are made in.
  ++stats_.session_batches;
  SessionBatchAck out;
  out.entries.reserve(batch.entries.size());
  for (const SessionPush& entry : batch.entries) {
    SessionAck ack = process_session_push(request.sender, entry);
    advertise_known_descriptions(entry, ack);
    out.entries.push_back(std::move(ack));
  }
  return Message{name_, request.sender, std::move(out)};
}

SessionAck Peer::process_session_push(const std::string& sender, const SessionPush& push) {
  ++stats_.objects_received;
  ++stats_.session_pushes;

  // Session bookkeeping first: adopt/refresh the inbound session, learn
  // the inline intros (idempotent), register their descriptions. The
  // distinct-name budget for intro names was already charged at the
  // transport seam (count_new_names), before this handler ran.
  sessions_.open_inbound(sender, push.token);
  for (const SessionIntro& intro : push.intros) {
    if (sessions_.learn(sender, push.token, intro)) ++stats_.session_intros;
    if (!intro.description_xml.empty() &&
        domain_.registry().find(intro.type_name) == nullptr) {
      // The XML is content-only; provenance comes from the intro fields.
      TypeDescription d = serial::type_description_from_string(intro.description_xml);
      d.set_assembly_name(intro.assembly_name);
      d.set_download_path(intro.download_path);
      domain_.registry().add(std::move(d));
    }
  }
  // Eager-mode extras: assemblies prepaid alongside the intros.
  for (const auto& assembly_name : push.intro_assembly_names) {
    if (!domain_.has_assembly(assembly_name)) {
      if (const auto assembly = hub_->fetch(assembly_name)) {
        domain_.load_assembly(assembly, "");
      }
    }
  }

  if (push.wire_types.empty()) {
    ++stats_.objects_rejected;
    return SessionAck{SessionStatus::Ok, false, "envelope carries no object types", {}};
  }

  std::vector<TypeInfoEntry> entries;
  if (!sessions_.resolve(sender, push.token, push.wire_types, entries)) {
    // Unknown wire ids: the session that established them is gone (evicted
    // or replaced). Tell the sender to replay with intros.
    ++stats_.session_resets;
    return SessionAck{SessionStatus::Reset, false, "session state lost", {}};
  }

  // The warmed path: a decisive verdict cached for this exact envelope
  // type set under the current invalidation generation. No registry walk,
  // no conformance check, no nested exchange.
  const std::uint32_t root_id = push.wire_types.front();
  if (auto verdict = sessions_.find_verdict(sender, push.token, root_id, push.wire_types)) {
    ++stats_.session_verdict_hits;
    if (!verdict->conformant) {
      ++stats_.objects_rejected;
      return SessionAck{SessionStatus::Ok, false, verdict->detail, {}};
    }
    if (verdict->code_ready) {
      ++stats_.code_cache_hits;
    } else {
      const std::uint64_t gen = sessions_.generation();
      bool any_download = false;
      for (const auto& entry : entries) ensure_code(entry, sender, any_download);
      if (!any_download) ++stats_.code_cache_hits;
      verdict->code_ready = true;
      sessions_.store_verdict(sender, push.token, root_id, *verdict, gen);
    }
    return deliver_session_payload(sender, push, verdict->matched_interest,
                                   verdict->matched_id);
  }

  // Cold half: the full protocol, same semantics and same observable
  // decisions as a cold ObjectPush — only the transport shape differs.
  // The generation is read before any conformance work so a concurrent
  // invalidation discards (rather than corrupts) the cached outcome.
  const std::uint64_t gen = sessions_.generation();

  std::vector<std::string> unknown;
  for (const auto& entry : entries) {
    if (domain_.registry().find(entry.type_name) == nullptr) {
      unknown.push_back(entry.type_name);
    }
  }
  if (unknown.empty()) {
    ++stats_.typeinfo_cache_hits;
  } else {
    if (config_.mode != ProtocolMode::Optimistic) {
      throw ProtocolError("eager push from '" + sender + "' missing descriptions");
    }
    fetch_descriptions(sender, unknown);
    for (const auto& entry : entries) {
      if (domain_.registry().find(entry.type_name) == nullptr) {
        throw ProtocolError("sender '" + sender + "' could not describe type '" +
                            entry.type_name + "'");
      }
    }
  }

  const TypeDescription* pushed = domain_.registry().find(entries.front().type_name);
  bool undecided = false;
  const auto accept = [&](const InterestEntry& entry) {
    const TypeDescription* interest = domain_.registry().find_by_id(entry.interest);
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
  SessionTable::Verdict verdict;
  verdict.wire_types = push.wire_types;
  if (const auto match = hub_->interests().match_first(sub_, accept)) {
    verdict.conformant = true;
    verdict.matched_interest =
        domain_.registry().find_by_id(match->interest)->qualified_name();
    verdict.matched_id = match->interest;
  }
  if (!verdict.conformant) {
    ++stats_.objects_rejected;
    verdict.detail = "no interest conforms to '" + entries.front().type_name + "'";
    // An undecided rejection (the sender could not supply every referenced
    // description) stays uncached: a later push may resolve differently.
    if (!undecided) sessions_.store_verdict(sender, push.token, root_id, verdict, gen);
    return SessionAck{SessionStatus::Ok, false, verdict.detail, {}};
  }

  bool any_download = false;
  for (const auto& entry : entries) {
    ensure_code(entry, sender, any_download);
  }
  if (!any_download) ++stats_.code_cache_hits;
  verdict.code_ready = true;
  sessions_.store_verdict(sender, push.token, root_id, verdict, gen);

  return deliver_session_payload(sender, push, verdict.matched_interest,
                                 verdict.matched_id);
}

Message Peer::handle_object_push(const Message& request, const ObjectPush& push) {
  ++stats_.objects_received;
  const std::string& sender = request.sender;

  // Eager extras land first (descriptions and pre-paid assemblies).
  for (const auto& xml_text : push.eager_descriptions_xml) {
    domain_.registry().add(serial::type_description_from_string(xml_text));
  }
  for (const auto& assembly_name : push.eager_assembly_names) {
    if (!domain_.has_assembly(assembly_name)) {
      if (const auto assembly = hub_->fetch(assembly_name)) {
        domain_.load_assembly(assembly, "");
      }
    }
  }

  const Envelope envelope = Envelope::from_bytes(push.envelope);
  if (envelope.types().empty()) {
    ++stats_.objects_rejected;
    return Message{name_, sender, PushAck{false, "envelope carries no object types"}};
  }

  // Protocol step 2: obtain descriptions for unknown envelope types.
  std::vector<std::string> unknown;
  for (const auto& t : envelope.types()) {
    if (domain_.registry().find(t.type_name) == nullptr) unknown.push_back(t.type_name);
  }
  if (unknown.empty()) {
    ++stats_.typeinfo_cache_hits;
  } else {
    if (config_.mode != ProtocolMode::Optimistic) {
      throw ProtocolError("eager push from '" + sender + "' missing descriptions");
    }
    fetch_descriptions(sender, unknown);
    for (const auto& t : envelope.types()) {
      if (domain_.registry().find(t.type_name) == nullptr) {
        throw ProtocolError("sender '" + sender + "' could not describe type '" +
                            t.type_name + "'");
      }
    }
  }

  // Protocol step 3: conformance against the interest set, gated by the
  // configured matcher (the paper's rule by default, a Section 2 baseline
  // otherwise). The declaration-ordered scan lives in the hub's shared
  // InterestIndex now (match_first pins its snapshot for the duration);
  // the accept predicate below is the full checker — potentially
  // fetching, hence slow — and first match wins, exactly as before.
  const TypeDescription* pushed =
      domain_.registry().find(envelope.types().front().type_name);
  const auto accept = [&](const InterestEntry& entry) {
    const TypeDescription* interest = domain_.registry().find_by_id(entry.interest);
    if (interest == nullptr) return false;
    const CheckResult result = check_with_fetch(*pushed, *interest, sender);
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
  std::string matched_interest;
  util::InternedName matched_id;
  if (const auto match = hub_->interests().match_first(sub_, accept)) {
    matched_interest = domain_.registry().find_by_id(match->interest)->qualified_name();
    matched_id = match->interest;
  }
  if (matched_interest.empty()) {
    // The optimistic pay-off: no conformant interest, no code download.
    ++stats_.objects_rejected;
    return Message{name_, sender,
                   PushAck{false, "no interest conforms to '" +
                                      envelope.types().front().type_name + "'"}};
  }

  // Protocol step 4+5: download code for every type in the object graph.
  bool any_download = false;
  for (const auto& entry : envelope.types()) {
    ensure_code(entry, sender, any_download);
  }
  if (!any_download) ++stats_.code_cache_hits;

  // Decode the payload from the parsed message and hand over, wrapped as
  // the interest type.
  const reflect::Value root = envelope.read_payload(serializers_);
  if (root.kind() != reflect::ValueKind::Object || !root.as_object()) {
    ++stats_.objects_rejected;
    return Message{name_, sender, PushAck{false, "payload root is not an object"}};
  }

  DeliveredObject delivered;
  delivered.object = root.as_object();
  // Lossy payload encodings (public-only XML) may have dropped private
  // fields; restore the declared shape now that the code is loaded.
  domain_.fill_missing_fields(*delivered.object);
  delivered.adapted = proxies_.wrap(delivered.object, matched_interest);
  delivered.interest_type = matched_interest;
  delivered.interest_id = matched_id;
  delivered.sender = sender;
  if (config_.retain_delivered) {
    std::scoped_lock lock(delivered_mutex_);
    delivered_.push_back(delivered);
  }
  ++stats_.objects_delivered;
  if (on_delivery_) on_delivery_(delivered);

  return Message{name_, sender, PushAck{true, matched_interest}};
}

}  // namespace pti::transport
