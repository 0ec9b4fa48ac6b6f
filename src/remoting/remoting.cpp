#include "remoting/remoting.hpp"

#include <unordered_set>
#include <vector>

#include "remoting/remoting_error.hpp"
#include "serial/envelope.hpp"
#include "transport/transport_error.hpp"

namespace pti::remoting {

using reflect::DynObject;
using reflect::Value;
using reflect::ValueKind;
using transport::InvokeRequest;
using transport::InvokeResponse;
using transport::Message;

Remoting::Remoting(transport::Peer& peer) : peer_(peer) {
  peer_.set_extra_handler([this](const Message& m) { return handle(m); });
  peer_.proxies().set_remote_invoker(this);
}

Remoting::~Remoting() {
  peer_.set_extra_handler({});
  peer_.proxies().set_remote_invoker(nullptr);
}

std::uint64_t Remoting::export_object(std::shared_ptr<DynObject> object) {
  if (!object) throw RemotingError("cannot export a null object");
  std::scoped_lock lock(exported_mutex_);
  const std::uint64_t id = next_id_++;
  exported_.emplace(id, std::move(object));
  return id;
}

void Remoting::unexport(std::uint64_t object_id) noexcept {
  std::scoped_lock lock(exported_mutex_);
  exported_.erase(object_id);
}

std::shared_ptr<DynObject> Remoting::import_ref(std::string_view host_peer,
                                                std::uint64_t object_id,
                                                std::string_view type_name) {
  // The local side needs the remote type's description — and the
  // descriptions it references (supertypes, member types) — for conformance
  // checks and proxy plans. It never needs its code: that is the point of
  // pass-by-reference. Fetch the transitive closure, bounded.
  if (peer_.domain().registry().find(type_name) == nullptr) {
    peer_.fetch_descriptions(host_peer, {std::string(type_name)});
    if (peer_.domain().registry().find(type_name) == nullptr) {
      throw RemotingError("host '" + std::string(host_peer) +
                          "' could not describe remote type '" + std::string(type_name) +
                          "'");
    }
  }
  return import_ref(host_peer, object_id, *peer_.domain().registry().find(type_name));
}

std::shared_ptr<DynObject> Remoting::import_ref(std::string_view host_peer,
                                                std::uint64_t object_id,
                                                const reflect::TypeDescription& type) {
  complete_description_closure(host_peer, type);
  auto ref = DynObject::make(type.qualified_name(), util::Guid{});
  ref->set(kRemotePeerField, Value(std::string(host_peer)));
  ref->set(kRemoteIdField, Value(static_cast<std::int64_t>(object_id)));
  return ref;
}

void Remoting::complete_description_closure(std::string_view host_peer,
                                            const reflect::TypeDescription& type) {
  reflect::TypeRegistry& registry = peer_.domain().registry();
  for (std::size_t round = 0; round < transport::kMaxFetchRounds; ++round) {
    // Walk the type's closure only: each reference resolves against its
    // referrer's namespace; what does not resolve is fetched.
    std::vector<std::string> missing;
    std::vector<const reflect::TypeDescription*> frontier{&type};
    std::unordered_set<const reflect::TypeDescription*> visited;
    while (!frontier.empty()) {
      const reflect::TypeDescription* d = frontier.back();
      frontier.pop_back();
      if (!visited.insert(d).second) continue;
      d->for_each_reference([&](const std::string& ref) {
        if (ref.empty()) return;
        if (const auto* found = registry.resolve(ref, d->namespace_name())) {
          frontier.push_back(found);
        } else {
          missing.push_back(ref);
        }
      });
    }
    if (missing.empty() || peer_.fetch_descriptions(host_peer, std::move(missing)) == 0) {
      break;
    }
  }
}

bool Remoting::is_remote_ref(const DynObject& obj) const noexcept {
  return obj.has_field(kRemotePeerField) && obj.has_field(kRemoteIdField);
}

std::vector<std::uint8_t> Remoting::marshal(const Value& value) {
  // Objects travel as the peer sends them (proxies unwrapped); a remote
  // reference never travels by value.
  const auto by_value = [&](const Value& item) {
    if (item.kind() != ValueKind::Object || !item.as_object()) return item;
    Value real = peer_.wire_value(item.as_object());
    if (is_remote_ref(*real.as_object())) {
      throw RemotingError("remote references cannot be passed by value");
    }
    return real;
  };
  Value wire;
  if (value.kind() == ValueKind::List) {
    Value::List items;
    items.reserve(value.as_list().size());
    for (const Value& item : value.as_list()) items.push_back(by_value(item));
    wire = Value(std::move(items));
  } else {
    wire = by_value(value);
  }
  serial::ObjectSerializer& serializer =
      peer_.serializers().get(peer_.config().payload_encoding);
  serial::EnvelopeBuilder builder(serializer, &peer_.domain().registry());
  return builder.build(wire).to_bytes();
}

Value Remoting::unmarshal(std::span<const std::uint8_t> envelope_bytes,
                          std::string_view counterpart) {
  const serial::Envelope envelope = serial::Envelope::from_bytes(envelope_bytes);
  peer_.ensure_types_usable(envelope.types(), counterpart);
  Value value = envelope.read_payload(peer_.serializers());
  if (value.kind() == ValueKind::Object && value.as_object()) {
    peer_.domain().fill_missing_fields(*value.as_object());
  } else if (value.kind() == ValueKind::List) {
    for (Value& item : value.as_list()) {
      if (item.kind() == ValueKind::Object && item.as_object()) {
        peer_.domain().fill_missing_fields(*item.as_object());
      }
    }
  }
  return value;
}

Value Remoting::invoke_remote(const DynObject& ref, std::string_view method_name,
                              reflect::Args args) {
  const std::string host = ref.get(kRemotePeerField).as_string();
  const auto object_id =
      static_cast<std::uint64_t>(ref.get(kRemoteIdField).as_int64());

  InvokeRequest request;
  request.object_id = object_id;
  request.method_name = std::string(method_name);
  request.args_envelope = marshal(Value(Value::List(args.begin(), args.end())));

  const Message response =
      peer_.network().send(Message{peer_.name(), host, std::move(request)});
  const auto* reply = std::get_if<InvokeResponse>(&response.payload);
  if (reply == nullptr) {
    throw RemotingError("unexpected response to InvokeRequest: " +
                        std::string(response.kind_name()));
  }
  if (!reply->ok) {
    throw RemotingError("remote invocation of '" + std::string(method_name) + "' on '" +
                        host + "' failed: " + reply->error);
  }
  return unmarshal(reply->result_envelope, host);
}

InvokeResponse Remoting::handle_invoke(std::string_view from, const InvokeRequest& request) {
  InvokeResponse response;
  try {
    std::shared_ptr<DynObject> target;
    {
      std::scoped_lock lock(exported_mutex_);
      const auto it = exported_.find(request.object_id);
      if (it != exported_.end()) target = it->second;
    }
    if (!target) {
      throw RemotingError("no exported object with id " +
                          std::to_string(request.object_id));
    }
    const Value args_value = unmarshal(request.args_envelope, from);
    const Value::List& args = args_value.as_list();
    // Results pass by value: marshal strips any wrappers the call produced.
    const Value result = peer_.proxies().invoke(target, request.method_name,
                                                reflect::Args(args.data(), args.size()));
    response.ok = true;
    response.result_envelope = marshal(result);
  } catch (const Error& e) {
    response.ok = false;
    response.error = e.what();
  }
  return response;
}

std::optional<Message> Remoting::handle(const Message& request) {
  if (const auto* invoke = std::get_if<InvokeRequest>(&request.payload)) {
    return Message{peer_.name(), request.sender, handle_invoke(request.sender, *invoke)};
  }
  return std::nullopt;
}

}  // namespace pti::remoting
