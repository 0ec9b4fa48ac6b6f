// Pass-by-reference semantics (paper Section 6.2).
//
// A peer exports an object and hands out a remote reference (host peer +
// object id + type name). On the importing side the reference is a
// synthetic DynObject carrying hidden routing fields; invoking it sends an
// InvokeRequest across the simulated network, with arguments passed by
// value (serialized in a hybrid envelope, types made usable on the server
// through the same optimistic description/code dance) and the result
// passed back by value the same way.
//
// The paper's key composition — "the interposing of a dynamic proxy as a
// wrapper is necessary since T_A and T_L are not explicitly compatible" —
// falls out naturally: Remoting implements proxy::RemoteInvoker, so a
// remote reference of type T_L can be wrapped by ProxyFactory::wrap into a
// dynamic proxy of the borrower's type T_A; invocations then flow
// dynamic proxy -> (rename/permute) -> remote reference -> network ->
// exporter -> real object.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "proxy/dynamic_proxy.hpp"
#include "reflect/dyn_object.hpp"
#include "transport/peer.hpp"

namespace pti::remoting {

/// Hidden fields of a remote-reference object.
inline constexpr std::string_view kRemotePeerField = "__pti.remote.peer";
inline constexpr std::string_view kRemoteIdField = "__pti.remote.oid";

class Remoting final : public proxy::RemoteInvoker {
 public:
  /// Installs itself on the peer (protocol hook + remote invoker).
  explicit Remoting(transport::Peer& peer);
  ~Remoting() override;
  Remoting(const Remoting&) = delete;
  Remoting& operator=(const Remoting&) = delete;

  // --- exporter side ------------------------------------------------------
  /// Makes `object` remotely invokable; returns its object id. The export
  /// table is guarded, so exports and inbound invocations may race (the
  /// rest of a Remoting's configuration is single-threaded, like Peer's).
  std::uint64_t export_object(std::shared_ptr<reflect::DynObject> object);
  void unexport(std::uint64_t object_id) noexcept;
  [[nodiscard]] std::size_t exported_count() const noexcept {
    std::scoped_lock lock(exported_mutex_);
    return exported_.size();
  }

  // --- importer side ------------------------------------------------------
  /// Builds a remote reference. Fetches the remote type's description from
  /// the host when it is not yet known locally (needed for conformance
  /// checks and proxy plans).
  [[nodiscard]] std::shared_ptr<reflect::DynObject> import_ref(std::string_view host_peer,
                                                               std::uint64_t object_id,
                                                               std::string_view type_name);

  /// import_ref() for a type already resolved locally (the core layer's
  /// handle-based path): skips the initial description fetch, but still
  /// completes the referenced-description closure from the host.
  [[nodiscard]] std::shared_ptr<reflect::DynObject> import_ref(
      std::string_view host_peer, std::uint64_t object_id,
      const reflect::TypeDescription& type);

  // --- proxy::RemoteInvoker -----------------------------------------------
  [[nodiscard]] bool is_remote_ref(const reflect::DynObject& obj) const noexcept override;
  reflect::Value invoke_remote(const reflect::DynObject& ref, std::string_view method_name,
                               reflect::Args args) override;

 private:
  /// Fetches (bounded) every description transitively referenced by `type`
  /// but not yet resolvable, from `host_peer`.
  void complete_description_closure(std::string_view host_peer,
                                    const reflect::TypeDescription& type);

  std::optional<transport::Message> handle(const transport::Message& request);
  transport::InvokeResponse handle_invoke(std::string_view from,
                                          const transport::InvokeRequest& request);

  /// Pass-by-value marshalling of a value (argument list or result).
  [[nodiscard]] std::vector<std::uint8_t> marshal(const reflect::Value& value);
  [[nodiscard]] reflect::Value unmarshal(std::span<const std::uint8_t> envelope_bytes,
                                         std::string_view counterpart);

  transport::Peer& peer_;
  /// Guards exported_/next_id_ against concurrent exports + invocations.
  mutable std::mutex exported_mutex_;
  std::map<std::uint64_t, std::shared_ptr<reflect::DynObject>> exported_;
  std::uint64_t next_id_ = 1;
};

}  // namespace pti::remoting
