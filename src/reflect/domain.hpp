// Domain — the per-peer runtime context (the analogue of a .NET AppDomain).
//
// A Domain owns the peer's TypeRegistry (descriptions it knows) and the
// set of loaded Assemblies (code it can execute). Loading an assembly
// introspects every contained NativeType and registers the resulting
// descriptions; only then can instances of those types be created and
// invoked locally.
//
// Thread safety: fully thread-safe. The registry is internally sharded
// (PR 2); the assembly/native maps sit behind one shared_mutex —
// load_assembly takes it exclusively, every lookup takes it shared. The
// maps are append-only, so NativeType pointers handed out stay valid; two
// threads racing to load the same assembly resolve to one load (the loser
// sees the idempotent re-load and returns empty). instantiate()/invoke()
// run concurrently; mutating one *given* DynObject stays the caller's
// single-threaded business.
#pragma once

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "reflect/assembly.hpp"
#include "reflect/type_registry.hpp"
#include "util/interning.hpp"

namespace pti::reflect {

class Domain {
 public:
  Domain() = default;
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  [[nodiscard]] TypeRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const TypeRegistry& registry() const noexcept { return registry_; }

  /// Loads an assembly: registers it as executable code and registers a
  /// description (with provenance) for each contained type. Idempotent for
  /// the same assembly name. Returns the registered descriptions in the
  /// assembly's type order (empty on the idempotent re-load), so callers
  /// building handles need not re-resolve the names.
  std::vector<const TypeDescription*> load_assembly(
      std::shared_ptr<const Assembly> assembly, std::string_view download_path = {});

  [[nodiscard]] bool has_assembly(std::string_view name) const noexcept;

  /// The native (executable) type for a qualified name; nullptr when the
  /// code has not been loaded (description-only knowledge).
  [[nodiscard]] const NativeType* find_native(std::string_view qualified_name) const noexcept;

  /// Id-keyed native lookup — the handle-based fast path: a single integer
  /// hash probe, no case folding, no string compare.
  [[nodiscard]] const NativeType* find_native(util::InternedName qualified_id) const noexcept;

  /// True when instances of the type can be created/invoked locally.
  [[nodiscard]] bool is_loaded(std::string_view qualified_name) const noexcept {
    return find_native(qualified_name) != nullptr;
  }

  /// Creates an instance of a loaded type. Throws ReflectError when the
  /// type's code is not available.
  [[nodiscard]] std::shared_ptr<DynObject> instantiate(std::string_view qualified_name,
                                                       Args args = {}) const;

  /// instantiate() keyed on an already-resolved description (interned-id
  /// native lookup; never re-hashes the name).
  [[nodiscard]] std::shared_ptr<DynObject> instantiate(const TypeDescription& type,
                                                       Args args = {}) const;

  /// Invokes a method on an object whose type is loaded in this domain.
  Value invoke(DynObject& object, std::string_view method_name, Args args = {}) const;

  /// Recursively default-fills declared-but-missing fields of every object
  /// in the graph whose type is loaded here. Lossy serializers (the
  /// public-fields-only XML mechanism) drop private state; after code
  /// download, the declared shape is restored with default values — the
  /// XmlSerializer deserialization semantics.
  void fill_missing_fields(DynObject& root) const;

 private:
  TypeRegistry registry_;
  /// Guards the three maps below; they are append-only, so the NativeType
  /// and Assembly pointers handed out survive the lock's release.
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::shared_ptr<const Assembly>, util::ICaseLess> assemblies_;
  std::map<std::string, const NativeType*, util::ICaseLess> natives_;
  /// Same natives keyed by interned qualified-name id (handle fast path).
  std::unordered_map<util::InternedName, const NativeType*> natives_by_id_;
};

}  // namespace pti::reflect
