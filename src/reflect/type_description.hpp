// TypeDescription — the paper's central metadata artifact (Section 5).
//
// A TypeDescription captures exactly the structure the implicit structural
// conformance rules inspect: type name, supertype names, field names and
// types, method and constructor signatures — and nothing more. It is
// deliberately *non-recursive*: member types are referenced by name only,
// "for saving time during the creation of the XML message and for keeping
// this message small" (Section 5.2). It also carries the type identity
// (GUID) and the assembly/download-path information the optimistic
// transport protocol needs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/guid.hpp"
#include "util/interning.hpp"

namespace pti::reflect {

enum class TypeKind : std::uint8_t { Class, Interface, Primitive };
[[nodiscard]] std::string_view to_string(TypeKind kind) noexcept;

enum class Visibility : std::uint8_t { Public, Protected, Private };
[[nodiscard]] std::string_view to_string(Visibility v) noexcept;

/// A formal parameter: a name (informational) and a type reference.
struct ParamDescription {
  std::string name;
  std::string type_name;

  bool operator==(const ParamDescription&) const = default;
};

struct FieldDescription {
  std::string name;
  std::string type_name;
  Visibility visibility = Visibility::Private;
  bool is_static = false;

  bool operator==(const FieldDescription&) const = default;
};

struct MethodDescription {
  std::string name;
  std::string return_type;
  std::vector<ParamDescription> params;
  Visibility visibility = Visibility::Public;
  bool is_static = false;

  [[nodiscard]] std::size_t arity() const noexcept { return params.size(); }
  /// "name(t1,t2)->ret" — used in diagnostics and ambiguity reports.
  [[nodiscard]] std::string signature_string() const;

  bool operator==(const MethodDescription&) const = default;
};

struct ConstructorDescription {
  std::vector<ParamDescription> params;
  Visibility visibility = Visibility::Public;

  [[nodiscard]] std::size_t arity() const noexcept { return params.size(); }
  [[nodiscard]] std::string signature_string() const;

  bool operator==(const ConstructorDescription&) const = default;
};

class TypeDescription {
 public:
  TypeDescription() : TypeDescription("", "", TypeKind::Class) {}
  TypeDescription(std::string namespace_name, std::string simple_name, TypeKind kind)
      : namespace_(std::move(namespace_name)),
        name_(std::move(simple_name)),
        kind_(kind),
        name_id_(util::SymbolTable::global().intern_qualified(namespace_, name_)),
        simple_name_id_(util::SymbolTable::global().intern(name_)) {}

  // --- identity ---------------------------------------------------------
  /// Simple name, e.g. "Person". Conformance rule (i) compares *simple*
  /// names: two teams' `a.Person` and `b.Person` conform by name.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Namespace, e.g. "teamA". May be empty.
  [[nodiscard]] const std::string& namespace_name() const noexcept { return namespace_; }
  /// "teamA.Person" — the registry key; unique per peer universe.
  [[nodiscard]] std::string qualified_name() const;
  /// Interned identity of the case-folded qualified name. Two descriptions
  /// share a name_id iff their qualified names are case-insensitively
  /// equal; every hot path keys on this instead of re-folding strings.
  [[nodiscard]] util::InternedName name_id() const noexcept { return name_id_; }
  /// Interned identity of the case-folded simple name (rule (i) compares
  /// simple names).
  [[nodiscard]] util::InternedName simple_name_id() const noexcept {
    return simple_name_id_;
  }
  [[nodiscard]] const util::Guid& guid() const noexcept { return guid_; }
  void set_guid(const util::Guid& g) noexcept { guid_ = g; }

  [[nodiscard]] TypeKind kind() const noexcept { return kind_; }
  void set_kind(TypeKind k) noexcept {
    kind_ = k;
    fingerprint_.invalidate();
  }

  // --- structure --------------------------------------------------------
  /// Superclass simple-or-qualified name; empty for root classes,
  /// interfaces and primitives.
  [[nodiscard]] const std::string& superclass() const noexcept { return superclass_; }
  void set_superclass(std::string s) {
    superclass_ = std::move(s);
    fingerprint_.invalidate();
  }

  [[nodiscard]] const std::vector<std::string>& interfaces() const noexcept {
    return interfaces_;
  }
  void add_interface(std::string name) {
    interfaces_.push_back(std::move(name));
    fingerprint_.invalidate();
  }

  [[nodiscard]] const std::vector<FieldDescription>& fields() const noexcept {
    return fields_;
  }
  void add_field(FieldDescription f) {
    fields_.push_back(std::move(f));
    fingerprint_.invalidate();
  }

  [[nodiscard]] const std::vector<MethodDescription>& methods() const noexcept {
    return methods_;
  }
  void add_method(MethodDescription m) {
    methods_.push_back(std::move(m));
    fingerprint_.invalidate();
  }

  [[nodiscard]] const std::vector<ConstructorDescription>& constructors() const noexcept {
    return constructors_;
  }
  void add_constructor(ConstructorDescription c) {
    constructors_.push_back(std::move(c));
    fingerprint_.invalidate();
  }

  /// Calls `fn` with every type name this description references, in a
  /// fixed order: the superclass (when set), interfaces, field types,
  /// method return and parameter types, constructor parameter types.
  template <class Fn>
  void for_each_reference(Fn&& fn) const {
    if (!superclass_.empty()) fn(superclass_);
    for (const auto& itf : interfaces_) fn(itf);
    for (const auto& f : fields_) fn(f.type_name);
    for (const auto& m : methods_) {
      fn(m.return_type);
      for (const auto& p : m.params) fn(p.type_name);
    }
    for (const auto& c : constructors_) {
      for (const auto& p : c.params) fn(p.type_name);
    }
  }

  // --- provenance (optimistic transport, Section 6) ----------------------
  /// Name of the assembly (code unit) implementing this type.
  [[nodiscard]] const std::string& assembly_name() const noexcept { return assembly_name_; }
  void set_assembly_name(std::string n) { assembly_name_ = std::move(n); }

  /// Download path for the assembly, e.g. "net://peerA/teamA.people".
  [[nodiscard]] const std::string& download_path() const noexcept { return download_path_; }
  void set_download_path(std::string p) { download_path_ = std::move(p); }

  /// Opt-in tag used only by the "Safe Structural Conformance for Java"
  /// baseline [Läufer et al. 96], where only tagged types may match
  /// structurally. The paper's own rules ignore this flag.
  [[nodiscard]] bool structural_tag() const noexcept { return structural_tag_; }
  void set_structural_tag(bool v) noexcept { structural_tag_ = v; }

  // --- member lookup ------------------------------------------------------
  [[nodiscard]] const FieldDescription* find_field(std::string_view name) const noexcept;
  /// All methods whose name equals `name` case-insensitively.
  [[nodiscard]] std::vector<const MethodDescription*> find_methods(
      std::string_view name) const;
  [[nodiscard]] const MethodDescription* find_method(std::string_view name,
                                                     std::size_t arity) const noexcept;

  /// Deep equality of the *description* (identity, structure, provenance
  /// excluded from provenance fields: assembly/download-path are compared
  /// too since they are part of the wire format).
  bool operator==(const TypeDescription&) const = default;

  /// The paper's `equals()`: same structure, names compared
  /// case-insensitively, identity (GUID) ignored.
  [[nodiscard]] bool structurally_equal(const TypeDescription& other) const noexcept;

  /// Case-folded hash of everything structurally_equal() inspects (kind,
  /// simple name, supertypes, fields, methods, constructors — namespace and
  /// GUID excluded). Unequal fingerprints mean definitely-not-equal, so
  /// structural comparisons and registry dedup reject in O(1); computed
  /// lazily and memoized until the structure next mutates. Safe to call
  /// from any number of threads on a description that is no longer being
  /// mutated (the memo is guarded by an atomic once-flag); mutation
  /// (add_field etc.) requires external synchronization as usual.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

 private:
  /// Memoized fingerprint. Derived data: transparent to equality so the
  /// defaulted operator== still compares only the description itself.
  /// The valid flag is a release/acquire once-gate so that concurrent
  /// readers of an immutable (registered) description may race to compute
  /// the fingerprint: both write the same value, and a reader that
  /// observes valid==true (acquire) also observes the published value.
  struct FingerprintCache {
    mutable std::atomic<std::uint64_t> value{0};
    mutable std::atomic<bool> valid{false};

    FingerprintCache() noexcept = default;
    FingerprintCache(const FingerprintCache& other) noexcept { *this = other; }
    FingerprintCache& operator=(const FingerprintCache& other) noexcept {
      const bool v = other.valid.load(std::memory_order_acquire);
      value.store(other.value.load(std::memory_order_relaxed), std::memory_order_relaxed);
      valid.store(v, std::memory_order_release);
      return *this;
    }
    void invalidate() noexcept { valid.store(false, std::memory_order_relaxed); }
    bool operator==(const FingerprintCache&) const noexcept { return true; }
  };

  std::string namespace_;
  std::string name_;
  TypeKind kind_ = TypeKind::Class;
  util::InternedName name_id_;
  util::InternedName simple_name_id_;
  util::Guid guid_;
  std::string superclass_;
  std::vector<std::string> interfaces_;
  std::vector<FieldDescription> fields_;
  std::vector<MethodDescription> methods_;
  std::vector<ConstructorDescription> constructors_;
  std::string assembly_name_;
  std::string download_path_;
  bool structural_tag_ = false;
  FingerprintCache fingerprint_;
};

/// Strips a possibly-qualified type name to its simple name
/// ("teamA.Person" -> "Person").
[[nodiscard]] std::string_view simple_name(std::string_view type_name) noexcept;

}  // namespace pti::reflect
