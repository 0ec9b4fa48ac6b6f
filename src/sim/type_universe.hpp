// TypeUniverse — the megasim's deterministic population of types.
//
// Drives the same machinery the real peers use — TypeBuilder-built
// assemblies, one shared Domain/TypeRegistry, the real
// ConformanceChecker — but precomputes everything a million deliveries
// would otherwise recompute per message:
//
//   * one publisher type per family ("u<t>.Thing": fields + getters) and
//     one interest type ("i<t>.Thing": getters only), generated from
//     per-group base schemas so conformance is nontrivial: families of a
//     group share a schema (Copy/Subset interests conform; Mutated ones
//     do not; cross-group never);
//   * the T x T ground-truth conformance matrix, computed ONCE by the
//     real checker — LightweightPeer's receive-path verdict is a bit
//     probe where Peer's is a checker call, with identical semantics;
//   * per-family envelope bytes (real serial::Envelope serialization) and
//     an FNV(bytes) -> family map, so receivers resolve the pushed type
//     without an XML parse per delivery — the bytes still cross the
//     simulated wire at full size, so cost accounting stays honest;
//   * cached description XML and assembly sizes for TypeInfo/Code replies.
//
// Thread safety: construction is single-threaded; afterwards the universe
// is immutable and may be shared by any number of reading peers.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "conform/conformance_cache.hpp"
#include "reflect/domain.hpp"
#include "serial/object_serializer.hpp"
#include "transport/assembly_hub.hpp"
#include "util/interning.hpp"

namespace pti::sim {

struct TypeUniverseConfig {
  std::uint64_t seed = 1;
  std::size_t families = 32;  ///< distinct (publisher, interest) type pairs
  std::size_t groups = 8;     ///< schema-sharing clusters (conformance islands)
};

class TypeUniverse {
 public:
  static constexpr std::uint32_t kNoType = 0xFFFFFFFFu;

  /// Builds the population, loads every assembly into the shared domain
  /// and publishes it to `hub` (the universe's peers download from there).
  TypeUniverse(const TypeUniverseConfig& config, transport::AssemblyHub& hub);
  TypeUniverse(const TypeUniverse&) = delete;
  TypeUniverse& operator=(const TypeUniverse&) = delete;

  [[nodiscard]] std::size_t type_count() const noexcept { return families_.size(); }
  [[nodiscard]] std::uint32_t group_of(std::uint32_t family) const noexcept {
    return family % static_cast<std::uint32_t>(groups_);
  }

  // --- publisher side ---------------------------------------------------
  [[nodiscard]] const std::string& publisher_type_name(std::uint32_t family) const {
    return families_[family].publisher_type;
  }
  [[nodiscard]] const std::string& description_xml(std::uint32_t family) const {
    return families_[family].description_xml;
  }
  /// FNV-64 of the family's description XML — the content hash peers
  /// advertise and the intro registry stores, computed once per family.
  [[nodiscard]] std::uint64_t description_hash(std::uint32_t family) const noexcept {
    return families_[family].description_hash;
  }
  [[nodiscard]] const std::string& assembly_name(std::uint32_t family) const {
    return families_[family].assembly;
  }
  [[nodiscard]] std::uint64_t assembly_code_size(std::uint32_t family) const {
    return families_[family].code_size;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& envelope_bytes(std::uint32_t family) const {
    return families_[family].envelope;
  }
  /// Raw serialized payload of the family's canonical object — what a
  /// session-mode push carries instead of the full XML envelope.
  [[nodiscard]] const std::vector<std::uint8_t>& payload_bytes(std::uint32_t family) const {
    return families_[family].payload;
  }
  /// Serializer name of the precomputed payloads (same for every family).
  [[nodiscard]] const std::string& payload_encoding() const noexcept {
    return payload_encoding_;
  }
  /// Family whose precomputed envelope these bytes are; kNoType otherwise.
  [[nodiscard]] std::uint32_t type_of_envelope(
      const std::vector<std::uint8_t>& bytes) const noexcept;
  /// Family whose publisher type has this qualified name; kNoType otherwise.
  [[nodiscard]] std::uint32_t type_by_name(const std::string& qualified_name) const noexcept;

  // --- interest side ----------------------------------------------------
  [[nodiscard]] const std::string& interest_type_name(std::uint32_t family) const {
    return families_[family].interest_type;
  }
  [[nodiscard]] util::InternedName interest_id(std::uint32_t family) const noexcept {
    return families_[family].interest_id;
  }
  /// Family whose interest type has this interned id; kNoType otherwise.
  [[nodiscard]] std::uint32_t interest_of_id(util::InternedName id) const noexcept;
  /// Family whose interest type has this qualified name; kNoType otherwise.
  [[nodiscard]] std::uint32_t interest_by_type_name(
      const std::string& qualified_name) const noexcept;

  // --- ground truth -----------------------------------------------------
  /// Whether publisher type `publisher` conforms to interest `interest`,
  /// as decided once by the real ConformanceChecker.
  [[nodiscard]] bool conforms(std::uint32_t publisher, std::uint32_t interest) const noexcept {
    return matrix_[static_cast<std::size_t>(publisher) * families_.size() + interest];
  }

  [[nodiscard]] reflect::Domain& domain() noexcept { return domain_; }

 private:
  struct Family {
    std::string publisher_type;   ///< "u<t>.Thing"
    std::string interest_type;    ///< "i<t>.Thing"
    std::string assembly;         ///< publisher assembly name
    std::uint64_t code_size = 0;  ///< simulated size of that assembly
    std::string description_xml;  ///< publisher type description
    std::uint64_t description_hash = 0;  ///< FNV-64 of description_xml
    std::vector<std::uint8_t> envelope;
    std::vector<std::uint8_t> payload;  ///< envelope's raw payload bytes
    util::InternedName interest_id;
  };

  reflect::Domain domain_;
  serial::SerializerRegistry serializers_;
  conform::ConformanceCache cache_;
  std::size_t groups_ = 1;
  std::string payload_encoding_;
  std::vector<Family> families_;
  std::vector<bool> matrix_;  ///< families x families, row = publisher
  std::unordered_map<std::uint64_t, std::uint32_t> family_by_envelope_hash_;
  std::unordered_map<std::string, std::uint32_t> family_by_type_name_;
  std::unordered_map<std::string, std::uint32_t> family_by_interest_name_;
  std::unordered_map<util::InternedName, std::uint32_t> family_by_interest_id_;
};

}  // namespace pti::sim
