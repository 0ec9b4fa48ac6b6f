// E6 — the hybrid serialization scheme (paper Fig. 3).
//
// An object travels as an XML message combining type information (names,
// identities, assembly download paths) with a SOAP- or binary-serialized
// payload. Fig. 3 is architectural; we quantify what it implies:
//
//   * wrapper overhead (XML header bytes) vs payload bytes per encoding;
//   * the whole envelope work a cold push pays on each side: encode
//     (value -> message bytes) on the sender, decode (message bytes ->
//     value) on the receiver, for the paper's Person and for a width-32
//     wide_type object (the cold_mix workload's widest type);
//   * how the wrapper amortizes as the payload grows (the wrapper is per
//     message; type info is per distinct type, not per object).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "serial/envelope.hpp"
#include "serial/object_serializer.hpp"

namespace {

using namespace pti;
using reflect::Value;

/// Arg 0..2: Person as soap/binary/xml; arg 3: a width-32 wide_type object
/// as soap.
struct Subject {
  reflect::Domain domain;
  serial::SerializerRegistry registry = serial::SerializerRegistry::with_defaults();
  const char* encoding = "soap";
  Value value;

  explicit Subject(std::int64_t arg) {
    static const char* encodings[] = {"soap", "binary", "xml"};
    if (arg < 3) {
      encoding = encodings[arg];
      bench::load_people(domain);
      value = Value(bench::make_person_a(domain));
      return;
    }
    constexpr std::size_t kWidth = 32;
    auto assembly = fixtures::wide_type("wide", "Event", kWidth, kWidth);
    domain.load_assembly(assembly, "net://sender/wide.generated");
    auto object = domain.instantiate("wide.Event");
    for (std::size_t i = 0; i < kWidth; ++i) {
      const std::string field = "f" + std::to_string(i);
      if (i % 2 == 0) {
        object->set(field, Value(static_cast<std::int32_t>(1000 + i)));
      } else {
        object->set(field, Value("value-" + std::to_string(i)));
      }
    }
    value = Value(object);
  }

  [[nodiscard]] std::string label() const {
    const bool wide = value.as_object()->type_name() == "wide.Event";
    return std::string(encoding) + (wide ? "/wide32" : "");
  }

  [[nodiscard]] std::vector<std::uint8_t> encode() {
    serial::EnvelopeBuilder builder(registry.get(encoding), &domain.registry());
    return builder.build(value).to_bytes();
  }

  void count_bytes(benchmark::State& state, std::size_t message_bytes) {
    const std::size_t payload = registry.get(encoding).serialize(value).size();
    state.counters["payload_bytes"] = static_cast<double>(payload);
    state.counters["wrapper_bytes"] = static_cast<double>(message_bytes - payload);
    state.counters["message_bytes"] = static_cast<double>(message_bytes);
  }
};

/// Sender side of a cold push: value -> message bytes.
void BM_EnvelopeBuild(benchmark::State& state) {
  bench::paper_reference("E6 hybrid envelope (Fig. 3)",
                         "XML wrapper (type info + download paths) around SOAP/binary payload");
  Subject subject(state.range(0));
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes = subject.encode();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetLabel(subject.label());
  subject.count_bytes(state, bytes.size());
}
BENCHMARK(BM_EnvelopeBuild)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

/// Receiver side of a cold push: message bytes -> value.
void BM_EnvelopeParse(benchmark::State& state) {
  Subject subject(state.range(0));
  const std::vector<std::uint8_t> bytes = subject.encode();
  for (auto _ : state) {
    const serial::Envelope envelope = serial::Envelope::from_bytes(bytes);
    benchmark::DoNotOptimize(envelope.read_payload(subject.registry));
  }
  state.SetLabel(subject.label());
  subject.count_bytes(state, bytes.size());
}
BENCHMARK(BM_EnvelopeParse)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

/// Wrapper amortization: one envelope around graphs of growing size. The
/// type-info section stays constant (two types), the payload grows.
void BM_EnvelopeAmortization(benchmark::State& state) {
  reflect::Domain domain;
  bench::load_people(domain);
  serial::SerializerRegistry registry = serial::SerializerRegistry::with_defaults();
  serial::EnvelopeBuilder builder(registry.get("binary"), &domain.registry());

  const auto count = static_cast<std::size_t>(state.range(0));
  Value::List people;
  for (std::size_t i = 0; i < count; ++i) {
    people.push_back(Value(bench::make_person_a(domain, "P" + std::to_string(i))));
  }
  const Value root(std::move(people));

  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes = builder.build(root).to_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  const double payload = static_cast<double>(registry.get("binary").serialize(root).size());
  const double wrapper = static_cast<double>(bytes.size()) - payload;
  state.counters["objects"] = static_cast<double>(count);
  state.counters["wrapper_bytes"] = wrapper;
  state.counters["payload_bytes"] = payload;
  state.counters["wrapper_share_pct"] = 100.0 * wrapper / (wrapper + payload);
}
BENCHMARK(BM_EnvelopeAmortization)->Arg(1)->Arg(10)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
