#include "serial/binary_serializer.hpp"

#include <algorithm>
#include <unordered_map>

#include "reflect/dyn_object.hpp"
#include "serial/serial_error.hpp"
#include "util/byte_buffer.hpp"

namespace pti::serial {

using reflect::DynObject;
using reflect::Value;
using reflect::ValueKind;
using util::ByteReader;
using util::ByteWriter;

namespace {

constexpr std::uint8_t kVersion = 1;
/// Deepest value nesting the reader accepts, the same bound xml::parse
/// puts on the XML encodings' element nesting.
constexpr std::size_t kMaxDepth = 1024;
constexpr char kMagic[4] = {'P', 'T', 'I', 'B'};

enum class Tag : std::uint8_t {
  Null = 0,
  Bool = 1,
  Int32 = 2,
  Int64 = 3,
  Float64 = 4,
  String = 5,
  List = 6,
  Object = 7,
};

class Writer {
 public:
  std::vector<std::uint8_t> write(const Value& root) {
    // Skip the first several doublings up front; large object graphs keep
    // growing geometrically from here instead of from a handful of bytes.
    out_.reserve(512);
    out_.write_raw(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic)));
    out_.write_u8(kVersion);
    write_value(root);
    return out_.take();
  }

 private:
  void write_pooled_string(const std::string& s) {
    const auto it = string_pool_.find(s);
    if (it != string_pool_.end()) {
      out_.write_varint(it->second);
      return;
    }
    out_.write_varint(0);
    out_.write_string(s);
    string_pool_.emplace(s, string_pool_.size() + 1);
  }

  void write_value(const Value& v) {
    switch (v.kind()) {
      case ValueKind::Null:
        out_.write_u8(static_cast<std::uint8_t>(Tag::Null));
        return;
      case ValueKind::Bool:
        out_.write_u8(static_cast<std::uint8_t>(Tag::Bool));
        out_.write_bool(v.as_bool());
        return;
      case ValueKind::Int32:
        out_.write_u8(static_cast<std::uint8_t>(Tag::Int32));
        out_.write_signed_varint(v.as_int32());
        return;
      case ValueKind::Int64:
        out_.write_u8(static_cast<std::uint8_t>(Tag::Int64));
        out_.write_signed_varint(v.as_int64());
        return;
      case ValueKind::Float64:
        out_.write_u8(static_cast<std::uint8_t>(Tag::Float64));
        out_.write_f64(v.as_float64());
        return;
      case ValueKind::String:
        out_.write_u8(static_cast<std::uint8_t>(Tag::String));
        write_pooled_string(v.as_string());
        return;
      case ValueKind::List: {
        out_.write_u8(static_cast<std::uint8_t>(Tag::List));
        const Value::List& items = v.as_list();
        out_.write_varint(items.size());
        for (const Value& item : items) write_value(item);
        return;
      }
      case ValueKind::Object: {
        out_.write_u8(static_cast<std::uint8_t>(Tag::Object));
        const auto& obj = v.as_object();
        if (!obj) {
          // A null object value is encoded as Null; kind() already maps a
          // null shared_ptr to Object, so normalize here.
          out_.write_varint(0);
          out_.write_bool(false);  // "not present" marker
          return;
        }
        const auto it = object_ids_.find(obj.get());
        if (it != object_ids_.end()) {
          out_.write_varint(it->second);
          return;
        }
        const std::size_t id = object_ids_.size() + 1;
        object_ids_.emplace(obj.get(), id);
        out_.write_varint(0);
        out_.write_bool(true);  // "present" marker
        write_pooled_string(obj->type_name());
        out_.write_u64(obj->type_guid().hi());
        out_.write_u64(obj->type_guid().lo());
        out_.write_varint(obj->fields().size());
        for (const auto& [field_name, field_value] : obj->fields()) {
          write_pooled_string(field_name);
          write_value(field_value);
        }
        return;
      }
    }
    throw SerialError("unreachable value kind");
  }

  ByteWriter out_;
  std::unordered_map<std::string, std::uint64_t> string_pool_;
  std::unordered_map<const DynObject*, std::uint64_t> object_ids_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : in_(data) {}

  Value read() {
    for (char expected : kMagic) {
      if (static_cast<char>(in_.read_u8()) != expected) {
        throw SerialError("bad binary magic (not a PTIB payload)");
      }
    }
    const std::uint8_t version = in_.read_u8();
    if (version != kVersion) {
      throw SerialError("unsupported binary version " + std::to_string(version));
    }
    Value v = read_value();
    if (!in_.at_end()) throw SerialError("trailing bytes after binary payload");
    return v;
  }

 private:
  std::string read_pooled_string() {
    const std::uint64_t idx = in_.read_varint();
    if (idx == 0) {
      std::string s = in_.read_string();
      strings_.push_back(s);
      return s;
    }
    if (idx > strings_.size()) throw SerialError("bad string pool reference");
    return strings_[idx - 1];
  }

  /// Lists and first-occurrence objects nest by recursion, so hostile
  /// bytes must not choose the depth (two bytes per level would do).
  Value read_value() {
    if (depth_ == kMaxDepth) {
      throw SerialError("binary payload nests deeper than " + std::to_string(kMaxDepth) +
                        " levels");
    }
    ++depth_;
    Value v = read_tagged();
    --depth_;
    return v;
  }

  Value read_tagged() {
    const auto tag = static_cast<Tag>(in_.read_u8());
    switch (tag) {
      case Tag::Null: return Value();
      case Tag::Bool: return Value(in_.read_bool());
      case Tag::Int32:
        return Value(static_cast<std::int32_t>(in_.read_signed_varint()));
      case Tag::Int64: return Value(in_.read_signed_varint());
      case Tag::Float64: return Value(in_.read_f64());
      case Tag::String: return Value(read_pooled_string());
      case Tag::List: {
        const std::uint64_t count = in_.read_varint();
        Value::List items;
        // Every item takes at least one byte, so a count beyond the bytes
        // left is a lie that must not size an allocation.
        const std::uint64_t honest = std::min<std::uint64_t>(count, in_.remaining());
        items.reserve(static_cast<std::size_t>(honest));
        for (std::uint64_t i = 0; i < count; ++i) items.push_back(read_value());
        return Value(std::move(items));
      }
      case Tag::Object: {
        const std::uint64_t marker = in_.read_varint();
        if (marker != 0) {
          if (marker > objects_.size()) throw SerialError("bad object back-reference");
          return Value(objects_[marker - 1]);
        }
        if (!in_.read_bool()) return Value(std::shared_ptr<DynObject>{});
        const std::string type_name = read_pooled_string();
        const std::uint64_t hi = in_.read_u64();
        const std::uint64_t lo = in_.read_u64();
        auto obj = DynObject::make(type_name, util::Guid(hi, lo));
        objects_.push_back(obj);  // register before fields: cycles resolve
        const std::uint64_t field_count = in_.read_varint();
        for (std::uint64_t i = 0; i < field_count; ++i) {
          std::string field_name = read_pooled_string();
          obj->set(field_name, read_value());
        }
        return Value(std::move(obj));
      }
    }
    throw SerialError("unknown binary tag " +
                      std::to_string(static_cast<unsigned>(tag)));
  }

  ByteReader in_;
  std::size_t depth_ = 0;
  std::vector<std::string> strings_;
  std::vector<std::shared_ptr<DynObject>> objects_;
};

}  // namespace

std::vector<std::uint8_t> BinarySerializer::serialize(const Value& root) {
  Writer writer;
  return writer.write(root);
}

Value BinarySerializer::deserialize(std::span<const std::uint8_t> data) {
  try {
    Reader reader(data);
    return reader.read();
  } catch (const util::ByteBufferError& e) {
    throw SerialError(std::string("malformed binary payload: ") + e.what());
  }
}

}  // namespace pti::serial
