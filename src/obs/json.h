#ifndef KGRAPH_OBS_JSON_H_
#define KGRAPH_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace kg::obs {

/// Escapes `text` for use inside a JSON string literal (quotes,
/// backslashes, and control characters; everything else passes through
/// byte-for-byte, so valid UTF-8 stays valid UTF-8).
std::string JsonEscape(std::string_view text);

/// Streaming compact-JSON builder. Every exposition sink and bench
/// report in the repo renders through this one writer, so escaping,
/// number formatting, and comma placement are decided in exactly one
/// place and every emitted document parses with `ParseJson`.
///
/// Usage is push-down: Begin/End pairs must nest correctly and object
/// members are written as `Key(...)` followed by one value. The writer
/// KG_CHECKs misuse (value without key inside an object, unbalanced
/// End) — malformed JSON is a programmer error, never an output.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Starts an object member; must be followed by exactly one value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  /// Fixed-point rendering with `digits` decimals — deterministic for
  /// equal doubles, matching the repo's FormatDouble convention.
  JsonWriter& Double(double value, int digits = 6);
  JsonWriter& Bool(bool value);
  /// Splices pre-rendered JSON (e.g. a nested document from another
  /// writer) as one value. The caller vouches for its validity.
  JsonWriter& Raw(std::string_view json);

  /// The finished document. KG_CHECKs that every container was closed.
  std::string Take();

 private:
  void BeforeValue();

  enum class Frame : uint8_t { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_;   // parallel to stack_: no comma needed yet
  bool expect_value_ = false; // a Key was written, value must follow
};

/// Parsed JSON document. Objects use std::map so iteration (and any
/// re-serialization) is deterministic regardless of input key order.
struct JsonValue {
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  Array array;
  Object object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_bool() const { return type == Type::kBool; }

  /// Member lookup; null when absent or this is not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// Strict recursive-descent parse of one JSON document (trailing
/// whitespace allowed, trailing garbage rejected). Used by the
/// round-trip tests that hold every BENCH_*.json writer to the shared
/// schema.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace kg::obs

#endif  // KGRAPH_OBS_JSON_H_
