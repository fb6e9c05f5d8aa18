// Minimal strict JSON value: the parse/serialize substrate of the api layer
// (JobSpec/JobResult round-trips, the serve wire protocol).
//
// Deliberately small: a document is parsed into an owning tree of Json
// values; objects preserve insertion order (so dump() of a parsed document
// is stable) and reject duplicate keys; parse() consumes the whole input
// and throws pipad::Error on anything malformed — the daemon turns that
// into a clean {"ok":false} response instead of dying. Numbers are stored
// as double and dumped as the shortest decimal that parses back to the same
// double, so binary32 payloads (losses, params) widened to double keep their
// exact float bit pattern through the wire.
//
// This is the only JSON encoder in the tree: bench records, analyzer
// reports, JobResults and wire messages are all built as Json values, and
// every file-backed document goes through write_document().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pipad::api {

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double d) : type_(Type::Number), num_(d) {}
  Json(int v) : type_(Type::Number), num_(v) {}
  Json(long long v) : type_(Type::Number), num_(static_cast<double>(v)) {}
  Json(unsigned long v) : type_(Type::Number), num_(static_cast<double>(v)) {}
  Json(unsigned long long v)
      : type_(Type::Number), num_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }

  /// Parse a complete JSON document; throws pipad::Error with a position
  /// on malformed input, trailing garbage, duplicate object keys, or
  /// containers nested deeper than 128 levels (bounded recursion — wire
  /// input cannot overflow the stack).
  static Json parse(const std::string& text);

  /// Serialize compactly (no added whitespace), object keys in insertion
  /// order. Integral numbers print as integers; the rest print as the
  /// shortest round-trip decimal (611.6, not 611.60000000000002).
  std::string dump() const;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors; throw pipad::Error on a type mismatch so schema
  /// violations surface as validation errors, not UB.
  bool as_bool() const;
  double as_number() const;
  long long as_int() const;  ///< as_number(), checked integral + in range.
  const std::string& as_string() const;
  const std::vector<Json>& items() const;  ///< Array elements.
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Array append.
  void push_back(Json v);
  /// Object append (no key-uniqueness check here; parse() enforces it).
  void set(std::string key, Json v);
  /// Object lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Write `doc` (an object) to `path` one line per top-level member, and one
/// line per element of an array member, each value rendered by dump() — so
/// a bench document keeps one record per line and regenerated baselines
/// diff line by line. Throws pipad::Error when the file cannot be opened
/// or written.
void write_document(const std::string& path, const Json& doc);

}  // namespace pipad::api
