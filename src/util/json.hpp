// Minimal JSON value type, parser and writer.
//
// The campaign subsystem stores scenario specs and results as JSON (one
// object per line in the JSONL result store), and campaign definitions are
// read from .json files.  The container must stay dependency-free, so this
// is a small, strict RFC-8259 subset implementation:
//
//   * objects are std::map-backed, so dumps are canonical (keys sorted) —
//     a requirement for stable scenario fingerprints and diffable stores;
//   * integers that fit in 64 bits round-trip exactly (doubles are only
//     used for values written with a fraction/exponent);
//   * parse errors throw std::invalid_argument with a byte offset, and so
//     does nesting deeper than Json::kMaxDepth arrays/objects.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace dring::util {

class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(int v) : type_(Type::Int), int_(v) {}
  Json(long v) : type_(Type::Int), int_(v) {}
  Json(long long v) : type_(Type::Int), int_(v) {}
  Json(double v) : type_(Type::Double), double_(v) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Json(Array a) : type_(Type::Array), array_(std::move(a)) {}
  Json(Object o) : type_(Type::Object), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const {
    return type_ == Type::Int || type_ == Type::Double;
  }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const {
    require(Type::Bool, "bool");
    return bool_;
  }
  /// Numeric accessor; exact for values parsed without fraction/exponent.
  std::int64_t as_int() const {
    if (type_ == Type::Double) return static_cast<std::int64_t>(double_);
    require(Type::Int, "number");
    return int_;
  }
  double as_double() const {
    if (type_ == Type::Int) return static_cast<double>(int_);
    require(Type::Double, "number");
    return double_;
  }
  const std::string& as_string() const {
    require(Type::String, "string");
    return string_;
  }
  const Array& as_array() const {
    require(Type::Array, "array");
    return array_;
  }
  const Object& as_object() const {
    require(Type::Object, "object");
    return object_;
  }
  Array& as_array() {
    require(Type::Array, "array");
    return array_;
  }
  Object& as_object() {
    require(Type::Object, "object");
    return object_;
  }

  // --- object conveniences ---------------------------------------------------
  bool has(const std::string& key) const {
    return is_object() && object_.count(key) > 0;
  }
  /// Member lookup; throws if absent.
  const Json& at(const std::string& key) const;
  /// Member lookup with defaults for absent keys.
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;
  std::string get_string(const std::string& key, const std::string& def) const;

  /// Insert/overwrite an object member (value becomes an Object if Null).
  void set(const std::string& key, Json value);

  // --- serialization ---------------------------------------------------------
  /// Compact canonical dump: no whitespace, object keys in sorted order,
  /// integers without exponent. Two equal values always dump identically.
  std::string dump() const;

  /// Deepest array/object nesting parse() accepts.
  static constexpr std::size_t kMaxDepth = 256;

  /// Strict parse of a complete JSON document.
  /// Throws std::invalid_argument on any syntax error or trailing garbage.
  static Json parse(const std::string& text);

 private:
  void require(Type t, const char* what) const {
    if (type_ != t)
      throw std::invalid_argument(std::string("json: value is not a ") + what);
  }
  void dump_to(std::string& out) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace dring::util
