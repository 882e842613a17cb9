#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dring::util {

const Json& Json::at(const std::string& key) const {
  require(Type::Object, "object");
  const auto it = object_.find(key);
  if (it == object_.end())
    throw std::invalid_argument("json: missing key \"" + key + "\"");
  return it->second;
}

std::int64_t Json::get_int(const std::string& key, std::int64_t def) const {
  return has(key) ? at(key).as_int() : def;
}

double Json::get_double(const std::string& key, double def) const {
  return has(key) ? at(key).as_double() : def;
}

bool Json::get_bool(const std::string& key, bool def) const {
  return has(key) ? at(key).as_bool() : def;
}

std::string Json::get_string(const std::string& key,
                             const std::string& def) const {
  return has(key) ? at(key).as_string() : def;
}

void Json::set(const std::string& key, Json value) {
  if (type_ == Type::Null) type_ = Type::Object;
  require(Type::Object, "object");
  object_[key] = std::move(value);
}

// --- writer -------------------------------------------------------------------

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

}  // namespace

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += bool_ ? "true" : "false"; return;
    case Type::Int: out += std::to_string(int_); return;
    case Type::Double: {
      if (std::isfinite(double_)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        out += buf;
      } else {
        out += "null";  // JSON has no inf/nan
      }
      return;
    }
    case Type::String: dump_string(string_, out); return;
    case Type::Array: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        array_[i].dump_to(out);
      }
      out += ']';
      return;
    }
    case Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        dump_string(key, out);
        out += ':';
        value.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// --- parser -------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_keyword(const char* kw) {
    const std::size_t len = std::char_traits<char>::length(kw);
    if (text_.compare(pos_, len, kw) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_keyword("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_keyword("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_keyword("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  /// Bounds the recursion of parse_object/parse_array so a deeply nested
  /// line fails with a parse error instead of overflowing the stack.
  /// Scalars never touch it.
  struct NestingGuard {
    explicit NestingGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > Json::kMaxDepth)
        parser.fail("nesting deeper than " + std::to_string(Json::kMaxDepth));
    }
    ~NestingGuard() { --parser.depth_; }
    Parser& parser;
  };

  Json parse_object() {
    const NestingGuard guard(*this);
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    const NestingGuard guard(*this);
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20)
          fail("unescaped control character in string");
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape");
          }
          // Encode the code point as UTF-8 (surrogate pairs unsupported;
          // the store only ever writes ASCII control escapes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("invalid number");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] = std::from_chars(first, last, value);
      if (ec == std::errc() && ptr == last) return Json(value);
      // fall through to double on int64 overflow
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) fail("invalid number");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace dring::util
