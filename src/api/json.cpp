#include "api/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/error.hpp"

namespace pipad::api {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw Error("json: " + what + " at offset " + std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail(pos_, "trailing characters");
    return v;
  }

 private:
  /// Containers nest by recursing parse_value; a depth cap keeps a
  /// megabyte of '[' from overflowing the stack — wire input must fail
  /// with an Error, never crash the daemon.
  static constexpr int kMaxDepth = 128;

  struct DepthGuard {
    explicit DepthGuard(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth) {
        fail(p_.pos_, "nesting deeper than " + std::to_string(kMaxDepth) +
                          " levels");
      }
    }
    ~DepthGuard() { --p_.depth_; }
    Parser& p_;
  };

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail(pos_, "unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': {
        const DepthGuard guard(*this);
        return parse_object();
      }
      case '[': {
        const DepthGuard guard(*this);
        return parse_array();
      }
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail(pos_, "invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail(pos_, "invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail(pos_, "invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail(pos_, "expected object key");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) fail(pos_, "duplicate key \"" + key + "\"");
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > s_.size()) fail(pos_, "truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail(pos_ - 1, "invalid \\u escape");
      }
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail(pos_, "unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "unescaped control character");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail(pos_, "truncated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 >= s_.size() || s_[pos_] != '\\' ||
                s_[pos_ + 1] != 'u') {
              fail(pos_, "unpaired surrogate");
            }
            pos_ += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail(pos_, "invalid surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail(pos_, "unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail(pos_ - 1, "invalid escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_digits = digits();
    if (int_digits == 0) fail(pos_, "invalid number");
    // No leading zeros ("007").
    if (int_digits > 1 && s_[start + (s_[start] == '-' ? 1 : 0)] == '0') {
      fail(start, "leading zero");
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail(pos_, "invalid number");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail(pos_, "invalid number");
    }
    const std::string tok = s_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || errno == ERANGE ||
        !std::isfinite(v)) {
      fail(start, "number out of range");
    }
    return Json(v);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void dump_number(std::string& out, double v) {
  // Integers (the common case: ids, counts, versions) print exactly;
  // everything else gets a round-trippable double rendering.
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void dump_value(std::string& out, const Json& v) {
  switch (v.type()) {
    case Json::Type::Null:
      out += "null";
      break;
    case Json::Type::Bool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Json::Type::Number:
      dump_number(out, v.as_number());
      break;
    case Json::Type::String:
      out += json_quote(v.as_string());
      break;
    case Json::Type::Array: {
      out.push_back('[');
      bool first = true;
      for (const auto& e : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(out, e);
      }
      out.push_back(']');
      break;
    }
    case Json::Type::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, e] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        out += json_quote(k);
        out.push_back(':');
        dump_value(out, e);
      }
      out.push_back('}');
      break;
    }
  }
}

[[noreturn]] void type_error(const char* want, Json::Type got) {
  static const char* names[] = {"null",   "bool",  "number",
                                "string", "array", "object"};
  throw Error(std::string("json: expected ") + want + ", got " +
              names[static_cast<int>(got)]);
}

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::string Json::dump() const {
  std::string out;
  dump_value(out, *this);
  return out;
}

bool Json::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::Number) type_error("number", type_);
  return num_;
}

long long Json::as_int() const {
  const double v = as_number();
  const auto i = static_cast<long long>(v);
  if (static_cast<double>(i) != v) throw Error("json: expected integer");
  return i;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return str_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::Array) type_error("array", type_);
  return arr_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::Object) type_error("object", type_);
  return obj_;
}

void Json::push_back(Json v) {
  if (type_ != Type::Array) type_error("array", type_);
  arr_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  if (type_ != Type::Object) type_error("object", type_);
  obj_.emplace_back(std::move(key), std::move(v));
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void write_document(const std::string& path, const Json& doc) {
  std::string out = "{\n";
  const auto& members = doc.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto& [key, value] = members[i];
    out += "  " + json_quote(key) + ": ";
    if (value.is_array() && !value.items().empty()) {
      out += "[\n";
      const auto& items = value.items();
      for (std::size_t k = 0; k < items.size(); ++k) {
        out += "    " + items[k].dump();
        out += k + 1 < items.size() ? ",\n" : "\n";
      }
      out += "  ]";
    } else {
      out += value.dump();
    }
    out += i + 1 < members.size() ? ",\n" : "\n";
  }
  out += "}\n";
  std::ofstream os(path);
  if (!os) throw Error("cannot open " + path + " for writing");
  os << out;
  os.flush();  // Surface buffered write errors (ENOSPC) here, not later.
  if (!os) throw Error("write failed: " + path);
}

}  // namespace pipad::api
