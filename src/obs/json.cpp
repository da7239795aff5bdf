#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "util/assert.h"

namespace rtsmooth::obs {
namespace {

/// Recursive-descent parser over a string_view. Errors throw with the byte
/// offset, which is all a command-line forensics tool needs to point at the
/// broken spot of a one-line JSONL event. Nesting is capped so hostile
/// input cannot recurse the stack away; the deepest document the project
/// writes nests 6 levels.
class Parser {
 public:
  static constexpr int kMaxDepth = 128;

  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("Json::parse: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
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

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  /// `depth` counts the objects and arrays enclosing the value.
  Json parse_value(int depth) {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object(depth + 1);
      case '[':
        return parse_array(depth + 1);
      case '"':
        return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json(nullptr);
      default:
        return parse_number();
    }
  }

  void check_depth(int depth) const {
    if (depth > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
  }

  Json parse_object(int depth) {
    check_depth(depth);
    expect('{');
    Json obj = Json::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj[key] = parse_value(depth);
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array(int depth) {
    check_depth(depth);
    expect('[');
    Json arr = Json::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value(depth));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_code_point(out); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  void append_code_point(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
      if (!consume_literal("\\u")) fail("unpaired UTF-16 surrogate");
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired UTF-16 surrogate");
    }
    // UTF-8 encode.
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

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number");
    if (!is_double) {
      std::int64_t value = 0;
      const auto [end, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && end == token.data() + token.size()) {
        return Json(value);
      }
      // Out-of-range integers degrade to double rather than failing.
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || end != token.data() + token.size()) {
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void accessor_mismatch(const char* wanted) {
  throw std::runtime_error(std::string("Json: value is not ") + wanted);
}

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool Json::as_bool() const {
  if (kind_ != Kind::Bool) accessor_mismatch("a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ != Kind::Int) accessor_mismatch("an integer");
  return int_;
}

double Json::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ != Kind::Double) accessor_mismatch("a number");
  return double_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::String) accessor_mismatch("a string");
  return string_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &children_[i];
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* member = find(key);
  if (member == nullptr) {
    throw std::runtime_error("Json: no member \"" + std::string(key) + "\"");
  }
  return *member;
}

const Json& Json::at(std::size_t index) const {
  if (kind_ != Kind::Array || index >= children_.size()) {
    throw std::runtime_error("Json: array index " + std::to_string(index) +
                             " out of range");
  }
  return children_[index];
}

void Json::push_back(Json v) {
  RTS_EXPECTS(kind_ == Kind::Array || kind_ == Kind::Null);
  kind_ = Kind::Array;
  children_.push_back(std::move(v));
}

Json& Json::operator[](std::string_view key) {
  RTS_EXPECTS(kind_ == Kind::Object || kind_ == Kind::Null);
  kind_ = Kind::Object;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return children_[i];
  }
  keys_.emplace_back(key);
  children_.emplace_back();
  return children_.back();
}

void Json::append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += kHex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Json::append_int(std::string& out, std::int64_t v) {
  char buf[20];  // "-9223372036854775808"
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  RTS_ASSERT(ec == std::errc());
  out.append(buf, end);
}

void Json::append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  RTS_ASSERT(ec == std::errc());
  const std::string_view text(buf, static_cast<std::size_t>(end - buf));
  out += text;
  // Keep a double visibly a double ("3" would read back as an integer).
  if (text.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

void Json::append_bool(std::string& out, bool v) {
  out += v ? "true" : "false";
}

void Json::append_to(std::string& out) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      append_bool(out, bool_);
      break;
    case Kind::Int:
      append_int(out, int_);
      break;
    case Kind::Double:
      append_double(out, double_);
      break;
    case Kind::String:
      append_string(out, string_);
      break;
    case Kind::Raw:
      out += string_;
      break;
    case Kind::Array:
      out += '[';
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ',';
        children_[i].append_to(out);
      }
      out += ']';
      break;
    case Kind::Object:
      out += '{';
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ',';
        append_string(out, keys_[i]);
        out += ':';
        children_[i].append_to(out);
      }
      out += '}';
      break;
  }
}

std::string Json::dump() const {
  std::string out;
  append_to(out);
  return out;
}

void Json::write(std::ostream& os) const { os << dump(); }

}  // namespace rtsmooth::obs
