// Minimal JSON value type for machine-readable output and forensics input:
// the JSONL run tracer, registry snapshots, the BENCH_*.json bench reports,
// and — since the flight-recorder work — parsing incident reports and JSONL
// step traces back in (Json::parse) so the Chrome-trace exporter and
// examples/trace_inspector can consume what the simulator emitted.
//
// Two properties matter more than generality:
//
//   * object keys keep *insertion order*, so a document built by the same
//     code path is byte-stable across runs, platforms and thread counts —
//     the golden-file tests and the threads=N == serial determinism
//     contract (DESIGN.md Sect. 9) compare dumped strings directly;
//   * numbers round-trip: integers print exactly, doubles print the
//     shortest decimal that parses back to the same value (to_chars), and
//     parse() keeps the int/double distinction the writer made.
//
// The writer appends to one std::string through four scalar appenders
// (string, int, double, bool). They are public so that a hot document can
// be written straight into a string without building a tree first
// (Timeline::dump), with bytes that cannot drift from dump()'s. Such a
// pre-serialized document rejoins a tree as a Json::raw fragment, which
// dump() emits verbatim.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rtsmooth::obs {

/// One JSON value: null, bool, integer, double, string, array, an
/// insertion-ordered object, or a raw (pre-serialized) fragment. Build with
/// the constructors plus push_back() (arrays) and operator[] (objects);
/// serialize with dump() / write().
class Json {
 public:
  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}  // NOLINT
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Json(T v)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : kind_(Kind::Double), double_(v) {}           // NOLINT
  Json(const char* s) : kind_(Kind::String), string_(s) {}      // NOLINT
  Json(std::string s)                                           // NOLINT
      : kind_(Kind::String), string_(std::move(s)) {}
  Json(std::string_view s) : kind_(Kind::String), string_(s) {}  // NOLINT

  static Json array() {
    Json j;
    j.kind_ = Kind::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::Object;
    return j;
  }
  /// A pre-serialized value that dump() emits verbatim. The caller vouches
  /// that `text` is one JSON value (the publish path splices the timeline's
  /// series this way); parse() never makes one, and every accessor throws
  /// on it like on any other kind mismatch.
  static Json raw(std::string text) {
    Json j;
    j.kind_ = Kind::Raw;
    j.string_ = std::move(text);
    return j;
  }

  /// Parses one JSON value (UTF-8, RFC 8259 subset: no duplicate-key
  /// detection). Throws std::runtime_error with the byte offset of the
  /// first error; trailing non-whitespace after the value is an error too,
  /// and so is nesting objects and arrays more than 128 levels deep.
  static Json parse(std::string_view text);

  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_int() const { return kind_ == Kind::Int; }
  bool is_double() const { return kind_ == Kind::Double; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  // Read accessors for parsed documents. All throw std::runtime_error on a
  // kind mismatch — forensic tools prefer a message over an abort when fed
  // a file that doesn't match the schema they expect.
  bool as_bool() const;
  std::int64_t as_int() const;     ///< Int only (a double 3.0 is not an int)
  double as_double() const;        ///< Int or Double
  const std::string& as_string() const;

  /// Object member lookup; nullptr when absent or when this is not an
  /// object. The only non-throwing probe, for optional keys.
  const Json* find(std::string_view key) const;
  /// Object member access; throws std::runtime_error naming the missing key.
  const Json& at(std::string_view key) const;
  /// Array element access; throws std::runtime_error on out-of-range.
  const Json& at(std::size_t index) const;

  /// Object keys in insertion order (empty for non-objects).
  const std::vector<std::string>& keys() const { return keys_; }
  /// Array elements / object values in insertion order.
  const std::vector<Json>& items() const { return children_; }

  /// Array append. A default-constructed (null) value promotes to an array
  /// on first push, so `Json rows; rows.push_back(...)` works.
  void push_back(Json v);

  /// Object member access: inserts a null member on first use, preserving
  /// insertion order. A null value promotes to an object on first use.
  Json& operator[](std::string_view key);

  std::size_t size() const { return children_.size(); }

  /// Serializes compactly (no whitespace), keys in insertion order.
  std::string dump() const;
  /// Writes dump()'s bytes.
  void write(std::ostream& os) const;

  // The scalar writers dump() is made of, each appending to `out`.
  /// Quoted, with quotes, backslashes and control characters escaped.
  static void append_string(std::string& out, std::string_view s);
  static void append_int(std::string& out, std::int64_t v);
  /// Shortest round-trip form, kept visibly a double ("3.0"); non-finite
  /// values, which JSON cannot represent, become null.
  static void append_double(std::string& out, double v);
  static void append_bool(std::string& out, bool v);

  bool operator==(const Json&) const = default;

 private:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object, Raw };

  void append_to(std::string& out) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;            ///< string value / raw fragment text
  std::vector<Json> children_;    ///< array elements / object values
  std::vector<std::string> keys_; ///< object keys, parallel to children_
};

}  // namespace rtsmooth::obs
