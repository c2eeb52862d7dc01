// Minimal JSON support shared by the benchmark trajectory files
// (BENCH_*.json) and the batch mapping service's JSONL output: a streaming
// writer and a small recursive-descent reader.
//
// The reader parses a full JSON document into a JsonValue tree; it exists so
// consumers (the bench perf gate, the batch tests) stop scraping JSON with
// string find + strtod — which silently mis-reads reordered fields — and
// instead fail loudly on malformed input. It is not a general-purpose
// library: no \uXXXX decoding beyond pass-through, numbers as double.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qspr {

/// One parsed JSON value. Object member order is preserved.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }

  /// Typed accessors; throw qspr::Error when the kind does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;

  /// Object member by key, or nullptr (also for non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Convenience lookups with fallbacks (nullptr-safe on missing keys).
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Guard rails for parsing untrusted wire input (the serve request codec).
/// Every limit fails with a clean ParseError, never unbounded recursion or
/// allocation: max_depth bounds container nesting (the recursion depth of
/// the parser), max_bytes rejects documents over the byte budget before a
/// single byte is parsed (0 = no byte budget). The defaults protect every
/// caller against stack exhaustion while staying far above anything the
/// writer emits.
struct JsonLimits {
  std::size_t max_bytes = 0;
  int max_depth = 128;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Throws ParseError with line/column on malformed input, including input
/// that violates `limits`.
JsonValue parse_json(std::string_view text, const JsonLimits& limits = {});

/// Streaming JSON writer, just enough for flat-ish machine-readable reports:
/// objects, arrays, string/number/bool scalars, correct comma placement.
class JsonWriter {
 public:
  [[nodiscard]] std::string str() const { return out_.str(); }

  JsonWriter& begin_object() {
    separate();
    out_ << "{";
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& end_object() {
    out_ << "}";
    stack_.pop_back();
    return *this;
  }
  JsonWriter& begin_array() {
    separate();
    out_ << "[";
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& end_array() {
    out_ << "]";
    stack_.pop_back();
    return *this;
  }

  JsonWriter& key(const std::string& name) {
    separate();
    out_ << '"' << escape(name) << "\":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) {
    separate();
    out_ << '"' << escape(v) << '"';
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v) {
    separate();
    std::ostringstream number;
    number.precision(15);
    number << v;
    out_ << number.str();
    return *this;
  }
  JsonWriter& value(long long v) {
    separate();
    out_ << v;
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(std::size_t v) {
    return value(static_cast<long long>(v));
  }
  JsonWriter& value(bool v) {
    separate();
    out_ << (v ? "true" : "false");
    return *this;
  }

  template <typename T>
  JsonWriter& field(const std::string& name, const T& v) {
    return key(name).value(v);
  }

 private:
  static std::string escape(const std::string& s) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string escaped;
    escaped.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"': escaped += "\\\""; break;
        case '\\': escaped += "\\\\"; break;
        case '\n': escaped += "\\n"; break;
        case '\t': escaped += "\\t"; break;
        default:
          // Remaining control characters must be \u-escaped or the output
          // is not JSON — error diagnostics can carry arbitrary input
          // bytes (e.g. a binary file misnamed .qasm) into JSONL records.
          if (static_cast<unsigned char>(c) < 0x20) {
            escaped += "\\u00";
            escaped += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
            escaped += kHex[static_cast<unsigned char>(c) & 0xf];
          } else {
            escaped += c;
          }
      }
    }
    return escaped;
  }

  /// Emits the comma before a sibling; the first element of a container and
  /// the value right after a key are comma-free.
  void separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!stack_.empty()) {
      if (stack_.back()) out_ << ",";
      stack_.back() = true;
    }
  }

  std::ostringstream out_;
  std::vector<bool> stack_;  // per open container: "has emitted an element"
  bool pending_value_ = false;
};

}  // namespace qspr
