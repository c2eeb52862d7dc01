#include "common/json.hpp"

#include <cctype>
#include <cstdlib>

#include "common/error.hpp"

namespace qspr {

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) throw Error("JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::Number) throw Error("JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) throw Error("JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::Array) throw Error("JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::Object) throw Error("JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* value = find(key);
  return value != nullptr && value->kind_ == Kind::Number ? value->number_
                                                          : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* value = find(key);
  return value != nullptr && value->kind_ == Kind::String ? value->string_
                                                          : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* value = find(key);
  return value != nullptr && value->kind_ == Kind::Bool ? value->bool_
                                                        : fallback;
}

/// Recursive-descent parser over a string_view with line/column tracking.
class JsonParser {
 public:
  JsonParser(std::string_view text, const JsonLimits& limits)
      : text_(text), limits_(limits) {}

  JsonValue parse_document() {
    if (limits_.max_bytes > 0 && text_.size() > limits_.max_bytes) {
      // Checked before parsing anything: a byte-budget violation must cost
      // O(1), not a walk over an attacker-sized document.
      fail("document exceeds byte budget (" + std::to_string(text_.size()) +
           " > " + std::to_string(limits_.max_bytes) + " bytes)");
    }
    JsonValue value = parse_value();
    skip_whitespace();
    if (at_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("JSON: " + message, line_, column_);
  }

  [[nodiscard]] bool eof() const { return at_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[at_]; }

  char take() {
    const char c = text_[at_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void skip_whitespace() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      take();
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    take();
  }

  bool consume_keyword(std::string_view word) {
    if (text_.substr(at_, word.size()) != word) return false;
    for (std::size_t i = 0; i < word.size(); ++i) take();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue value;
      value.kind_ = JsonValue::Kind::String;
      value.string_ = parse_string();
      return value;
    }
    if (c == 't' || c == 'f') {
      JsonValue value;
      value.kind_ = JsonValue::Kind::Bool;
      if (consume_keyword("true")) {
        value.bool_ = true;
      } else if (consume_keyword("false")) {
        value.bool_ = false;
      } else {
        fail("invalid literal");
      }
      return value;
    }
    if (c == 'n') {
      if (!consume_keyword("null")) fail("invalid literal");
      return JsonValue{};
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  /// Containers recurse through parse_value; the depth counter bounds that
  /// recursion so `[[[[...` fails cleanly instead of exhausting the stack.
  void enter_container() {
    if (++depth_ > limits_.max_depth) {
      fail("nesting deeper than " + std::to_string(limits_.max_depth) +
           " levels");
    }
  }

  JsonValue parse_object() {
    expect('{');
    enter_container();
    JsonValue value;
    value.kind_ = JsonValue::Kind::Object;
    skip_whitespace();
    if (!eof() && peek() == '}') {
      take();
      --depth_;
      return value;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.members_.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        take();
        continue;
      }
      expect('}');
      --depth_;
      return value;
    }
  }

  JsonValue parse_array() {
    expect('[');
    enter_container();
    JsonValue value;
    value.kind_ = JsonValue::Kind::Array;
    skip_whitespace();
    if (!eof() && peek() == ']') {
      take();
      --depth_;
      return value;
    }
    for (;;) {
      value.items_.push_back(parse_value());
      skip_whitespace();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        take();
        continue;
      }
      expect(']');
      --depth_;
      return value;
    }
  }

  std::string parse_string() {
    if (eof() || peek() != '"') fail("expected string");
    take();
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char escaped = take();
      switch (escaped) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // Decode ASCII-range escapes (all the writer ever emits — control
          // characters in error diagnostics); pass anything wider through
          // verbatim rather than implementing full UTF-16 surrogates.
          int code = 0;
          char digits[4] = {};
          for (int i = 0; i < 4; ++i) {
            if (eof() ||
                !std::isxdigit(static_cast<unsigned char>(peek()))) {
              fail("malformed \\u escape");
            }
            digits[i] = take();
            const char d = static_cast<char>(
                std::tolower(static_cast<unsigned char>(digits[i])));
            code = code * 16 + (d <= '9' ? d - '0' : d - 'a' + 10);
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            out += "\\u";
            out.append(digits, 4);
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = at_;
    if (!eof() && peek() == '-') take();
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) take();
    if (!eof() && peek() == '.') {
      take();
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        take();
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      take();
      if (!eof() && (peek() == '+' || peek() == '-')) take();
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        take();
      }
    }
    const std::string token(text_.substr(start, at_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') fail("malformed number");
    JsonValue value;
    value.kind_ = JsonValue::Kind::Number;
    value.number_ = parsed;
    return value;
  }

  std::string_view text_;
  JsonLimits limits_;
  std::size_t at_ = 0;
  int depth_ = 0;
  int line_ = 1;
  int column_ = 1;
};

JsonValue parse_json(std::string_view text, const JsonLimits& limits) {
  return JsonParser(text, limits).parse_document();
}

}  // namespace qspr
