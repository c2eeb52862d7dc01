#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

#include "common/error.hpp"

namespace qspr {

namespace {
bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() && is_space(text[begin])) ++begin;
  std::size_t end = text.size();
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view text, char separator) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      fields.push_back(text.substr(start));
      return fields;
    }
    fields.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_whitespace(std::string_view text) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) fields.push_back(text.substr(start, i - start));
  }
  return fields;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string result;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result += separator;
    result += parts[i];
  }
  return result;
}

std::string to_upper(std::string_view text) {
  std::string result(text);
  for (char& c : result) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return result;
}

bool is_integer(std::string_view text) {
  if (text.empty()) return false;
  std::size_t i = (text[0] == '-' || text[0] == '+') ? 1 : 0;
  if (i == text.size()) return false;
  for (; i < text.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) return false;
  }
  return true;
}

long long parse_integer(std::string_view text) {
  long long value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw Error("malformed integer: '" + std::string(text) + "'");
  }
  return value;
}

int parse_int_flag(std::string_view flag, std::string_view text, int min,
                   int max) {
  const long long value = parse_integer(text);
  if (value < min || value > max) {
    throw Error(std::string(flag) + " must be in [" + std::to_string(min) +
                ", " + std::to_string(max) + "]");
  }
  return static_cast<int>(value);
}

double parse_real(std::string_view text) {
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw Error("malformed number: '" + std::string(text) + "'");
  }
  if (!std::isfinite(value)) {
    throw Error("number must be finite: '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace qspr
