// Small string helpers shared by the QASM and fabric text parsers and the
// report writers. Kept deliberately minimal; no locale dependence.
#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace qspr {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Splits on `separator`, keeping empty fields.
std::vector<std::string_view> split(std::string_view text, char separator);

/// Splits on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string_view> split_whitespace(std::string_view text);

/// Joins `parts` with `separator`.
std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// ASCII upper-case copy.
std::string to_upper(std::string_view text);

/// True if `text` parses fully as a (possibly negative) decimal integer.
bool is_integer(std::string_view text);

/// Parses a decimal integer; throws qspr::Error on malformed input.
long long parse_integer(std::string_view text);

/// Parses the value of the integer command-line flag `flag`, checking that
/// it lies in [min, max] before it narrows to int, so an out-of-range value
/// can never wrap into an accepted one. Throws qspr::Error naming the flag
/// and the range otherwise.
int parse_int_flag(std::string_view flag, std::string_view text, int min,
                   int max = std::numeric_limits<int>::max());

/// Parses a finite decimal real number (e.g. "1.5"); throws qspr::Error on
/// malformed input and on "inf", "nan" and their variants.
double parse_real(std::string_view text);

}  // namespace qspr
