// Column-aligned ASCII tables for experiment reports (the bench harness
// prints the paper's Table 1 / Table 2 rows with these).
#pragma once

#include <string>
#include <vector>

namespace qspr {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Adds one row; must have as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Inserts a horizontal rule before the next added row.
  void add_separator();

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> separators_;  // row indices preceded by a rule
};

/// Fixed-point formatting without locale surprises, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double value, int decimals);

/// "12.3%" style percentage of `part` relative to `whole`.
std::string format_percent(double part, double whole, int decimals = 1);

}  // namespace qspr
