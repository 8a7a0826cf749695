// Fixed-width text table renderer for analyzer reports — produces the
// er_print-style listings shown in the paper's Figures 1-7.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "support/common.hpp"

namespace dsprof {

/// Column alignment in a rendered table.
enum class Align { Left, Right };

/// A simple text table: set headers, append rows of strings, render with
/// per-column widths computed from content.
class TextTable {
 public:
  /// `headers` may contain embedded '\n' for two-line headers.
  explicit TextTable(std::vector<std::string> headers, std::vector<Align> aligns = {});

  void add_row(std::vector<std::string> cells);

  /// Render with `indent` leading spaces on each line and two spaces between
  /// columns.
  std::string render(int indent = 0) const;

  size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::vector<std::string>> header_lines_;  // [line][col]
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
  size_t ncols_;
};

/// Format helpers used throughout the report code.
std::string fmt_fixed(double v, int decimals);
std::string fmt_percent(double fraction);     // 0.513 -> "51.3"
std::string fmt_count(u64 v);                 // grouped: 1580927631 -> "1,580,927,631"

/// The body of a JSON string literal for `s` (no surrounding quotes): quote
/// and backslash escaped, \n \r \t by name, other control bytes as \u00XX.
std::string json_escape(std::string_view s);

}  // namespace dsprof
