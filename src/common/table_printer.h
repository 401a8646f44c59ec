// Fixed-width text tables for the benchmark harness output.
//
// Every figure-reproduction bench prints its series as an aligned table so
// the rows can be compared directly against the paper's plots.

#pragma once

#include <string>
#include <vector>

namespace vos {

/// Collects rows of string cells and renders them with aligned columns.
///
/// Usage:
///   TablePrinter t({"dataset", "method", "AAPE"});
///   t.AddRow({"youtube_s", "VOS", "0.042"});
///   std::cout << t.ToString();
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends one data row; must have the same arity as the header.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats arithmetic cells with Format*() helpers below.
  size_t num_rows() const { return rows_.size(); }

  /// Renders the header, a separator, and all rows, right-aligning numeric
  /// columns (cells that parse fully as a double).
  std::string ToString() const;

  /// Formats `v` with `digits` significant digits (trailing-zero trimmed).
  static std::string FormatDouble(double v, int digits = 4);

  /// Formats an integer count.
  static std::string FormatInt(int64_t v);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vos
