// Console table and CSV emission used by every bench binary so the output
// visually matches the paper's tables.
#pragma once

#include <string>
#include <vector>

namespace dart::common {

/// Collects rows of string cells and prints them column-aligned, plus an
/// optional CSV mirror for plotting figures.
class TablePrinter {
 public:
  explicit TablePrinter(std::string title = "") : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);

  /// Renders the aligned table to stdout.
  void print() const;

  /// Writes the same content to `path` as CSV, each cell escaped by
  /// csv_quote (common/text.hpp). Returns false on I/O error.
  bool write_csv(const std::string& path) const;

  std::size_t num_rows() const { return rows_.size(); }

  /// Formats a double with `digits` decimals.
  static std::string fmt(double v, int digits = 3);
  /// Formats bytes with a unit suffix (e.g. "864.4K", "3.75M").
  static std::string fmt_bytes(double bytes);
  /// Formats a count with K/M suffix (e.g. "98.3M").
  static std::string fmt_count(double n);
  /// Formats a percentage with one decimal (e.g. "37.6%").
  static std::string fmt_pct(double frac, int digits = 1);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dart::common
