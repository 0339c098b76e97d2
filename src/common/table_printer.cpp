#include "common/table_printer.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/text.hpp"

namespace dart::common {

void TablePrinter::set_header(std::vector<std::string> header) { header_ = std::move(header); }

void TablePrinter::add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

void TablePrinter::print() const {
  std::vector<std::size_t> widths;
  auto grow = [&](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  grow(header_);
  for (const auto& r : rows_) grow(r);

  if (!title_.empty()) std::printf("== %s ==\n", title_.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s", static_cast<int>(widths[i] + 2), row[i].c_str());
    }
    std::printf("\n");
  };
  if (!header_.empty()) {
    print_row(header_);
    std::size_t total = 0;
    for (auto w : widths) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
  }
  for (const auto& r : rows_) print_row(r);
  std::printf("\n");
}

bool TablePrinter::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  auto write_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << csv_quote(row[i]);
    }
    out << '\n';
  };
  if (!header_.empty()) write_row(header_);
  for (const auto& r : rows_) write_row(r);
  return static_cast<bool>(out);
}

std::string TablePrinter::fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string TablePrinter::fmt_bytes(double bytes) {
  char buf[64];
  if (bytes >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", bytes / 1e9);
  } else if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", bytes / 1e6);
  } else if (bytes >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", bytes / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", bytes);
  }
  return buf;
}

std::string TablePrinter::fmt_count(double n) {
  char buf[64];
  if (n >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fG", n / 1e9);
  } else if (n >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", n / 1e6);
  } else if (n >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", n / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", n);
  }
  return buf;
}

std::string TablePrinter::fmt_pct(double frac, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", digits, frac * 100.0);
  return buf;
}

}  // namespace dart::common
