#include "util/csv.hpp"

#include <cstdio>

#include "util/check.hpp"

namespace hmr {

std::string csv_escape(std::string_view v) {
  const bool needs_quote =
      v.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(v);
  std::string out;
  out.reserve(v.size() + 2);
  out.push_back('"');
  for (char c : v) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::vector<std::string> csv_split(std::string_view line) {
  std::vector<std::string> out(1);
  for (const char ch : line) {
    if (ch == ',') {
      out.emplace_back();
    } else if (ch != '\r') {
      out.back().push_back(ch);
    }
  }
  return out;
}

void CsvWriter::header(const std::vector<std::string>& columns) {
  HMR_CHECK_MSG(n_columns_ == 0, "CSV header written twice");
  HMR_CHECK(!columns.empty());
  n_columns_ = columns.size();
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) *out_ << ',';
    *out_ << csv_escape(columns[i]);
  }
  *out_ << '\n';
}

void CsvWriter::sep() {
  if (fields_in_row_) *out_ << ',';
  ++fields_in_row_;
}

CsvWriter& CsvWriter::field(std::string_view v) {
  sep();
  *out_ << csv_escape(v);
  return *this;
}

CsvWriter& CsvWriter::field(double v) {
  sep();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  *out_ << buf;
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t v) {
  sep();
  *out_ << v;
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t v) {
  sep();
  *out_ << v;
  return *this;
}

void CsvWriter::end_row() {
  if (n_columns_ != 0) {
    HMR_CHECK_MSG(fields_in_row_ == n_columns_,
                  "CSV row width differs from header");
  }
  *out_ << '\n';
  fields_in_row_ = 0;
}

} // namespace hmr
