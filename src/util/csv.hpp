#pragma once
// Minimal CSV emitter used by the figure benches so results can be
// re-plotted.  Values are escaped per RFC 4180 when needed.

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hmr {

class CsvWriter {
public:
  /// Writes rows to `out`; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Emit the header row.  Must be called before any data row.
  void header(const std::vector<std::string>& columns);

  CsvWriter& field(std::string_view v);
  CsvWriter& field(double v);
  CsvWriter& field(std::uint64_t v);
  CsvWriter& field(std::int64_t v);
  CsvWriter& field(int v) { return field(static_cast<std::int64_t>(v)); }

  /// Terminate the current row.  Checks the field count matches the
  /// header (if one was written).
  void end_row();

private:
  void sep();

  std::ostream* out_;
  std::size_t n_columns_ = 0;
  std::size_t fields_in_row_ = 0;
};

/// Escape a single CSV value (quotes values containing , " or newline).
std::string csv_escape(std::string_view v);

/// Split one line of a CSV with no quoted fields on its commas, dropping
/// any '\r' (a CRLF file).
std::vector<std::string> csv_split(std::string_view line);

} // namespace hmr
