#pragma once

/// \file csv.hpp
/// Minimal CSV emission for experiment results, and the JSON string
/// escaper every JSON writer shares.

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace wakeup::util {

/// Escapes a field per RFC 4180 (quotes fields containing , " or newline).
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Escapes `text` for the inside of a JSON string: `"` and `\` get a
/// backslash, bytes below 0x20 become `\u00XX`; every other byte passes
/// through unchanged.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Streams rows to a CSV file.  The header is written on construction.
/// Cell values are formatted via the typed `cell` overloads; a row is
/// flushed with `end_row`.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits `header`. Throws std::runtime_error
  /// if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  CsvWriter& cell(std::string_view v);
  CsvWriter& cell(const char* v) { return cell(std::string_view(v)); }
  CsvWriter& cell(double v);
  CsvWriter& cell(std::uint64_t v);
  CsvWriter& cell(std::int64_t v);
  CsvWriter& cell(unsigned v) { return cell(static_cast<std::uint64_t>(v)); }
  CsvWriter& cell(int v) { return cell(static_cast<std::int64_t>(v)); }

  void end_row();

  /// Number of data rows fully written so far.
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

 private:
  std::ofstream out_;
  bool row_open_ = false;
  std::size_t rows_ = 0;
};

/// Creates `dir` (and parents) if needed; returns false on failure.
bool ensure_directory(const std::string& dir);

}  // namespace wakeup::util
