#include "util/csv.hpp"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

namespace wakeup::util {

std::string csv_escape(std::string_view field) {
  const bool needs_quote = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << csv_escape(header[i]);
  }
  out_ << '\n';
}

CsvWriter& CsvWriter::cell(std::string_view v) {
  if (row_open_) out_ << ',';
  out_ << csv_escape(v);
  row_open_ = true;
  return *this;
}

CsvWriter& CsvWriter::cell(double v) {
  std::ostringstream os;
  os << v;
  return cell(std::string_view(os.str()));
}

CsvWriter& CsvWriter::cell(std::uint64_t v) {
  if (row_open_) out_ << ',';
  out_ << v;
  row_open_ = true;
  return *this;
}

CsvWriter& CsvWriter::cell(std::int64_t v) {
  if (row_open_) out_ << ',';
  out_ << v;
  row_open_ = true;
  return *this;
}

void CsvWriter::end_row() {
  out_ << '\n';
  row_open_ = false;
  ++rows_;
}

bool ensure_directory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

}  // namespace wakeup::util
