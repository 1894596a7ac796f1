#include "mac/pattern_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace wakeup::mac {

void write_pattern_csv(std::ostream& os, const WakePattern& pattern) {
  os << "station,wake\n";
  for (const Arrival& a : pattern.arrivals()) {
    os << a.station << ',' << a.wake << '\n';
  }
}

namespace {

/// Parses `field` whole into `out`, less the spaces, tabs and CRs around
/// it: no sign where T has none, no other characters, nothing out of range.
template <class T>
bool parse_field(std::string_view field, T& out) {
  const auto first = field.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return false;
  const char* end = field.data() + field.find_last_not_of(" \t\r") + 1;
  const auto [ptr, ec] = std::from_chars(field.data() + first, end, out);
  return ec == std::errc{} && ptr == end;
}

/// The "station,slot" rows of a CSV, skipping blank lines, '#' comments and
/// a header: exactly two fields, the station parsed into 32 bits and the
/// slot into a Slot.  `reader` and `columns` name the caller in its errors.
std::vector<Arrival> read_rows(std::istream& is, const std::string& reader,
                               const std::string& columns) {
  std::vector<Arrival> rows;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    if (line.find("station") != std::string::npos) continue;  // header
    const auto fail = [&](const std::string& what) {
      return std::runtime_error(reader + ": line " + std::to_string(line_no) + ": " + what);
    };
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos || line.find(',', comma + 1) != std::string::npos)
      throw fail("expected '" + columns + "'");
    const std::string_view row = line;
    Arrival arrival;
    if (!parse_field(row.substr(0, comma), arrival.station) ||
        !parse_field(row.substr(comma + 1), arrival.wake))
      throw fail("non-numeric field");
    rows.push_back(arrival);
  }
  return rows;
}

}  // namespace

WakePattern read_pattern_csv(std::istream& is, std::uint32_t n) {
  return WakePattern(n, read_rows(is, "read_pattern_csv", "station,wake"));
}

DynamicScenario read_arrivals_csv(std::istream& is, std::uint32_t n, Slot horizon) {
  std::vector<Arrival> packets = read_rows(is, "read_arrivals_csv", "station,slot");
  if (horizon <= 0) {  // the tightest horizon covering the trace
    Slot max_slot = -1;
    for (const Arrival& p : packets) max_slot = std::max(max_slot, p.wake);
    if (max_slot == std::numeric_limits<Slot>::max())
      throw std::runtime_error("read_arrivals_csv: slot " + std::to_string(max_slot) +
                               " leaves no horizon");
    horizon = max_slot + 1;
  }
  return DynamicScenario(n, horizon, std::move(packets));
}

DynamicScenario load_arrivals_csv(const std::string& path, std::uint32_t n, Slot horizon) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_arrivals_csv: cannot open " + path);
  return read_arrivals_csv(in, n, horizon);
}

void write_arrivals_csv(std::ostream& os, const DynamicScenario& scenario) {
  os << "station,slot\n";
  for (const Arrival& packet : scenario.packets()) {
    os << packet.station << ',' << packet.wake << '\n';
  }
}

void save_arrivals_csv(const std::string& path, const DynamicScenario& scenario) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_arrivals_csv: cannot open " + path);
  write_arrivals_csv(out, scenario);
}

void save_pattern_csv(const std::string& path, const WakePattern& pattern) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_pattern_csv: cannot open " + path);
  write_pattern_csv(out, pattern);
}

WakePattern load_pattern_csv(const std::string& path, std::uint32_t n) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_pattern_csv: cannot open " + path);
  return read_pattern_csv(in, n);
}

}  // namespace wakeup::mac
