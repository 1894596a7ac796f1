#include "digest.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Splits one RFC 4180 line (quoted fields may hold ',' and '""').
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        fields.back() += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        fields.back() += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

bool is_ci_column(const std::string& name) {
  return name.find("_ci_lo") != std::string::npos || name.find("_ci_hi") != std::string::npos;
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

std::vector<std::uint64_t> simulation_digests(const std::string& csv_path) {
  std::istringstream in(read_file(csv_path));
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("empty report " + csv_path);
  const std::vector<std::string> header = split_csv(line);
  std::vector<std::uint64_t> digests;
  while (std::getline(in, line)) {
    const std::vector<std::string> fields = split_csv(line);
    if (fields.size() != header.size()) {
      throw std::runtime_error("malformed row in " + csv_path);
    }
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (is_ci_column(header[i])) continue;
      hash = fnv1a(fnv1a(hash, fields[i]), ",");
    }
    digests.push_back(hash);
  }
  return digests;
}

bool same_bytes(const std::string& a, const std::string& b) {
  return read_file(a) == read_file(b);
}

std::optional<std::vector<std::uint64_t>> load_pinned(const std::string& path,
                                                      const std::string& workload,
                                                      std::uint64_t seed) {
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t pinned_seed = 0;
    std::string list;
    if (!(fields >> name >> pinned_seed >> list)) {
      throw std::runtime_error("malformed pin line in " + path);
    }
    if (name != workload || pinned_seed != seed) continue;
    std::vector<std::uint64_t> digests;
    std::istringstream items(list);
    std::string hex;
    while (std::getline(items, hex, ',')) digests.push_back(std::stoull(hex, nullptr, 16));
    return digests;
  }
  return std::nullopt;
}

std::string pin_line(const std::string& workload, std::uint64_t seed,
                     const std::vector<std::uint64_t>& digests) {
  std::string line = workload + " " + std::to_string(seed) + " ";
  char hex[17];
  for (std::size_t i = 0; i < digests.size(); ++i) {
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digests[i]));
    line += (i == 0 ? "" : ",") + std::string(hex);
  }
  return line;
}

}  // namespace perfbench
