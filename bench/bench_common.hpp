#pragma once

/// Shared plumbing for the experiment benches: a ready thread pool, the
/// protocol-by-name cell helper, and the machine-readable JSON report that
/// tracks the perf trajectory (BENCH_<name>.json) alongside the console
/// tables and CSVs.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "wakeup/wakeup.hpp"

namespace wakeup::bench {

inline util::ThreadPool& pool() { return util::ThreadPool::shared(); }

/// Peak resident set size of this process in bytes (0 when unavailable).
/// Recorded into every JSON report so the memory trajectory — the whole
/// point of the implicit-family work — is tracked alongside throughput.
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
  }
#endif
  return 0;
}

/// One JSON scalar: number or string (bools become 0/1 numbers), plus a
/// raw passthrough for pre-rendered JSON (nested objects such as the
/// optional per-row `metrics` field, see `raw_json`).
struct JsonValue {
  enum class Kind { kNumber, kInteger, kString, kRaw } kind;
  double num = 0;
  std::uint64_t integer = 0;
  std::string str;

  JsonValue(double v) : kind(Kind::kNumber), num(v) {}                       // NOLINT
  JsonValue(int v) : kind(Kind::kInteger), integer(std::uint64_t(v)) {}      // NOLINT
  JsonValue(unsigned v) : kind(Kind::kInteger), integer(v) {}                // NOLINT
  JsonValue(std::uint64_t v) : kind(Kind::kInteger), integer(v) {}           // NOLINT
  JsonValue(bool v) : kind(Kind::kInteger), integer(v ? 1 : 0) {}            // NOLINT
  JsonValue(const char* v) : kind(Kind::kString), str(v) {}                  // NOLINT
  JsonValue(std::string v) : kind(Kind::kString), str(std::move(v)) {}       // NOLINT

  void emit(std::ostream& out) const {
    char buf[40];
    switch (kind) {
      case Kind::kRaw:
        out << str;
        return;
      case Kind::kNumber:
        if (!std::isfinite(num)) {  // JSON has no inf/nan token
          out << "null";
          return;
        }
        std::snprintf(buf, sizeof buf, "%.9g", num);
        out << buf;
        return;
      case Kind::kInteger:
        out << integer;
        return;
      case Kind::kString:
        out << '"' << util::json_escape(str) << '"';
        return;
    }
  }
};

using JsonFields = std::vector<std::pair<std::string, JsonValue>>;

/// Wraps already-rendered JSON so it embeds verbatim — the vehicle for the
/// optional `metrics` object on a report row:
/// `fields.emplace_back("metrics", raw_json(obs::metrics_object_text(snap)))`.
inline JsonValue raw_json(std::string json) {
  JsonValue value(std::move(json));
  value.kind = JsonValue::Kind::kRaw;
  return value;
}

/// Machine-readable bench artifact: collects config fields plus one object
/// per measured cell and writes `<results_dir>/BENCH_<name>.json` (the
/// same directory the CSVs land in; WAKEUP_RESULTS_DIR overrides, empty
/// disables).  Schema: {"bench": <name>, "config": {...}, "rows": [...]}.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void config(const std::string& key, JsonValue value) {
    config_.emplace_back(key, std::move(value));
  }
  void row(JsonFields fields) { rows_.push_back(std::move(fields)); }

  /// Writes the report; returns its path, or "" when CSV/JSON output is
  /// disabled.  Also prints the path, matching the CSV reporting style.
  std::string write() const {
    const std::string dir = sim::ResultsSink::results_dir();
    if (dir.empty() || !util::ensure_directory(dir)) return "";
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out.good()) return "";
    // Snapshot peak RSS at write time — after every cell has run.
    JsonFields config = config_;
    config.emplace_back("peak_rss_bytes", peak_rss_bytes());
    out << "{\n  \"bench\": ";
    JsonValue(name_).emit(out);
    out << ",\n  \"config\": {";
    for (std::size_t i = 0; i < config.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "    ";
      JsonValue(config[i].first).emit(out);
      out << ": ";
      config[i].second.emit(out);
    }
    out << (config.empty() ? "" : "\n  ") << "},\n  \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << (r == 0 ? "\n" : ",\n") << "    {";
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        out << (i == 0 ? "" : ", ");
        JsonValue(rows_[r][i].first).emit(out);
        out << ": ";
        rows_[r][i].second.emit(out);
      }
      out << "}";
    }
    out << (rows_.empty() ? "" : "\n  ") << "]\n}\n";
    std::printf("[json] %s (%zu rows)\n", path.c_str(), rows_.size());
    return path;
  }

 private:
  std::string name_;
  JsonFields config_;
  std::vector<JsonFields> rows_;
};

/// Builds a sweep-cell RunSpec for a registry protocol at (n, k, s) with
/// the given pattern generator. Trials default to a bench-friendly count.
inline sim::RunSpec cell_for(const std::string& protocol_name, std::uint32_t n,
                             std::uint32_t k, mac::Slot s,
                             std::function<mac::WakePattern(util::Rng&)> pattern,
                             std::uint64_t trials = 24, std::uint64_t base_seed = 20130522) {
  sim::RunSpec cell;
  cell.make_protocol = [protocol_name, n, k, s](std::uint64_t seed) {
    proto::ProtocolSpec spec;
    spec.name = protocol_name;
    spec.n = n;
    spec.k = k;
    spec.s = s;
    spec.seed = seed;
    return proto::make_protocol_by_name(spec);
  };
  cell.make_pattern = std::move(pattern);
  cell.trials = trials;
  cell.base_seed = base_seed;
  cell.cell_tag = util::hash_words({n, k, static_cast<std::uint64_t>(s)});
  return cell;
}

}  // namespace wakeup::bench
