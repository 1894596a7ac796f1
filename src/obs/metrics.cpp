#include "obs/metrics.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace wakeup::obs {

#if defined(WAKEUP_OBS) && WAKEUP_OBS

namespace {

/// Renders one "b:count" bucket string for the histogram snapshot.
std::string bucket_text(const std::array<std::uint64_t, 64>& buckets) {
  std::string out;
  char buf[48];
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    std::snprintf(buf, sizeof buf, "%s%zu:%llu", out.empty() ? "" : " ", b,
                  static_cast<unsigned long long>(buckets[b]));
    out += buf;
  }
  return out;
}

/// Fixed shard capacity: the instrumented layers intern a few dozen names;
/// a fixed slab keeps thread attach/detach allocation-free and the per-add
/// index unchecked after the interning bound check.
constexpr std::size_t kMaxMetrics = 256;

struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxMetrics> counts{};
};

struct HistogramState {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, 64> buckets{};
};

std::atomic<bool> g_enabled{false};

class Registry {
 public:
  static Registry& instance() {
    static Registry* r = new Registry();  // leaked: threads may outlive main
    return *r;
  }

  std::uint32_t intern(const std::string& name, MetricValue::Kind kind) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    if (names_.size() >= kMaxMetrics) {
      throw std::runtime_error("obs: metric name capacity exceeded (" + name + ")");
    }
    names_.push_back(name);
    kinds_.push_back(kind);
    retired_.push_back(0);
    gauges_.push_back(0);
    histograms_.emplace_back();
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  void attach(Shard* shard) {
    const std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(shard);
  }

  void detach(Shard* shard) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i] != shard) continue;
      for (std::size_t m = 0; m < retired_.size(); ++m) {
        retired_[m] += shard->counts[m].load(std::memory_order_relaxed);
      }
      shards_[i] = shards_.back();
      shards_.pop_back();
      return;
    }
  }

  void gauge_set(std::uint32_t id, std::uint64_t value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    gauges_[id] = value;
  }

  void gauge_max(std::uint32_t id, std::uint64_t value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (value > gauges_[id]) gauges_[id] = value;
  }

  void observe(std::uint32_t id, std::uint64_t value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    HistogramState& h = histograms_[id];
    if (h.count == 0 || value < h.min) h.min = value;
    if (h.count == 0 || value > h.max) h.max = value;
    ++h.count;
    h.sum += value;
    std::size_t bucket = 0;
    for (std::uint64_t v = value; v > 1; v >>= 1) ++bucket;
    ++h.buckets[bucket];
  }

  Snapshot snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    for (std::uint32_t m = 0; m < names_.size(); ++m) {
      MetricValue v;
      v.kind = kinds_[m];
      switch (kinds_[m]) {
        case MetricValue::Kind::kCounter: {
          std::uint64_t total = retired_[m];
          for (const Shard* shard : shards_) {
            total += shard->counts[m].load(std::memory_order_relaxed);
          }
          v.value = total;
          break;
        }
        case MetricValue::Kind::kGauge:
          v.value = gauges_[m];
          break;
        case MetricValue::Kind::kHistogram: {
          const HistogramState& h = histograms_[m];
          v.count = h.count;
          v.sum = h.sum;
          v.min = h.min;
          v.max = h.max;
          v.buckets = bucket_text(h.buckets);
          break;
        }
      }
      snap.emplace(names_[m], std::move(v));
    }
    return snap;
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t m = 0; m < names_.size(); ++m) {
      retired_[m] = 0;
      gauges_[m] = 0;
      histograms_[m] = HistogramState{};
      for (Shard* shard : shards_) shard->counts[m].store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<MetricValue::Kind> kinds_;
  std::vector<std::uint64_t> retired_;  ///< counter totals from exited threads
  std::vector<std::uint64_t> gauges_;
  std::vector<HistogramState> histograms_;
  std::vector<Shard*> shards_;  ///< live thread shards
};

/// Per-thread shard, registered on first use and merged into the retired
/// totals at thread exit.
struct ShardHandle {
  Shard shard;
  ShardHandle() { Registry::instance().attach(&shard); }
  ~ShardHandle() { Registry::instance().detach(&shard); }
};

Shard& local_shard() {
  thread_local ShardHandle handle;
  return handle.shard;
}

}  // namespace

namespace detail {
bool g_enabled_relaxed() { return g_enabled.load(std::memory_order_relaxed); }
}  // namespace detail

void set_enabled(bool enabled) noexcept { g_enabled.store(enabled, std::memory_order_relaxed); }

void reset() { Registry::instance().reset(); }

Snapshot snapshot() { return Registry::instance().snapshot(); }

Counter Counter::get(const std::string& name) {
  return Counter(Registry::instance().intern(name, MetricValue::Kind::kCounter));
}

void Counter::add(std::uint64_t delta) const noexcept {
  // Single-writer slab: a relaxed load+store is a plain add on the owning
  // thread's cache line; concurrent snapshot readers never see torn values.
  std::atomic<std::uint64_t>& slot = local_shard().counts[id_];
  slot.store(slot.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

Gauge Gauge::get(const std::string& name) {
  return Gauge(Registry::instance().intern(name, MetricValue::Kind::kGauge));
}

void Gauge::set(std::uint64_t value) const noexcept {
  Registry::instance().gauge_set(id_, value);
}

void Gauge::maximize(std::uint64_t value) const noexcept {
  Registry::instance().gauge_max(id_, value);
}

Histogram Histogram::get(const std::string& name) {
  return Histogram(Registry::instance().intern(name, MetricValue::Kind::kHistogram));
}

void Histogram::observe(std::uint64_t value) const noexcept {
  Registry::instance().observe(id_, value);
}

#endif  // WAKEUP_OBS

namespace {

/// One metric's JSON value text, shared by both exporters.
std::string value_text(const MetricValue& v) {
  char buf[64];
  const auto u64 = [&buf](std::uint64_t value) {
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(value));
    return std::string(buf);
  };
  switch (v.kind) {
    case MetricValue::Kind::kCounter:
    case MetricValue::Kind::kGauge:
      return u64(v.value);
    case MetricValue::Kind::kHistogram:
      return "{\"count\": " + u64(v.count) + ", \"sum\": " + u64(v.sum) +
             ", \"min\": " + u64(v.min) + ", \"max\": " + u64(v.max) + ", \"buckets\": \"" +
             v.buckets + "\"}";
  }
  return "0";  // unreachable
}

}  // namespace

std::string metrics_json_text(const Snapshot& snap) {
  std::string out = "{\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : snap) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + value_text(v);
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string metrics_object_text(const Snapshot& snap) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : snap) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + value_text(v);
  }
  out += "}";
  return out;
}

void write_metrics_json(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw std::runtime_error("obs: cannot write " + path);
  out << metrics_json_text(snapshot());
}

double snapshot_ratio(const Snapshot& snap, const std::string& hits, const std::string& misses) {
  const double h = static_cast<double>(snapshot_value(snap, hits));
  const double m = static_cast<double>(snapshot_value(snap, misses));
  return h + m > 0 ? h / (h + m) : 0.0;
}

std::uint64_t snapshot_value(const Snapshot& snap, const std::string& name) {
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second.value;
}

}  // namespace wakeup::obs
