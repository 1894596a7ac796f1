#pragma once

/// \file metrics.hpp
/// Cross-layer metrics registry: named counters, gauges and log2 histograms
/// with a deterministic-ordering `metrics.json` exporter.
///
/// Design constraints, in order:
///   1. Observability must never perturb results.  Nothing in the
///      simulation ever *reads* the registry; all writes are side-state.
///   2. Hot word loops pay (at most) one relaxed increment.  Counters are
///      sharded per thread: each thread owns a cache-resident slab of
///      relaxed atomics, so an `add` is a single uncontended load+store.
///      Engine code goes further and accumulates into locals, flushing once
///      per run behind `obs::active()`.
///   3. Compiled out to exactly zero behind the `WAKEUP_OBS` CMake option
///      (default ON).  With WAKEUP_OBS=0 every type below collapses to a
///      no-op stub and `active()` is `constexpr false`, so `if
///      (obs::active())` blocks fold away entirely.
///   4. Disabled-at-runtime fast path: the registry starts disabled; one
///      relaxed bool load gates every flush.  `--metrics`/`--trace`/the
///      heartbeat enable it.
///
/// Handles are interned once (typically in a function-local static) and are
/// trivially copyable; `add`/`set`/`observe` are safe from any thread.
///
/// ```cpp
/// static const auto c_tiles = obs::Counter::get("batch.tiles");
/// if (obs::active()) c_tiles.add(local_tiles);
/// ```

#include <cstdint>
#include <map>
#include <string>

namespace wakeup::obs {

#if defined(WAKEUP_OBS) && WAKEUP_OBS
inline constexpr bool kCompiled = true;
#else
inline constexpr bool kCompiled = false;
#endif

/// One exported metric value.  Counters and gauges use `value`; histograms
/// fill count/sum/min/max and the log2 `buckets` string ("b:count" pairs,
/// bucket b = values in [2^b, 2^{b+1}), bucket 0 = {0, 1}).
struct MetricValue {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  std::uint64_t value = 0;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::string buckets;
};

/// Name-keyed snapshot (std::map — iteration order is the deterministic
/// export order regardless of registration or thread interleaving).
using Snapshot = std::map<std::string, MetricValue>;

#if defined(WAKEUP_OBS) && WAKEUP_OBS

namespace detail {
extern bool g_enabled_relaxed();  // one relaxed atomic load
}

/// True when metrics collection is compiled in AND runtime-enabled.  The
/// canonical guard around every flush site.
[[nodiscard]] inline bool active() noexcept { return detail::g_enabled_relaxed(); }

/// Runtime enable/disable (process-wide).  Disabling does not clear.
void set_enabled(bool enabled) noexcept;

/// Drops every recorded value (counters to 0, gauges to 0, histograms
/// emptied).  Names stay interned.  Tests and benches isolate phases here.
void reset();

/// Merged view over all live and retired thread shards.
[[nodiscard]] Snapshot snapshot();

/// Monotonically increasing event count, sharded per thread.
class Counter {
 public:
  /// Interns `name` (idempotent; the id is stable for the process
  /// lifetime).  Intern at most a few hundred distinct names.
  [[nodiscard]] static Counter get(const std::string& name);
  void add(std::uint64_t delta) const noexcept;
  void inc() const noexcept { add(1); }

 private:
  explicit Counter(std::uint32_t id) : id_(id) {}
  std::uint32_t id_;
};

/// Point-in-time value.  `set` overwrites; `maximize` keeps the running max
/// (peak trackers: backlog, bytes resident).
class Gauge {
 public:
  [[nodiscard]] static Gauge get(const std::string& name);
  void set(std::uint64_t value) const noexcept;
  void maximize(std::uint64_t value) const noexcept;

 private:
  explicit Gauge(std::uint32_t id) : id_(id) {}
  std::uint32_t id_;
};

/// Log2-bucketed distribution (count/sum/min/max + 64 buckets).  Observes
/// take a short registry lock — fine for per-cell/per-run rates, not for
/// per-word loops (accumulate locally and observe once).
class Histogram {
 public:
  [[nodiscard]] static Histogram get(const std::string& name);
  void observe(std::uint64_t value) const noexcept;

 private:
  explicit Histogram(std::uint32_t id) : id_(id) {}
  std::uint32_t id_;
};

#else  // ----------------------------------------------- WAKEUP_OBS=0 stubs

[[nodiscard]] constexpr bool active() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
inline void reset() noexcept {}
[[nodiscard]] inline Snapshot snapshot() { return {}; }

class Counter {
 public:
  [[nodiscard]] static Counter get(const std::string&) { return Counter{}; }
  void add(std::uint64_t) const noexcept {}
  void inc() const noexcept {}
};

class Gauge {
 public:
  [[nodiscard]] static Gauge get(const std::string&) { return Gauge{}; }
  void set(std::uint64_t) const noexcept {}
  void maximize(std::uint64_t) const noexcept {}
};

class Histogram {
 public:
  [[nodiscard]] static Histogram get(const std::string&) { return Histogram{}; }
  void observe(std::uint64_t) const noexcept {}
};

#endif  // WAKEUP_OBS

/// Renders a snapshot as the canonical metrics.json text: top-level
/// {"metrics": {...}} with keys in lexicographic (std::map) order —
/// byte-deterministic for a given snapshot regardless of thread count.
/// Works in both build flavors (an OFF build exports {"metrics": {}}).
[[nodiscard]] std::string metrics_json_text(const Snapshot& snap);

/// The same content as one compact single-line JSON object
/// ({"name": value, ...}) for embedding inside another document — the
/// `metrics` field of bench::JsonReport rows.
[[nodiscard]] std::string metrics_object_text(const Snapshot& snap);

/// snapshot() + metrics_json_text() -> `path`.  Throws std::runtime_error
/// when the file cannot be written.
void write_metrics_json(const std::string& path);

/// Convenience: "hits / (hits + misses)" over a snapshot; 0 when absent or
/// empty.
[[nodiscard]] double snapshot_ratio(const Snapshot& snap, const std::string& hits,
                                    const std::string& misses);

/// Counter/gauge value by name; 0 when absent.
[[nodiscard]] std::uint64_t snapshot_value(const Snapshot& snap, const std::string& name);

}  // namespace wakeup::obs
