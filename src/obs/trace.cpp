#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "mac/trace.hpp"
#include "util/csv.hpp"

#if defined(WAKEUP_OBS) && WAKEUP_OBS
#include <atomic>
#include <mutex>
#endif

namespace wakeup::obs {

std::uint64_t trace_now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - origin).count());
}

#if defined(WAKEUP_OBS) && WAKEUP_OBS

namespace {

std::atomic<bool> g_trace_enabled{false};

struct TraceState {
  std::mutex mutex;
  std::vector<std::string> events;  ///< pre-rendered JSON objects
  std::uint32_t next_tid = 1;
};

TraceState& state() {
  static TraceState* s = new TraceState();  // leaked: threads may outlive main
  return *s;
}

/// Small per-thread lane id so concurrent cells stack into distinct rows.
std::uint32_t local_tid() {
  thread_local std::uint32_t tid = 0;
  if (tid == 0) {
    TraceState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    tid = s.next_tid++;
  }
  return tid;
}

void push_event(std::string&& rendered) {
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.events.push_back(std::move(rendered));
}

std::string event_prefix(const std::string& name, const std::string& category, char phase,
                         std::uint64_t ts_us) {
  char buf[96];
  std::string out = "{\"name\": \"" + util::json_escape(name) + "\", \"cat\": \"" +
                    util::json_escape(category) + "\", \"ph\": \"";
  out += phase;
  std::snprintf(buf, sizeof buf, "\", \"ts\": %llu, \"pid\": 0, \"tid\": %u",
                static_cast<unsigned long long>(ts_us), local_tid());
  out += buf;
  return out;
}

}  // namespace

bool trace_active() noexcept { return g_trace_enabled.load(std::memory_order_relaxed); }

void set_trace_enabled(bool enabled) noexcept {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void trace_set_process(const std::string& name) {
  push_event("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"args\": {\"name\": \"" +
             util::json_escape(name) + "\"}}");
}

void trace_duration(const std::string& name, const std::string& category, std::uint64_t ts_us,
                    std::uint64_t dur_us,
                    const std::vector<std::pair<std::string, std::string>>& args) {
  if (!trace_active()) return;
  std::string event = event_prefix(name, category, 'X', ts_us);
  char buf[48];
  std::snprintf(buf, sizeof buf, ", \"dur\": %llu", static_cast<unsigned long long>(dur_us));
  event += buf;
  if (!args.empty()) {
    event += ", \"args\": {";
    for (std::size_t i = 0; i < args.size(); ++i) {
      event += (i == 0 ? "\"" : ", \"") + util::json_escape(args[i].first) + "\": \"" +
               util::json_escape(args[i].second) + "\"";
    }
    event += "}";
  }
  event += "}";
  push_event(std::move(event));
}

void trace_instant(const std::string& name, const std::string& category, std::uint64_t ts_us) {
  if (!trace_active()) return;
  push_event(event_prefix(name, category, 'i', ts_us) + ", \"s\": \"t\"}");
}

void trace_clear() {
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.events.clear();
}

std::size_t trace_event_count() {
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.events.size();
}

void write_trace_json(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw std::runtime_error("obs: cannot write " + path);
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    out << s.events[i] << (i + 1 < s.events.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

#else  // WAKEUP_OBS=0: only the exporters have out-of-line stubs.

void write_trace_json(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw std::runtime_error("obs: cannot write " + path);
  out << "{\"traceEvents\":[\n]}\n";
}

#endif  // WAKEUP_OBS

void trace_execution(const mac::ExecutionTrace& trace, std::uint64_t base_ts_us) {
  if (!trace_active()) return;
  for (const mac::SlotRecord& rec : trace.ordered()) {
    trace_instant(std::string(to_string(rec.outcome)) + " @" + std::to_string(rec.slot) + " (" +
                      std::to_string(rec.transmitter_count) + " tx)",
                  "slot", base_ts_us + static_cast<std::uint64_t>(rec.slot));
  }
}

}  // namespace wakeup::obs
