#pragma once

/// \file trace.hpp
/// Chrome trace-event (Perfetto-compatible) exporter.
///
/// Events are recorded as pre-rendered JSON object strings and written as
/// `{"traceEvents":[` + one event per line + `]}` — a format chrome://tracing
/// and ui.perfetto.dev both load.  Sweep cells render as duration events
/// ("X" phase, one per cell, named by the cell tag) on process row 0, named
/// via a process_name metadata event; ExecutionTrace slot records render as
/// instant events ("i" phase).
///
/// Like the metrics registry, the recorder starts disabled and never
/// perturbs results: timestamps feed only the sidecar file.  In
/// WAKEUP_OBS=0 builds every call is a no-op stub and `write` emits an
/// empty event list.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wakeup::mac {
class ExecutionTrace;
}

namespace wakeup::obs {

/// Microseconds since the first call in this process (steady clock) — the
/// "ts" domain of every recorded event.
[[nodiscard]] std::uint64_t trace_now_us();

#if defined(WAKEUP_OBS) && WAKEUP_OBS

/// True when trace recording is runtime-enabled.
[[nodiscard]] bool trace_active() noexcept;
void set_trace_enabled(bool enabled) noexcept;

/// Emits the process_name metadata event so Perfetto labels the process
/// row every event is recorded on.
void trace_set_process(const std::string& name);

/// Complete duration event ("ph":"X"): `ts_us`..`ts_us + dur_us` on the
/// calling thread's row.  `args` render as string fields under "args".
void trace_duration(const std::string& name, const std::string& category, std::uint64_t ts_us,
                    std::uint64_t dur_us,
                    const std::vector<std::pair<std::string, std::string>>& args = {});

/// Instant event ("ph":"i", thread scope).
void trace_instant(const std::string& name, const std::string& category, std::uint64_t ts_us);

/// Drops all recorded events.
void trace_clear();

/// Number of events recorded so far (tests).
[[nodiscard]] std::size_t trace_event_count();

#else  // ----------------------------------------------- WAKEUP_OBS=0 stubs

[[nodiscard]] constexpr bool trace_active() noexcept { return false; }
inline void set_trace_enabled(bool) noexcept {}
inline void trace_set_process(const std::string&) {}
inline void trace_duration(const std::string&, const std::string&, std::uint64_t, std::uint64_t,
                           const std::vector<std::pair<std::string, std::string>>& = {}) {}
inline void trace_instant(const std::string&, const std::string&, std::uint64_t) {}
inline void trace_clear() {}
[[nodiscard]] inline std::size_t trace_event_count() { return 0; }

#endif  // WAKEUP_OBS

/// Writes the recorded events to `path` in the one-event-per-line format.
/// Works in both build flavors (OFF builds write an empty event list).
/// Throws std::runtime_error when the file cannot be written.
void write_trace_json(const std::string& path);

/// Renders every slot of an ExecutionTrace as instant events in the
/// recorder (category "slot", name = the slot outcome, args carry slot
/// number and transmitter count).  `base_ts_us` anchors slot 0; each slot
/// advances 1us so the timeline is legible at any zoom.
void trace_execution(const mac::ExecutionTrace& trace, std::uint64_t base_ts_us);

}  // namespace wakeup::obs
