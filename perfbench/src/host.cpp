#include "host.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/simd.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_sink{0};

void busy_loop(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_sink.fetch_add(x, std::memory_order_relaxed);
}

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double parallel_capacity_ratio(unsigned threads) {
  // Calibrate one loop to about 50 ms, then run `threads` copies at once.
  std::uint64_t iterations = 1u << 20;
  while (seconds_of([&] { busy_loop(iterations); }) < 0.05) iterations *= 2;
  const double one = seconds_of([&] { busy_loop(iterations); });
  const double all = seconds_of([&] {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(busy_loop, iterations);
    for (std::thread& thread : pool) thread.join();
  });
  return one > 0 ? all / one : 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

HostInfo probe_host() {
  HostInfo host;
  host.cpu_model = cpu_model();
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  host.parallel_ratio = parallel_capacity_ratio(host.nproc);
  host.compiler = PERFBENCH_COMPILER;
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.simd_kernel = wakeup::util::simd::active_name();
  host.simd_compiled = PERFBENCH_SIMD != 0;
  host.obs_compiled = wakeup::obs::kCompiled;
  return host;
}

std::string host_json(const HostInfo& host) {
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.3f", host.parallel_ratio);
  return "{\"cpu_model\": " + json_string(host.cpu_model) +
         ", \"nproc\": " + std::to_string(host.nproc) + ", \"parallel_ratio\": " + ratio +
         ", \"compiler\": " + json_string(host.compiler) +
         ", \"build_type\": " + json_string(host.build_type) +
         ", \"simd_kernel\": " + json_string(host.simd_kernel) +
         ", \"WAKEUP_SIMD\": " + (host.simd_compiled ? "true" : "false") +
         ", \"WAKEUP_OBS\": " + (host.obs_compiled ? "true" : "false") + "}";
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that one was larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
