#include "mac/arrival_process.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/dynamic_bitset.hpp"
#include "util/simd.hpp"

namespace wakeup::mac {
namespace {

std::string format_param(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

[[noreturn]] void grammar_error(const std::string& spec, const std::string& detail) {
  throw std::invalid_argument("arrival spec '" + spec + "': " + detail +
                              " (grammar: poisson:RATE | bursty:RATE:SWITCH | "
                              "pareto:ALPHA[:RATE] | replay)");
}

/// A finite number.  std::stod also reads "nan" and "inf": NaN fails every
/// comparison, so a check like `alpha <= 1` lets it through, and inf
/// passes every lower bound.
double parse_param(const std::string& text, const std::string& spec) {
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing characters");
  } catch (const std::exception&) {
    throw std::invalid_argument("arrival spec '" + spec + "': '" + text + "' is not a number");
  }
  if (!std::isfinite(v)) grammar_error(spec, "'" + text + "' is not a finite number");
  return v;
}

bool arrives_before(const Arrival& a, const Arrival& b) noexcept {
  return a.wake != b.wake ? a.wake < b.wake : a.station < b.station;
}

}  // namespace

std::string ArrivalSpec::name() const {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson:" + format_param(rate);
    case ArrivalKind::kBursty:
      return "bursty:" + format_param(rate) + ":" + format_param(param);
    case ArrivalKind::kPareto:
      return "pareto:" + format_param(param) + ":" + format_param(rate);
    case ArrivalKind::kReplay:
      return "replay";
  }
  return "unknown";
}

ArrivalSpec ArrivalSpec::parse(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = text.find(':', start);
    parts.push_back(text.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }

  ArrivalSpec spec;
  const std::string& family = parts[0];
  if (family == "poisson") {
    spec.kind = ArrivalKind::kPoisson;
    if (parts.size() != 2) grammar_error(text, "poisson takes exactly one parameter, the rate");
    spec.rate = parse_param(parts[1], text);
  } else if (family == "bursty") {
    spec.kind = ArrivalKind::kBursty;
    if (parts.size() != 3) grammar_error(text, "bursty takes rate and switch probability");
    spec.rate = parse_param(parts[1], text);
    spec.param = parse_param(parts[2], text);
    if (spec.param <= 0.0 || spec.param > 1.0)
      grammar_error(text, "switch probability must be in (0, 1]");
  } else if (family == "pareto") {
    spec.kind = ArrivalKind::kPareto;
    if (parts.size() != 2 && parts.size() != 3)
      grammar_error(text, "pareto takes alpha and an optional rate");
    spec.param = parse_param(parts[1], text);
    spec.rate = parts.size() == 3 ? parse_param(parts[2], text) : 0.1;
    if (spec.param <= 1.0) grammar_error(text, "pareto tail index alpha must exceed 1");
  } else if (family == "replay") {
    spec.kind = ArrivalKind::kReplay;
    if (parts.size() != 1) grammar_error(text, "replay takes no parameters");
    spec.rate = 0.0;
  } else {
    grammar_error(text, "unknown family '" + family + "'");
  }
  if (spec.kind != ArrivalKind::kReplay && !(spec.rate > 0.0))
    grammar_error(text, "rate must be positive");
  return spec;
}

DynamicScenario::DynamicScenario(std::uint32_t n, Slot horizon, std::vector<Arrival> packets)
    : n_(n), horizon_(horizon) {
  if (horizon_ <= 0) throw std::invalid_argument("DynamicScenario: horizon must be positive");
  for (const Arrival& p : packets) {
    if (p.station >= n_) throw std::invalid_argument("DynamicScenario: station id out of range");
    if (p.wake < 0 || p.wake >= horizon_)
      throw std::invalid_argument("DynamicScenario: packet arrival outside [0, horizon)");
  }
  std::sort(packets.begin(), packets.end(), [](const Arrival& a, const Arrival& b) {
    return a.station != b.station ? a.station < b.station : a.wake < b.wake;
  });
  slots_.reserve(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    slots_.push_back(packets[i].wake);
    if (i + 1 == packets.size() || packets[i + 1].station != packets[i].station)
      close_station(packets[i].station);
  }
}

std::vector<Arrival> DynamicScenario::packets() const {
  std::vector<Arrival> out;
  out.reserve(slots_.size());
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    for (const Slot t : arrivals_of(i)) out.push_back({stations_[i], t});
  }
  std::sort(out.begin(), out.end(), arrives_before);
  return out;
}

namespace arrivals {
namespace {

/// Floyd's uniform sampling of k distinct stations out of [n] — the same
/// draw sequence as the wake-pattern generators, so scenario station sets
/// match pattern station sets under a shared rng state.
std::vector<StationId> choose_stations(std::uint32_t n, std::uint32_t k, util::Rng& rng) {
  if (k > n) k = n;
  std::vector<StationId> out;
  out.reserve(k);
  util::DynamicBitset chosen(n);
  for (std::uint32_t j = n - k; j < n; ++j) {
    const auto t = static_cast<StationId>(rng.uniform(j + 1));
    if (chosen.test(t)) {
      chosen.set(j);
      out.push_back(j);
    } else {
      chosen.set(t);
      out.push_back(t);
    }
  }
  return out;
}

/// Station u's own substream: it depends only on the rng's seed and u —
/// split() leaves the rng itself untouched — so drawing the stations in id
/// order changes no draw.
util::Rng station_substream(const util::Rng& rng, StationId u) {
  return rng.split(0x414252ULL /* "ARR" */ ^ (std::uint64_t{u} << 24));
}

/// `rng.bernoulli(p)` as a lane coin, decided on the raw draw against
/// util::bernoulli_threshold(p): the same draws — none when p <= 0 or
/// p >= 1 — and the same outcomes.
util::simd::LaneCoin lane_coin(double p) {
  const bool draws = !(p <= 0.0) && !(p >= 1.0);
  return {draws ? util::bernoulli_threshold(p) : 0, draws, p >= 1.0};
}

// Each stream appends one station's arrival slots, ascending, drawing from
// the station's own substream, which it owns by value.
void poisson_stream(double per_station_rate, Slot horizon, util::Rng rng,
                    std::vector<Slot>& out) {
  const double p = std::min(1.0, per_station_rate);
  if (p <= 0.0) return;
  // Geometric gaps — failures before the first success of Bernoulli(p) —
  // stand in for per-slot arrival draws: one draw per packet, none at p = 1.
  const double log_q = std::log1p(-p);
  const auto gap = [&]() -> Slot {
    if (p >= 1.0) return 0;
    const double u = 1.0 - rng.uniform01();  // in (0, 1]
    return static_cast<Slot>(std::log(u) / log_q);
  };
  for (Slot t = gap(); t < horizon; t += 1 + gap()) out.push_back(t);
}

void pareto_stream(double per_station_rate, double alpha, Slot horizon, util::Rng rng,
                   std::vector<Slot>& out) {
  // Pareto(alpha) gaps scaled so the mean inter-arrival matches the target
  // rate: E[x_m * U^(-1/alpha)] = x_m * alpha / (alpha - 1).
  const double target_mean = 1.0 / per_station_rate;
  const double x_m = target_mean * (alpha - 1.0) / alpha;
  Slot t = 0;
  while (true) {
    const double un = 1.0 - rng.uniform01();  // in (0, 1]
    const double gap = x_m * std::pow(un, -1.0 / alpha);
    // Heavy tails produce astronomically long gaps; anything past the
    // horizon ends the stream regardless of its exact value.
    if (gap > static_cast<double>(horizon - t)) return;
    t += std::max<Slot>(1, static_cast<Slot>(std::llround(gap)));
    if (t >= horizon) return;
    out.push_back(t);
  }
}

/// The bursty streams of a station list, eight stations at a time:
/// `stream(i, out)` draws the lane group that starts at station i, then
/// appends lane i mod 8's slots.  Each lane resumes its station's
/// substream after the initial on/off coin, and util::simd's bursty_lanes
/// draws the rest in lockstep, a chunk of slots per call.
class BurstyLanes {
 public:
  BurstyLanes(double per_station_rate, double switch_p, Slot horizon, const util::Rng& rng,
              std::span<const StationId> stations)
      // Symmetric on/off modulator: half the slots are ON in expectation, so
      // the ON-state arrival probability is doubled to preserve the offered
      // load.
      : arrive_(lane_coin(std::min(1.0, 2.0 * per_station_rate))),
        flip_(lane_coin(switch_p)),
        horizon_(horizon),
        rng_(rng),
        stations_(stations) {}

  void stream(std::size_t i, std::vector<Slot>& out) {
    if (i % kLanes == 0) draw(stations_.subspan(i, std::min(kLanes, stations_.size() - i)));
    const std::vector<Slot>& lane = lanes_[i % kLanes];
    out.insert(out.end(), lane.begin(), lane.end());
  }

 private:
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kChunk = 4096;

  void draw(std::span<const StationId> group) {
    std::array<std::uint64_t, 4 * kLanes> state{};
    std::uint8_t live = 0, on = 0;
    for (std::size_t l = 0; l < group.size(); ++l) {
      util::Rng sub = station_substream(rng_, group[l]);
      live |= static_cast<std::uint8_t>(1u << l);
      on |= static_cast<std::uint8_t>(static_cast<unsigned>(sub.bernoulli(0.5)) << l);
      for (std::size_t w = 0; w < 4; ++w) state[kLanes * w + l] = sub.state()[w];
      lanes_[l].clear();
    }
    const util::simd::Kernels& kernels = util::simd::active();
    std::array<std::uint8_t, kChunk> arrived;
    for (Slot from = 0; from < horizon_; from += static_cast<Slot>(kChunk)) {
      const auto slots = static_cast<std::size_t>(std::min<Slot>(kChunk, horizon_ - from));
      kernels.bursty_lanes(state.data(), live, &on, arrive_, flip_, slots, arrived.data());
      // Eight slots' masks per word: bit 8j + l is lane l's arrival at
      // slot from + t + j.
      for (std::size_t t = 0; t < slots; t += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, arrived.data() + t, std::min<std::size_t>(8, slots - t));
        for (; word != 0; word &= word - 1) {
          const auto bit = static_cast<unsigned>(std::countr_zero(word));
          lanes_[bit % kLanes].push_back(from + static_cast<Slot>(t + bit / kLanes));
        }
      }
    }
  }

  util::simd::LaneCoin arrive_, flip_;
  Slot horizon_;
  const util::Rng& rng_;
  std::span<const StationId> stations_;
  std::array<std::vector<Slot>, kLanes> lanes_;
};

}  // namespace

DynamicScenario generate(const ArrivalSpec& spec, std::uint32_t n, std::uint32_t k, Slot horizon,
                         util::Rng& rng) {
  if (spec.kind == ArrivalKind::kReplay)
    throw std::invalid_argument(
        "arrivals::generate: replay scenarios carry an explicit packet list — construct a "
        "DynamicScenario directly");
  if (horizon <= 0) throw std::invalid_argument("arrivals::generate: horizon must be positive");
  if (k == 0 || k > n) throw std::invalid_argument("arrivals::generate: need 0 < k <= n");

  std::vector<StationId> stations = choose_stations(n, k, rng);
  std::sort(stations.begin(), stations.end());
  const double per_station_rate = spec.rate / static_cast<double>(stations.size());
  DynamicScenario scenario(n, horizon);
  // No stream gives a station more than one packet per slot.
  scenario.slots_.reserve(static_cast<std::size_t>(
      std::min({spec.rate * static_cast<double>(horizon) * 1.25 + 16.0, 1e8,
                static_cast<double>(stations.size()) * static_cast<double>(horizon)})));
  BurstyLanes bursty(per_station_rate, spec.param, horizon, rng, stations);
  for (std::size_t i = 0; i < stations.size(); ++i) {
    const StationId u = stations[i];
    switch (spec.kind) {
      case ArrivalKind::kPoisson:
        poisson_stream(per_station_rate, horizon, station_substream(rng, u), scenario.slots_);
        break;
      case ArrivalKind::kBursty:
        bursty.stream(i, scenario.slots_);
        break;
      case ArrivalKind::kPareto:
        pareto_stream(per_station_rate, spec.param, horizon, station_substream(rng, u),
                      scenario.slots_);
        break;
      case ArrivalKind::kReplay:
        break;  // unreachable, rejected above
    }
    scenario.close_station(u);
  }
  return scenario;
}

}  // namespace arrivals
}  // namespace wakeup::mac
