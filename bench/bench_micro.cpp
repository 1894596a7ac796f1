/// M — microbenchmarks (google-benchmark): construction and query costs of
/// the combinatorial machinery and the simulator's slot throughput.

#include <benchmark/benchmark.h>

#include "wakeup/wakeup.hpp"

using namespace wakeup;

namespace {

void BM_BuildRandomizedFamily(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto fam = comb::build_randomized(n, k, comb::kDefaultRandomFamilyC, seed++);
    benchmark::DoNotOptimize(fam.length());
  }
}
BENCHMARK(BM_BuildRandomizedFamily)->Args({1024, 8})->Args({4096, 32})->Args({16384, 64});

void BM_BuildKautzSingleton(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto fam = comb::build_kautz_singleton(n, k);
    benchmark::DoNotOptimize(fam.length());
  }
}
BENCHMARK(BM_BuildKautzSingleton)->Args({1024, 4})->Args({4096, 8});

void BM_BuildBitSplitter(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto fam = comb::build_bit_splitter(n);
    benchmark::DoNotOptimize(fam.length());
  }
}
BENCHMARK(BM_BuildBitSplitter)->Arg(1024)->Arg(65536);

void BM_DoublingScheduleBuild(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    comb::DoublingSchedule::Config config;
    config.n = n;
    config.k_max = k;
    config.seed = seed++;
    comb::DoublingSchedule sched(config);
    benchmark::DoNotOptimize(sched.period());
  }
}
BENCHMARK(BM_DoublingScheduleBuild)->Args({1024, 64})->Args({4096, 256});

void BM_MatrixMembershipQuery(benchmark::State& state) {
  const auto params = comb::MatrixParams::make(1 << 20, 2);
  const comb::LazyTransmissionMatrix matrix(params, 7);
  std::uint64_t col = 0;
  comb::Station u = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += matrix.contains(1 + static_cast<unsigned>(col % params.rows), col, u) ? 1 : 0;
    ++col;
    u = static_cast<comb::Station>((u + 977) & ((1 << 20) - 1));
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_MatrixMembershipQuery);

// Word-level emission as the batch engines fetch it: 8-word tiles of one
// station's §5 schedule, cycling stations and start slots.
void BM_MatrixScheduleWord(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto c = static_cast<unsigned>(state.range(1));
  const proto::WakeupMatrixProtocol protocol(n, c, 7);
  constexpr std::size_t kTileWords = 8;
  std::uint64_t words[kTileWords] = {};
  mac::StationId u = 0;
  mac::Slot from = 0;
  for (auto _ : state) {
    protocol.schedule_block(u, 0, from, words, kTileWords);
    benchmark::DoNotOptimize(words);
    benchmark::ClobberMemory();
    u = (u + 977) % n;
    from += 64 * kTileWords;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kTileWords));
}
BENCHMARK(BM_MatrixScheduleWord)->Args({4096, 2});

// A randomized ladder's schedule word as one station fetches it: one
// window of per-set prefixes, then one hash_below lane per bit.
void BM_RandomizedScheduleWord(benchmark::State& state) {
  comb::DoublingSchedule::Config config;
  config.n = static_cast<std::uint32_t>(state.range(0));
  config.k_max = static_cast<std::uint32_t>(state.range(1));
  config.seed = 7;
  const comb::DoublingSchedule schedule(config);
  comb::Station u = 0;
  std::uint64_t from = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule.schedule_word(u, from));
    u = (u + 977) % config.n;
    from += 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomizedScheduleWord)->Args({4096, 256});

void BM_SelectivityCheck(benchmark::State& state) {
  const auto fam = comb::build_randomized(1024, 16, comb::kDefaultRandomFamilyC, 3);
  util::Rng rng(5);
  const auto subset = comb::random_subset(1024, 12, rng);
  util::DynamicBitset x(1024);
  for (auto s : subset) x.set(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fam.first_selecting_step(x));
  }
}
BENCHMARK(BM_SelectivityCheck);

void BM_SimulateScenarioC(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  const proto::WakeupMatrixProtocol protocol(n, 2, 11);
  util::Rng rng(3);
  const auto pattern = mac::patterns::staggered(n, k, 0, 3, rng);
  std::int64_t total_slots = 0;
  for (auto _ : state) {
    const auto result = sim::Run({.protocol = &protocol, .pattern = &pattern}).sim;
    total_slots += result.rounds + 1;
    benchmark::DoNotOptimize(result.success);
  }
  state.counters["slots/s"] = benchmark::Counter(static_cast<double>(total_slots),
                                                 benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateScenarioC)->Args({1024, 8})->Args({4096, 32});

void BM_SimulateRoundRobinFullHouse(benchmark::State& state) {
  const std::uint32_t n = 4096;
  const proto::RoundRobinProtocol protocol(n);
  std::vector<mac::Arrival> arrivals;
  for (mac::StationId u = 0; u < n; ++u) arrivals.push_back({u, 0});
  const mac::WakePattern pattern(n, std::move(arrivals));
  for (auto _ : state) {
    const auto result = sim::Run({.protocol = &protocol, .pattern = &pattern}).sim;
    benchmark::DoNotOptimize(result.success);
  }
}
BENCHMARK(BM_SimulateRoundRobinFullHouse);

void BM_SwapAdversary(benchmark::State& state) {
  const std::uint32_t n = 512, k = 64;
  const proto::RoundRobinProtocol protocol(n);
  for (auto _ : state) {
    const auto result = sim::run_swap_adversary(protocol, n, k);
    benchmark::DoNotOptimize(result.rounds_forced);
  }
}
BENCHMARK(BM_SwapAdversary);

}  // namespace
