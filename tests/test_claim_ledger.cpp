/// Multi-process sweep execution (src/exp/claim_ledger + worker mode +
/// merge): ledger round-trips, expired-lease stealing, lowest-id
/// double-claim resolution, torn claim tails, capped-worker release,
/// deterministic shard merges (byte-identical to a single-process run),
/// merge refusals on foreign shards and conflicting duplicates, and a real
/// mid-grid SIGKILL of one worker in a forked three-worker fleet.
///
/// Every run_sweep in this file uses an inline ThreadPool(0): the SIGKILL
/// test forks, and fork() carries only the calling thread — a process that
/// never spawns threads has nothing to lose.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/claim_ledger.hpp"
#include "exp/manifest.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/sweep_spec.hpp"
#include "sim/results_sink.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace we = wakeup::exp;
namespace wu = wakeup::util;

namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("wakeup_claim_test_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A header for pure-ledger tests; no grid needed, the ledger only pins it.
we::ManifestHeader tiny_header(std::uint64_t cells = 10) {
  we::ManifestHeader h;
  h.base_seed = 1;
  h.grid_hash = 42;
  h.cells = cells;
  return h;
}

/// 8-cell static grid, milliseconds per cell.
we::SweepSpec worker_spec() {
  we::SweepSpec spec;
  spec.protocols = {"round_robin", "wakeup_with_k"};
  spec.ns = {64, 128};
  spec.ks = {2, 4};
  spec.patterns = {we::PatternKind::kUniform};
  spec.trials = 6;
  spec.base_seed = 11;
  return spec;
}

/// Single-process reference run on an inline pool (no threads — see the
/// file comment) whose report the merged shards must reproduce exactly.
we::SweepOutcome classic_run(const we::SweepSpec& spec, const std::string& dir,
                             wu::ThreadPool* pool) {
  we::SweepOptions options;
  options.out_dir = dir;
  options.ci_resamples = 100;
  options.pool = pool;
  return we::run_sweep(spec, options);
}

we::SweepOptions worker_options(const std::string& dir, wu::ThreadPool* pool,
                                std::int32_t worker_id) {
  we::SweepOptions options;
  options.out_dir = dir;
  options.ci_resamples = 100;
  options.pool = pool;
  options.worker_id = worker_id;
  return options;
}

}  // namespace

// ---------------------------------------------------------- claim ledger --

TEST(ClaimLedger, ClaimsPersistAcrossInstancesAndProcessesWouldAgree) {
  const std::string dir = fresh_dir("roundtrip");
  ASSERT_TRUE(wu::ensure_directory(dir));
  const std::string path = dir + "/claims.jsonl";
  std::uint64_t now = 1000;
  we::ClaimLedgerOptions clock;
  clock.now_ms = [&now] { return now; };

  we::ClaimLedger a(path, tiny_header(), clock);
  const we::ClaimChunk chunk = a.claim(0, {}, 4, 100);
  EXPECT_EQ(chunk.begin, 0u);
  EXPECT_EQ(chunk.end, 4u);
  a.mark_done(0, 0);
  a.mark_done(0, 1);

  // A second observer of the same file reconstructs the identical state.
  we::ClaimLedger b(path, tiny_header(), clock);
  const auto state = b.load();
  EXPECT_EQ(state.skipped_lines, 0u);
  EXPECT_TRUE(state.done[0]);
  EXPECT_TRUE(state.done[1]);
  EXPECT_FALSE(state.done[2]);
  EXPECT_EQ(state.owner[2], 0);   // still leased
  EXPECT_EQ(state.owner[4], -1);  // never claimed
  EXPECT_FALSE(state.complete({}));

  // The next claim starts after the leased run.
  const we::ClaimChunk next = b.claim(1, {}, 10, 100);
  EXPECT_EQ(next.begin, 4u);
  EXPECT_EQ(next.end, 10u);
}

TEST(ClaimLedger, RefusesAForeignHeader) {
  const std::string dir = fresh_dir("foreign_header");
  ASSERT_TRUE(wu::ensure_directory(dir));
  const std::string path = dir + "/claims.jsonl";
  { we::ClaimLedger a(path, tiny_header()); }
  auto other = tiny_header();
  other.grid_hash = 43;
  EXPECT_THROW((we::ClaimLedger(path, other)), std::runtime_error);
  auto fewer = tiny_header();
  fewer.cells = 9;
  EXPECT_THROW((we::ClaimLedger(path, fewer)), std::runtime_error);
}

TEST(ClaimLedger, ExpiredLeasesAreStealable) {
  const std::string dir = fresh_dir("expiry");
  ASSERT_TRUE(wu::ensure_directory(dir));
  std::uint64_t now = 1000;
  we::ClaimLedgerOptions clock;
  clock.now_ms = [&now] { return now; };
  we::ClaimLedger ledger(dir + "/claims.jsonl", tiny_header(), clock);

  const we::ClaimChunk held = ledger.claim(0, {}, 4, 100);  // deadline 1100
  ASSERT_EQ(held.size(), 4u);
  // While the lease is live another worker gets the next run instead.
  const we::ClaimChunk other = ledger.claim(1, {}, 4, 100);
  EXPECT_EQ(other.begin, 4u);
  // Past the deadline the crashed worker's cells are up for grabs again.
  now = 1200;
  const we::ClaimChunk stolen = ledger.claim(1, {}, 4, 100);
  EXPECT_EQ(stolen.begin, 0u);
  EXPECT_EQ(stolen.end, 4u);
  const auto state = ledger.load();
  EXPECT_EQ(state.owner[0], 1);
}

TEST(ClaimLedger, DoubleClaimResolvesToTheLowestWorkerId) {
  const std::string dir = fresh_dir("double_claim");
  ASSERT_TRUE(wu::ensure_directory(dir));
  std::uint64_t now = 1000;
  we::ClaimLedgerOptions clock;
  clock.now_ms = [&now] { return now; };
  we::ClaimLedger ledger(dir + "/claims.jsonl", tiny_header(), clock);

  // Worker 5's raw claim line lands first (extend = the racy append half of
  // claim_range, without the verification read).
  ledger.extend(5, {0, 6}, 1000);
  // Worker 2 races the same chunk and wins every cell: lowest active id.
  const we::ClaimChunk won = ledger.claim_range(2, {0, 6}, 1000);
  EXPECT_EQ(won.begin, 0u);
  EXPECT_EQ(won.end, 6u);
  // A higher id racing afterwards loses the whole chunk and releases it,
  // so every observer sees one canonical owner.
  const we::ClaimChunk lost = ledger.claim_range(7, {0, 6}, 1000);
  EXPECT_TRUE(lost.empty());
  const auto state = ledger.load();
  for (std::uint64_t c = 0; c < 6; ++c) EXPECT_EQ(state.owner[c], 2) << c;
}

TEST(ClaimLedger, TornTailIsSkippedRepairedAndNonFatal) {
  const std::string dir = fresh_dir("torn");
  ASSERT_TRUE(wu::ensure_directory(dir));
  const std::string path = dir + "/claims.jsonl";
  std::uint64_t now = 1000;
  we::ClaimLedgerOptions clock;
  clock.now_ms = [&now] { return now; };
  {
    we::ClaimLedger ledger(path, tiny_header(), clock);
    (void)ledger.claim(0, {}, 2, 100);
    ledger.mark_done(0, 0);
  }
  {  // a kill mid-append leaves a fragment with no newline
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"kind\":\"claim\",\"wor";
  }
  // Re-opening repairs the tail (isolating the fragment into its own line)
  // and the loader skips it without losing the intact lines before it.
  we::ClaimLedger ledger(path, tiny_header(), clock);
  const auto state = ledger.load();
  EXPECT_EQ(state.skipped_lines, 1u);
  EXPECT_TRUE(state.done[0]);
  EXPECT_EQ(state.owner[1], 0);
  // And appends keep working on their own lines.
  ledger.mark_done(1, 1);
  const auto after = ledger.load();
  EXPECT_EQ(after.skipped_lines, 1u);
  EXPECT_TRUE(after.done[1]);
}

TEST(ClaimLedger, ReleaseReturnsCellsToThePool) {
  const std::string dir = fresh_dir("release");
  ASSERT_TRUE(wu::ensure_directory(dir));
  std::uint64_t now = 1000;
  we::ClaimLedgerOptions clock;
  clock.now_ms = [&now] { return now; };
  we::ClaimLedger ledger(dir + "/claims.jsonl", tiny_header(), clock);

  ASSERT_EQ(ledger.claim(0, {}, 10, 1000).size(), 10u);
  ledger.release(0, {4, 10});
  const we::ClaimChunk next = ledger.claim(1, {}, 10, 1000);
  EXPECT_EQ(next.begin, 4u);
  EXPECT_EQ(next.end, 10u);
  // complete() folds in the caller's completed bitmap for cells that are
  // banked in manifest shards rather than marked done in the ledger.
  std::vector<std::uint8_t> completed(10, 1);
  EXPECT_TRUE(ledger.load().complete(completed));
  completed[7] = 0;
  EXPECT_FALSE(ledger.load().complete(completed));
}

// ----------------------------------------------- worker mode + merge_sweep --

TEST(SweepWorker, SingleWorkerDrainsAndMergeEqualsClassicRun) {
  const auto spec = worker_spec();
  wu::ThreadPool pool0(0);
  const auto classic = classic_run(spec, fresh_dir("single_classic"), &pool0);
  ASSERT_TRUE(classic.completed);

  const std::string dir = fresh_dir("single_worker");
  auto options = worker_options(dir, &pool0, 0);
  options.lease_cells = 3;
  const auto outcome = we::run_sweep(spec, options);
  EXPECT_TRUE(outcome.drained);
  EXPECT_FALSE(outcome.completed);  // workers never write the report
  EXPECT_EQ(outcome.cells_run, 8u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/manifest-0.jsonl"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/manifest.jsonl"));

  // One claim line per chunk, then one renewal before each later cell of
  // it — no renewal straight after the claim that wrote the same lease.
  std::vector<std::pair<unsigned long long, unsigned long long>> leases;
  std::istringstream lines(slurp(dir + "/claims.jsonl"));
  for (std::string line; std::getline(lines, line);) {
    unsigned worker = 0;
    unsigned long long begin = 0, end = 0;
    if (std::sscanf(line.c_str(), "{\"kind\":\"claim\",\"worker\":%u,\"begin\":%llu,\"end\":%llu",
                    &worker, &begin, &end) == 3) {
      leases.emplace_back(begin, end);
    }
  }
  const std::vector<std::pair<unsigned long long, unsigned long long>> expected = {
      {0, 3}, {1, 3}, {2, 3}, {3, 6}, {4, 6}, {5, 6}, {6, 8}, {7, 8}};
  EXPECT_EQ(leases, expected);

  const auto merged = we::merge_sweep(dir);
  ASSERT_TRUE(merged.completed);
  EXPECT_EQ(slurp(classic.csv_path), slurp(merged.csv_path));
  EXPECT_EQ(slurp(classic.json_path), slurp(merged.json_path));
}

TEST(SweepWorker, CappedWorkerReleasesItsLeaseAndASecondWorkerDrains) {
  const auto spec = worker_spec();
  wu::ThreadPool pool0(0);
  const auto classic = classic_run(spec, fresh_dir("capped_classic"), &pool0);

  const std::string dir = fresh_dir("capped_fleet");
  auto capped = worker_options(dir, &pool0, 0);
  capped.max_cells = 3;
  capped.lease_cells = 2;
  const auto first = we::run_sweep(spec, capped);
  EXPECT_EQ(first.cells_run, 3u);
  EXPECT_FALSE(first.drained);

  // Worker 1 must be able to take everything worker 0 released or never
  // claimed — immediately, without waiting out worker 0's lease ttl.
  const auto second = we::run_sweep(spec, worker_options(dir, &pool0, 1));
  EXPECT_EQ(second.cells_resumed, 3u);
  EXPECT_EQ(second.cells_run, 5u);
  EXPECT_TRUE(second.drained);

  const auto merged = we::merge_sweep(dir);
  ASSERT_TRUE(merged.completed);
  EXPECT_EQ(slurp(classic.csv_path), slurp(merged.csv_path));
  EXPECT_EQ(slurp(classic.json_path), slurp(merged.json_path));
}

TEST(SweepWorker, SameWorkerIdResumesItsOwnShard) {
  const auto spec = worker_spec();
  wu::ThreadPool pool0(0);
  const auto classic = classic_run(spec, fresh_dir("resume_classic"), &pool0);

  const std::string dir = fresh_dir("resume_worker");
  auto capped = worker_options(dir, &pool0, 0);
  capped.max_cells = 4;
  (void)we::run_sweep(spec, capped);
  // The same id comes back (a restarted cluster job): its shard appends.
  const auto resumed = we::run_sweep(spec, worker_options(dir, &pool0, 0));
  EXPECT_EQ(resumed.cells_resumed, 4u);
  EXPECT_EQ(resumed.cells_run, 4u);
  EXPECT_TRUE(resumed.drained);

  const we::ManifestData shard = we::load_manifest(dir + "/manifest-0.jsonl");
  EXPECT_EQ(shard.by_tag.size(), 8u);
  const auto merged = we::merge_sweep(dir);
  ASSERT_TRUE(merged.completed);
  EXPECT_EQ(slurp(classic.csv_path), slurp(merged.csv_path));
  EXPECT_EQ(slurp(classic.json_path), slurp(merged.json_path));
}

TEST(SweepWorker, StartsBesideAPeerShardThatHasNoHeaderYet) {
  // Fleet workers start together: one may list a peer's shard in the gap
  // between its creation and its header write.
  const std::string dir = fresh_dir("headerless_peer");
  ASSERT_TRUE(wu::ensure_directory(dir));
  { std::ofstream peer(dir + "/manifest-5.jsonl"); }
  wu::ThreadPool pool0(0);
  const auto outcome = we::run_sweep(worker_spec(), worker_options(dir, &pool0, 0));
  EXPECT_TRUE(outcome.drained);
  EXPECT_EQ(outcome.cells_run, 8u);
}

TEST(SweepWorker, RejectsAPerTrialCsvSink) {
  // The sink's serialization is in-process; worker mode must refuse it
  // rather than emit interleaved rows from N processes.
  const std::string dir = fresh_dir("worker_csv");
  ASSERT_TRUE(wu::ensure_directory(dir));
  wakeup::sim::TrialCsvSink sink(dir + "/trials.csv");
  wu::ThreadPool pool0(0);
  auto options = worker_options(dir, &pool0, 0);
  options.trial_csv = &sink;
  EXPECT_THROW((void)we::run_sweep(worker_spec(), options), std::invalid_argument);
}

TEST(MergeSweep, IncompleteGridReportsRemainingAndWritesNothing) {
  const std::string dir = fresh_dir("incomplete");
  wu::ThreadPool pool0(0);
  auto capped = worker_options(dir, &pool0, 0);
  capped.max_cells = 2;
  (void)we::run_sweep(worker_spec(), capped);

  const auto merged = we::merge_sweep(dir);
  EXPECT_FALSE(merged.completed);
  EXPECT_EQ(merged.cells_total, 8u);
  EXPECT_EQ(merged.cells_resumed, 2u);
  EXPECT_EQ(merged.cells_remaining, 6u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/report.csv"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/report.json"));
}

TEST(MergeSweep, RefusesShardsFromADifferentGrid) {
  wu::ThreadPool pool0(0);
  const std::string dir = fresh_dir("mixed_grid");
  (void)we::run_sweep(worker_spec(), worker_options(dir, &pool0, 0));

  auto foreign_spec = worker_spec();
  foreign_spec.base_seed = 999;  // different fingerprint
  const std::string foreign = fresh_dir("mixed_grid_foreign");
  (void)we::run_sweep(foreign_spec, worker_options(foreign, &pool0, 0));

  // A stray shard from another sweep lands in the directory (wrong --out
  // on a cluster launcher): the merge must refuse, not mix results.
  std::filesystem::copy_file(foreign + "/manifest-0.jsonl", dir + "/manifest-3.jsonl");
  EXPECT_THROW((void)we::merge_sweep(dir), std::runtime_error);
}

TEST(MergeSweep, RefusesDuplicateCellsWithConflictingStats) {
  wu::ThreadPool pool0(0);
  const std::string dir = fresh_dir("conflict");
  (void)we::run_sweep(worker_spec(), worker_options(dir, &pool0, 0));

  // Forge a shard that repeats the first record with tampered stats.  The
  // seed contract says honest duplicates are byte-identical, so a
  // disagreement means foreign results and must be fatal.
  std::ifstream in(dir + "/manifest-0.jsonl");
  std::string header_line, record_line;
  ASSERT_TRUE(std::getline(in, header_line));
  ASSERT_TRUE(std::getline(in, record_line));
  const auto pos = record_line.find("\"failures\":0");
  ASSERT_NE(pos, std::string::npos) << record_line;
  record_line.replace(pos, 12, "\"failures\":9");
  {
    std::ofstream out(dir + "/manifest-9.jsonl");
    out << header_line << "\n" << record_line << "\n";
  }
  try {
    (void)we::merge_sweep(dir);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("disagree"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------------- SIGKILL a worker --

namespace {

/// Bigger grid so the fleet is mid-flight when the victim dies: 3
/// protocols x 2 n x 2 k = 12 cells, tens of milliseconds each way.
we::SweepSpec kill_spec() {
  we::SweepSpec spec;
  spec.protocols = {"round_robin", "wakeup_with_k", "wait_and_go"};
  spec.ns = {128, 256};
  spec.ks = {2, 4};
  spec.patterns = {we::PatternKind::kUniform};
  spec.trials = 24;
  spec.base_seed = 7;
  return spec;
}

}  // namespace

TEST(SweepWorker, SigkilledWorkersLeaseExpiresOthersStealAndMergeIsIdentical) {
  const auto spec = kill_spec();
  wu::ThreadPool pool0(0);
  const auto classic = classic_run(spec, fresh_dir("kill_classic"), &pool0);
  ASSERT_TRUE(classic.completed);

  const std::string dir = fresh_dir("kill_fleet");
  const std::string claims = dir + "/claims.jsonl";

  // The victim forks first so its crash scenario is deterministic: it banks
  // one real cell into its shard through worker mode, then takes a fresh
  // 400ms lease straight from the ledger and hangs "mid-cell" until the
  // parent SIGKILLs it — a dead worker with a partial shard AND live leases
  // on unexecuted cells.  The victim signals over a pipe once the hang
  // lease is on the books, so the parent never races its banked cell.
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t victim = ::fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    ::close(ready[0]);
    wu::ThreadPool pool(0);
    auto options = worker_options(dir, &pool, 2);
    options.max_cells = 1;
    options.lease_cells = 2;
    try {
      (void)we::run_sweep(spec, options);
      we::ManifestHeader header;
      header.base_seed = spec.base_seed;
      const auto cells = we::expand(spec);
      header.grid_hash = we::grid_fingerprint(cells, spec.base_seed);
      header.cells = cells.size();
      we::ClaimLedger ledger(claims, header);
      if (ledger.claim(2, {}, 4, 400).empty()) ::_exit(1);
    } catch (...) {
      ::_exit(1);
    }
    if (::write(ready[1], "L", 1) != 1) ::_exit(1);
    std::this_thread::sleep_for(std::chrono::minutes(1));
    ::_exit(1);
  }

  // Block until the hang lease is on the books, so the survivors cannot
  // drain the grid without stealing it.  A victim that failed instead
  // exits, closing its end: read() then returns 0.
  ::close(ready[1]);
  char signal_byte = 0;
  const ssize_t got = ::read(ready[0], &signal_byte, 1);
  ::close(ready[0]);
  ASSERT_EQ(got, 1);

  std::vector<pid_t> pids;
  for (std::int32_t w = 0; w < 2; ++w) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      wu::ThreadPool pool(0);
      auto options = worker_options(dir, &pool, w);
      options.lease_cells = 2;
      options.lease_ttl_ms = 400;
      try {
        (void)we::run_sweep(spec, options);
      } catch (...) {
        ::_exit(1);
      }
      ::_exit(0);
    }
    pids.push_back(pid);
  }

  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The survivors wait out the dead worker's ttl, steal its cells, and
  // drain the grid on their own.
  for (int w = 0; w < 2; ++w) {
    ASSERT_EQ(::waitpid(pids[w], &status, 0), pids[w]);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  // The dead worker's shard holds its banked cell and joins the merge.
  const we::ManifestData victim_shard = we::load_manifest(dir + "/manifest-2.jsonl");
  EXPECT_EQ(victim_shard.by_tag.size(), 1u);

  const auto merged = we::merge_sweep(dir);
  ASSERT_TRUE(merged.completed);
  EXPECT_EQ(slurp(classic.csv_path), slurp(merged.csv_path));
  EXPECT_EQ(slurp(classic.json_path), slurp(merged.json_path));
}
