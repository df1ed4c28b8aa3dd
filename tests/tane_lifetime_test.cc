// Tests for partition lifetimes: parents are released inside a level window
// as soon as their last consumer commits (or kept to the level boundary
// while a wind-down snapshot may still need them), and every handle is
// released exactly once on every path. Discover itself fails a run that
// leaves a partition in the store, so every successful run below also
// proves the store ended empty.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tane.h"
#include "datasets/paper_datasets.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/failpoint.h"
#include "util/run_control.h"

#ifndef TANE_CLI_BINARY
#define TANE_CLI_BINARY ""
#endif

namespace tane {
namespace {

// Sanitizer runtimes keep freed memory in quarantine and shadow every
// allocation, so their RSS says nothing about the engine's own footprint.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

Relation Dataset(PaperDataset dataset, int64_t rows) {
  StatusOr<Relation> relation = MakePaperDataset(dataset, rows, /*seed=*/42);
  EXPECT_TRUE(relation.ok()) << relation.status().ToString();
  return std::move(relation).value();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Element for element, in canonical order, with bit-identical errors.
void ExpectSameOutput(const DiscoveryResult& expected,
                      const DiscoveryResult& actual, const std::string& tag) {
  ASSERT_EQ(expected.fds.size(), actual.fds.size()) << tag;
  for (size_t i = 0; i < expected.fds.size(); ++i) {
    EXPECT_EQ(expected.fds[i].lhs, actual.fds[i].lhs) << tag;
    EXPECT_EQ(expected.fds[i].rhs, actual.fds[i].rhs) << tag;
    EXPECT_EQ(expected.fds[i].error, actual.fds[i].error) << tag;
  }
  EXPECT_EQ(expected.keys, actual.keys) << tag;
}

// The work the search does depends on neither the storage nor the thread
// count, nor on when partitions are released. (Label reuse, and with it
// product_rows_scanned, depends on which worker ran which product, so it
// is not part of that contract.)
void ExpectSameWork(const DiscoveryStats& expected,
                    const DiscoveryStats& actual, const std::string& tag) {
  EXPECT_EQ(expected.sets_generated, actual.sets_generated) << tag;
  EXPECT_EQ(expected.max_level_size, actual.max_level_size) << tag;
  EXPECT_EQ(expected.validity_tests, actual.validity_tests) << tag;
  EXPECT_EQ(expected.g3_scans, actual.g3_scans) << tag;
  EXPECT_EQ(expected.g3_scans_skipped, actual.g3_scans_skipped) << tag;
  EXPECT_EQ(expected.g3_from_product, actual.g3_from_product) << tag;
  EXPECT_EQ(expected.partition_products, actual.partition_products) << tag;
  EXPECT_EQ(expected.product_allocations, actual.product_allocations) << tag;
  EXPECT_EQ(expected.g3_rows_scanned, actual.g3_rows_scanned) << tag;
  EXPECT_EQ(expected.keys_found, actual.keys_found) << tag;
}

TEST(PartitionLifetimeTest, EveryStorageThreadAndEpsilonMatchesSerialMemory) {
  const Relation relation = Dataset(PaperDataset::kWisconsinBreastCancer, 300);
  for (const double epsilon : {0.0, 0.05}) {
    TaneConfig serial;
    serial.epsilon = epsilon;
    TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult expected,
                              Tane::Discover(relation, serial));
    ASSERT_GT(expected.stats.partition_products, 0);
    for (const StorageMode storage :
         {StorageMode::kMemory, StorageMode::kDisk, StorageMode::kAuto}) {
      for (const int threads : {1, 2, 4}) {
        const std::string tag =
            "eps=" + std::to_string(epsilon) +
            " storage=" + std::to_string(static_cast<int>(storage)) +
            " threads=" + std::to_string(threads);
        RunController controller;
        // A tiny budget: the auto store starts in memory and migrates to
        // disk during the run, with parents released on both sides of it.
        controller.set_memory_budget_bytes(16 << 10);
        TaneConfig config = serial;
        config.storage = storage;
        config.num_threads = threads;
        // Force the task window on every level, however small.
        config.parallel_min_window_rows = 0;
        if (storage == StorageMode::kAuto) config.run_controller = &controller;
        TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult actual,
                                  Tane::Discover(relation, config));
        EXPECT_EQ(actual.completion, Completion::kComplete) << tag;
        ExpectSameOutput(expected, actual, tag);
        ExpectSameWork(expected.stats, actual.stats, tag);
        if (storage == StorageMode::kAuto) {
          EXPECT_TRUE(actual.stats.degraded_to_disk) << tag;
        }
      }
    }
  }
}

// Products through each level of `full`: level 1 is built from the
// relation, every later node is one product.
std::vector<int64_t> CumulativeProducts(const DiscoveryResult& full) {
  std::vector<int64_t> through(full.stats.level_parallel.size() + 1, 0);
  for (const LevelParallelStats& row : full.stats.level_parallel) {
    through[row.level] =
        through[row.level - 1] + (row.level > 1 ? row.nodes : 0);
  }
  return through;
}

// Cancels 4-thread checkpointed runs at growing delays until one stops
// inside a level window (it did more products than the levels it
// completed), then resumes that run and expects the uninterrupted output.
void StopMidWindowAndResume(bool checkpoint_every_level,
                            const std::string& name) {
  const Relation relation = Dataset(PaperDataset::kAdult, 2000);
  TaneConfig base;
  base.epsilon = 0.05;
  base.num_threads = 4;
  base.parallel_min_window_rows = 0;
  TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult full,
                            Tane::Discover(relation, base));
  const std::vector<int64_t> through = CumulativeProducts(full);
  const double full_seconds = full.stats.wall_seconds;

  bool resumed_one = false;
  for (int attempt = 1; attempt <= 24 && !resumed_one; ++attempt) {
    const std::string dir = TempPath(name + std::to_string(attempt));
    std::filesystem::remove_all(dir);
    RunController controller;
    TaneConfig stop = base;
    stop.checkpoint_directory = dir;
    stop.checkpoint_every_level = checkpoint_every_level;
    stop.run_controller = &controller;
    const auto delay = std::chrono::duration<double>(full_seconds * attempt /
                                                     25.0);
    std::thread canceller([&controller, delay] {
      std::this_thread::sleep_for(delay);
      controller.RequestCancel();
    });
    StatusOr<DiscoveryResult> partial = Tane::Discover(relation, stop);
    canceller.join();
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    const bool mid_window =
        partial->completion == Completion::kCancelled &&
        partial->completed_levels >= 1 &&
        partial->stats.partition_products >
            through[partial->completed_levels];
    if (mid_window) {
      ASSERT_TRUE(partial->resumable) << attempt;
      TaneConfig resume = base;
      resume.checkpoint_directory = dir;
      resume.checkpoint_every_level = checkpoint_every_level;
      resume.resume = true;
      TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult resumed,
                                Tane::Discover(relation, resume));
      EXPECT_EQ(resumed.completion, Completion::kComplete);
      EXPECT_EQ(resumed.stats.resumed_from_level, partial->completed_levels);
      ExpectSameOutput(full, resumed, name + std::to_string(attempt));
      resumed_one = true;
    }
    std::filesystem::remove_all(dir);
  }
  EXPECT_TRUE(resumed_one) << "no cancel landed inside a level window";
}

TEST(PartitionLifetimeTest, MidWindowStopKeepsParentsForTheWindDownSnapshot) {
  // No per-level snapshot: the wind-down snapshot of the interrupted level
  // needs every survivor, so none may be released early.
  StopMidWindowAndResume(/*checkpoint_every_level=*/false, "tane_mid_defer_");
}

TEST(PartitionLifetimeTest, MidWindowStopWithPerLevelSnapshotsReleasesEarly) {
  // The level's snapshot already exists, so parents are released at their
  // last consumer's commit and the resume reads the per-level snapshot.
  StopMidWindowAndResume(/*checkpoint_every_level=*/true, "tane_mid_early_");
}

TEST(PartitionLifetimeTest, FailedSpillPutMidWindowReleasesEveryHandleOnce) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "built without TANE_ENABLE_FAILPOINTS";
  }
  const Relation relation = Dataset(PaperDataset::kWisconsinBreastCancer, 300);
  TaneConfig config;
  config.storage = StorageMode::kDisk;
  config.num_threads = 4;
  config.parallel_min_window_rows = 0;
  TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult full,
                            Tane::Discover(relation, config));
  // Every committed node is one Put. Failing persistently from two thirds
  // of the way in lands inside a late window, after its frontier has
  // already released parents.
  failpoint::Arm("disk_store.put", {.skip = full.stats.sets_generated * 2 / 3,
                                    .fail_times = 1'000'000'000});
  ::testing::internal::CaptureStderr();
  const StatusOr<DiscoveryResult> failed = Tane::Discover(relation, config);
  const std::string log = ::testing::internal::GetCapturedStderr();
  failpoint::ClearAll();
  ASSERT_FALSE(failed.ok());
  // The injected fault, not a NotFound from a second Release.
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError)
      << failed.status().ToString();
  // No cleanup Release failed, and the store ended empty.
  EXPECT_EQ(log.find("unknown handle"), std::string::npos) << log;
  EXPECT_EQ(log.find("never released"), std::string::npos) << log;
}

// Runs the CLI binary with `args`, stdout to `stdout_path`, and returns the
// child's max RSS in bytes, or -1 when it did not exit cleanly.
int64_t RunCli(const std::vector<std::string>& args,
               const std::string& stdout_path) {
  std::vector<std::string> owned = {TANE_CLI_BINARY};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int out = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    const int err = ::open("/dev/null", O_WRONLY);
    if (out < 0 || err < 0) ::_exit(127);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(126);
  }
  int status = 0;
  struct rusage usage {};
  if (pid < 0 || ::wait4(pid, &status, 0, &usage) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return -1;
  }
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

// Discovers the Adult stand-in at `rows` rows, 1 thread, ε = 0.05, in a
// fresh CLI process; returns its accounted peak and its max RSS, in bytes.
void MeasureAdult(int64_t rows, int64_t* peak_bytes, int64_t* max_rss) {
  const std::string csv = TempPath("tane_rss_adult" + std::to_string(rows));
  const std::string stats = csv + ".stats";
  ASSERT_GE(RunCli({"generate", "adult", "--rows=" + std::to_string(rows)},
                   csv),
            0);
  *max_rss = RunCli({"discover", csv, "--epsilon=0.05", "--stats"}, stats);
  ASSERT_GE(*max_rss, 0);
  std::ifstream in(stats);
  const std::string text(std::istreambuf_iterator<char>(in), {});
  const std::string key = "peak_partition_bytes=";
  const size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos) << text;
  *peak_bytes = std::stoll(text.substr(at + key.size()));
  std::filesystem::remove(csv);
  std::filesystem::remove(stats);
}

TEST(PartitionAccountingTest, PeakResidentBytesReconcileWithProcessRss) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators distort RSS";
  ASSERT_NE(std::string(TANE_CLI_BINARY), "");
  int64_t peak = 0;
  int64_t rss = 0;
  int64_t tiny_peak = 0;
  int64_t tiny_rss = 0;
  MeasureAdult(10'000, &peak, &rss);
  MeasureAdult(20, &tiny_peak, &tiny_rss);
  // The accounting never claims memory the process does not hold...
  EXPECT_LE(peak, rss);
  // ...and explains at least 80% of what the run added over a 20-row run
  // of the same binary (code, libraries, allocator arenas).
  EXPECT_GE(static_cast<double>(peak),
            0.8 * static_cast<double>(rss - tiny_rss))
      << "peak " << peak << " rss " << rss << " 20-row rss " << tiny_rss;
}

TEST(PartitionAccountingTest, BudgetBetweenExactAndWorstCasePeaksCompletes) {
  // Worst-case product capacities and parents kept to the level boundary
  // put this run's accounted peak at ~184 MB; exactly sized partitions
  // released at their last consumer's commit peak at ~67 MB.
  const Relation relation = Dataset(PaperDataset::kAdult, 10'000);
  RunController controller;
  constexpr int64_t kBudget = int64_t{120} << 20;
  controller.set_memory_budget_bytes(kBudget);
  TaneConfig config;
  config.epsilon = 0.05;
  config.run_controller = &controller;  // storage stays kMemory
  TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult result,
                            Tane::Discover(relation, config));
  EXPECT_EQ(result.completion, Completion::kComplete);
  EXPECT_LE(result.stats.peak_partition_bytes, kBudget);
}

}  // namespace
}  // namespace tane
