#include <filesystem>
#include <string>

#include "core/tane.h"
#include "datasets/generators.h"
#include "datasets/paper_datasets.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "util/failpoint.h"

namespace tane {
namespace {

using testing_util::FdStrings;
using testing_util::PaperFigure1Relation;

TEST(TaneDiskTest, DiskModeMatchesMemoryModeOnPaperExample) {
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> disk_result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_TRUE(disk_result.ok()) << disk_result.status().ToString();
  StatusOr<DiscoveryResult> mem_result =
      Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(mem_result.ok());
  EXPECT_EQ(FdStrings(disk_result->fds), FdStrings(mem_result->fds));
  EXPECT_EQ(disk_result->keys, mem_result->keys);
}

TEST(TaneDiskTest, DiskModeWritesSpillBytes) {
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.spill_bytes_written, 0);
}

TEST(TaneDiskTest, NamedSpillDirectoryIsCleanedUp) {
  const std::string directory = ::testing::TempDir() + "/tane_disk_test_spill";
  std::filesystem::remove_all(directory);
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  disk.spill_directory = directory;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_TRUE(result.ok());
  // The store created (and therefore owns and removed) the directory.
  EXPECT_FALSE(std::filesystem::exists(directory));
}

TEST(TaneDiskTest, DiskModeMatchesMemoryOnSyntheticData) {
  StatusOr<Relation> relation = GenerateUniform(
      /*rows=*/200, /*cols=*/6, /*cardinality=*/4, /*seed=*/11);
  ASSERT_TRUE(relation.ok());
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> disk_result = Tane::Discover(*relation, disk);
  StatusOr<DiscoveryResult> mem_result = Tane::Discover(*relation);
  ASSERT_TRUE(disk_result.ok() && mem_result.ok());
  EXPECT_EQ(FdStrings(disk_result->fds), FdStrings(mem_result->fds));
}

TEST(TaneDiskTest, DiskModeApproximateMatchesMemory) {
  StatusOr<Relation> relation = GenerateUniform(
      /*rows=*/120, /*cols=*/5, /*cardinality=*/3, /*seed=*/5);
  ASSERT_TRUE(relation.ok());
  for (double epsilon : {0.05, 0.2}) {
    TaneConfig disk;
    disk.storage = StorageMode::kDisk;
    disk.epsilon = epsilon;
    TaneConfig mem;
    mem.epsilon = epsilon;
    StatusOr<DiscoveryResult> disk_result = Tane::Discover(*relation, disk);
    StatusOr<DiscoveryResult> mem_result = Tane::Discover(*relation, mem);
    ASSERT_TRUE(disk_result.ok() && mem_result.ok());
    EXPECT_EQ(FdStrings(disk_result->fds), FdStrings(mem_result->fds))
        << "eps=" << epsilon;
  }
}

Relation WbcStandIn() {
  StatusOr<Relation> relation =
      MakePaperDataset(PaperDataset::kWisconsinBreastCancer);
  EXPECT_TRUE(relation.ok()) << relation.status().ToString();
  return std::move(relation).value();
}

TEST(TaneDiskTest, SerialDiskRunReadsEachParentAboutOnce) {
  // Candidates grouped by left parent let the accessor LRU serve every
  // product after the first of a group from cache, so a serial run reads
  // back fewer records than it computes products (mask order interleaved
  // left parents and needed ~1.9 reads per product here), and the product
  // reuses its left labels.
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> result = Tane::Discover(WbcStandIn(), disk);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int64_t products = result->stats.partition_products;
  const int64_t reads = result->metrics.counter(obs::kSpillReads);
  ASSERT_GT(products, 0);
  EXPECT_LE(reads, products);
  EXPECT_GT(result->stats.product_label_reuses, 0);
}

TEST(TaneDiskTest, FourThreadDiskRunMatchesSerialMemoryRun) {
  const Relation relation = WbcStandIn();
  for (double epsilon : {0.0, 0.05}) {
    TaneConfig mem;
    mem.epsilon = epsilon;
    TaneConfig disk = mem;
    disk.storage = StorageMode::kDisk;
    disk.num_threads = 4;
    // Force the parallel task window on every level.
    disk.parallel_min_window_rows = 0;
    StatusOr<DiscoveryResult> expected = Tane::Discover(relation, mem);
    StatusOr<DiscoveryResult> actual = Tane::Discover(relation, disk);
    ASSERT_TRUE(expected.ok() && actual.ok());
    // Element for element, in emission order, with bit-identical errors.
    ASSERT_EQ(actual->fds.size(), expected->fds.size()) << epsilon;
    for (size_t i = 0; i < expected->fds.size(); ++i) {
      EXPECT_EQ(actual->fds[i].lhs, expected->fds[i].lhs) << epsilon;
      EXPECT_EQ(actual->fds[i].rhs, expected->fds[i].rhs) << epsilon;
      EXPECT_EQ(actual->fds[i].error, expected->fds[i].error) << epsilon;
    }
    EXPECT_EQ(actual->keys, expected->keys) << epsilon;
    EXPECT_EQ(actual->stats.partition_products,
              expected->stats.partition_products);
    EXPECT_EQ(actual->stats.validity_tests, expected->stats.validity_tests);
    EXPECT_GT(actual->metrics.counter(obs::kSpillReads), 0);
  }
}

// Fault injection into the spill path of a full discovery run. These tests
// arm failpoints inside DiskPartitionStore (see util/failpoint.h); they are
// skipped when the build compiled the injection sites out.
class TaneSpillFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "built without TANE_ENABLE_FAILPOINTS";
    }
  }
  void TearDown() override { failpoint::ClearAll(); }
};

TEST_F(TaneSpillFaultTest, TransientSpillWriteErrorsAreRetriedToSuccess) {
  // Two failures is below the default four attempts, so the first spill
  // write recovers via backoff and the run must succeed end to end.
  failpoint::Arm("disk_store.put", {.skip = 0, .fail_times = 2});
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(failpoint::HitCount("disk_store.put"), 3);

  StatusOr<DiscoveryResult> mem = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(FdStrings(result->fds), FdStrings(mem->fds));
}

TEST_F(TaneSpillFaultTest, TransientSpillReadErrorsAreRetriedToSuccess) {
  failpoint::Arm("disk_store.get", {.skip = 0, .fail_times = 2});
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  StatusOr<DiscoveryResult> mem = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(FdStrings(result->fds), FdStrings(mem->fds));
}

TEST_F(TaneSpillFaultTest, PersistentWriteFailureSurfacesIoErrorWithPath) {
  const std::string directory =
      ::testing::TempDir() + "/tane_spill_fault_dir";
  std::filesystem::remove_all(directory);
  failpoint::Arm("disk_store.put",
                 {.skip = 0, .fail_times = 1'000'000'000});
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  disk.spill_directory = directory;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  // The error names the spill path so operators can find the bad device.
  EXPECT_NE(result.status().message().find(directory), std::string::npos)
      << result.status().ToString();
  // Retries were actually attempted before giving up.
  EXPECT_GE(failpoint::HitCount("disk_store.put"), 4);
  // The failed run tore down its spill directory behind itself.
  EXPECT_FALSE(std::filesystem::exists(directory));
}

TEST_F(TaneSpillFaultTest, PersistentSegmentCreationFailureSurfaces) {
  failpoint::Arm("disk_store.open_segment",
                 {.skip = 0, .fail_times = 1'000'000'000});
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(TaneDiskTest, MemoryModeResidencyExceedsDiskMode) {
  StatusOr<Relation> relation = GenerateUniform(
      /*rows=*/300, /*cols=*/7, /*cardinality=*/3, /*seed=*/17);
  ASSERT_TRUE(relation.ok());
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> disk_result = Tane::Discover(*relation, disk);
  StatusOr<DiscoveryResult> mem_result = Tane::Discover(*relation);
  ASSERT_TRUE(disk_result.ok() && mem_result.ok());
  // The disk variant keeps only an O(1) cache resident.
  EXPECT_LT(disk_result->stats.peak_partition_bytes,
            mem_result->stats.peak_partition_bytes);
}

}  // namespace
}  // namespace tane
