#include "core/partition_store.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "partition/partition_builder.h"
#include "tests/test_util.h"
#include "util/crc32.h"
#include "util/failpoint.h"

namespace tane {
namespace {

StrippedPartition SamplePartition() {
  return StrippedPartition::Create(8, {0, 1, 2, 3, 4}, {0, 2, 5}, true)
      .value();
}

TEST(SerializationTest, RoundTrip) {
  StrippedPartition original = SamplePartition();
  StatusOr<StrippedPartition> decoded =
      DeserializePartition(SerializePartition(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, original);
}

TEST(SerializationTest, RoundTripUnstripped) {
  StrippedPartition original = SamplePartition().Unstripped();
  StatusOr<StrippedPartition> decoded =
      DeserializePartition(SerializePartition(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
  EXPECT_FALSE(decoded->stripped());
}

TEST(SerializationTest, RoundTripEmpty) {
  StrippedPartition original(3);
  StatusOr<StrippedPartition> decoded =
      DeserializePartition(SerializePartition(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(SerializationTest, RejectsCorruptInput) {
  EXPECT_FALSE(DeserializePartition("").ok());
  EXPECT_FALSE(DeserializePartition("garbage").ok());
  std::string bytes = SerializePartition(SamplePartition());
  bytes[0] ^= 0xFF;  // break the magic
  EXPECT_FALSE(DeserializePartition(bytes).ok());
  std::string truncated =
      SerializePartition(SamplePartition()).substr(0, 20);
  EXPECT_FALSE(DeserializePartition(truncated).ok());
}

template <typename StoreFactory>
void ExercisePutGetRelease(StoreFactory make_store) {
  auto store = make_store();
  StrippedPartition partition = SamplePartition();
  StatusOr<int64_t> handle = store->Put(partition);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  StatusOr<StrippedPartition> loaded = store->Get(*handle);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, partition);
  TANE_ASSERT_OK(store->Release(*handle));
  EXPECT_FALSE(store->Get(*handle).ok());
  EXPECT_FALSE(store->Release(*handle).ok());
}

TEST(MemoryPartitionStoreTest, PutGetRelease) {
  ExercisePutGetRelease([] { return std::make_unique<MemoryPartitionStore>(); });
}

TEST(MemoryPartitionStoreTest, PeekBorrowsWithoutCopy) {
  MemoryPartitionStore store;
  StatusOr<int64_t> handle = store.Put(SamplePartition());
  ASSERT_TRUE(handle.ok());
  const StrippedPartition* borrowed = store.Peek(*handle);
  ASSERT_NE(borrowed, nullptr);
  EXPECT_EQ(*borrowed, SamplePartition());
  TANE_ASSERT_OK(store.Release(*handle));
  EXPECT_EQ(store.Peek(*handle), nullptr);
}

TEST(MemoryPartitionStoreTest, TracksResidentBytes) {
  MemoryPartitionStore store;
  EXPECT_EQ(store.resident_bytes(), 0);
  StatusOr<int64_t> handle = store.Put(SamplePartition());
  ASSERT_TRUE(handle.ok());
  EXPECT_GT(store.resident_bytes(), 0);
  TANE_ASSERT_OK(store.Release(*handle));
  EXPECT_EQ(store.resident_bytes(), 0);
  EXPECT_EQ(store.bytes_written(), 0);
}

TEST(DiskPartitionStoreTest, PutGetRelease) {
  ExercisePutGetRelease([] {
    StatusOr<std::unique_ptr<DiskPartitionStore>> store =
        DiskPartitionStore::Open();
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  });
}

TEST(DiskPartitionStoreTest, WritesBytesAndCleansUpDirectory) {
  std::string directory;
  {
    StatusOr<std::unique_ptr<DiskPartitionStore>> store =
        DiskPartitionStore::Open();
    ASSERT_TRUE(store.ok());
    directory = (*store)->directory();
    StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
    ASSERT_TRUE(handle.ok());
    EXPECT_GT((*store)->bytes_written(), 0);
    EXPECT_TRUE(std::filesystem::exists(directory));
    // Peek never serves from disk.
    EXPECT_EQ((*store)->Peek(*handle), nullptr);
  }
  EXPECT_FALSE(std::filesystem::exists(directory));
}

TEST(DiskPartitionStoreTest, NamedDirectoryIsCreated) {
  const std::string directory =
      ::testing::TempDir() + "/tane_store_test_dir";
  std::filesystem::remove_all(directory);
  {
    StatusOr<std::unique_ptr<DiskPartitionStore>> store =
        DiskPartitionStore::Open(directory);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(std::filesystem::exists(directory));
    StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
    ASSERT_TRUE(handle.ok());
  }
  // The store created the directory, so it owns and removes it.
  EXPECT_FALSE(std::filesystem::exists(directory));
}

TEST(DiskPartitionStoreTest, ManyPartitions) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  std::vector<int64_t> handles;
  for (int i = 0; i < 20; ++i) {
    StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  for (int64_t handle : handles) {
    StatusOr<StrippedPartition> loaded = (*store)->Get(handle);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, SamplePartition());
    TANE_ASSERT_OK((*store)->Release(handle));
  }
}

// A retry policy that records backoff waits instead of sleeping, keeping
// the persistent-failure tests fast.
RetryPolicy NoSleepPolicy(int* sleep_count = nullptr) {
  RetryPolicy policy;
  policy.sleep = [sleep_count](std::chrono::milliseconds) {
    if (sleep_count != nullptr) ++*sleep_count;
  };
  return policy;
}

int CountDirectoryEntries(const std::string& directory) {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(directory)) {
    ++count;
  }
  return count;
}

class DiskStoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "built without TANE_ENABLE_FAILPOINTS";
    }
  }
  void TearDown() override { failpoint::ClearAll(); }
};

TEST_F(DiskStoreFaultTest, CorruptedSegmentByteIsCaughtByChecksum) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
  ASSERT_TRUE(handle.ok());

  // Flip one payload byte on disk, past the 4-byte checksum header.
  const std::string segment =
      (std::filesystem::path((*store)->directory()) / "seg0.bin").string();
  ASSERT_TRUE(std::filesystem::exists(segment));
  {
    std::fstream file(segment,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(10);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(10);
    file.write(&byte, 1);
  }

  // Retries must not mask corruption: every attempt re-reads the same bad
  // bytes, so the checksum failure has to surface as a non-retried error.
  (*store)->set_retry_policy(NoSleepPolicy());
  StatusOr<StrippedPartition> loaded = (*store)->Get(*handle);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("seg0.bin"), std::string::npos);
}

TEST_F(DiskStoreFaultTest, TransientWriteErrorIsRetriedWithBackoff) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  int sleeps = 0;
  (*store)->set_retry_policy(NoSleepPolicy(&sleeps));
  failpoint::Arm("disk_store.put", {.skip = 0, .fail_times = 2});
  StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(sleeps, 2);
  StatusOr<StrippedPartition> loaded = (*store)->Get(*handle);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, SamplePartition());
}

TEST_F(DiskStoreFaultTest, FailedPutLeavesNoStraySegmentFiles) {
  const std::string directory =
      ::testing::TempDir() + "/tane_store_fault_dir";
  std::filesystem::remove_all(directory);
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open(directory);
  ASSERT_TRUE(store.ok());
  (*store)->set_retry_policy(NoSleepPolicy());

  failpoint::Arm("disk_store.put",
                 {.skip = 0, .fail_times = 1'000'000'000});
  StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kIoError);
  EXPECT_NE(handle.status().message().find(directory), std::string::npos);
  // The torn segment was unlinked: the spill directory is empty again.
  EXPECT_EQ(CountDirectoryEntries(directory), 0);

  // The store stays usable once the fault clears.
  failpoint::ClearAll();
  StatusOr<int64_t> recovered = (*store)->Put(SamplePartition());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  StatusOr<StrippedPartition> loaded = (*store)->Get(*recovered);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, SamplePartition());
}

TEST_F(DiskStoreFaultTest, FailedWriteTruncatesButKeepsLiveRecords) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  (*store)->set_retry_policy(NoSleepPolicy());
  StatusOr<int64_t> first = (*store)->Put(SamplePartition());
  ASSERT_TRUE(first.ok());
  const int64_t durable_bytes = (*store)->disk_bytes();

  failpoint::Arm("disk_store.put",
                 {.skip = 0, .fail_times = 1'000'000'000});
  ASSERT_FALSE((*store)->Put(SamplePartition()).ok());
  failpoint::ClearAll();

  // The earlier record survived the neighbouring failure intact.
  EXPECT_EQ((*store)->disk_bytes(), durable_bytes);
  StatusOr<StrippedPartition> loaded = (*store)->Get(*first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, SamplePartition());
}

TEST_F(DiskStoreFaultTest, FailedSegmentCreationLeavesNoFile) {
  const std::string directory =
      ::testing::TempDir() + "/tane_store_fault_open_dir";
  std::filesystem::remove_all(directory);
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open(directory);
  ASSERT_TRUE(store.ok());
  failpoint::Arm("disk_store.open_segment", {.skip = 0, .fail_times = 1});
  ASSERT_FALSE((*store)->Put(SamplePartition()).ok());
  EXPECT_EQ(CountDirectoryEntries(directory), 0);
}

// Spill-record format: the vectored Put/Get must keep the record bytes
// exactly [Crc32(image)][image] with image = SerializePartition(p).

std::string SegmentPath(const DiskPartitionStore& store) {
  return (std::filesystem::path(store.directory()) / "seg0.bin").string();
}

void FlipByte(const std::string& path, int64_t position) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(position);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x04);
  file.seekp(position);
  file.write(&byte, 1);
}

StrippedPartition LargerPartition() {
  return StrippedPartition::Create(
             40, {3, 9, 1, 0, 7, 30, 31, 12, 5, 6, 22}, {0, 2, 5, 7, 11},
             true)
      .value();
}

TEST(DiskPartitionStoreTest, RecordBytesAreCrcThenSerializedImage) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  std::string expected;
  for (const StrippedPartition& partition :
       {LargerPartition(), StrippedPartition(5), SamplePartition().Unstripped()}) {
    ASSERT_TRUE((*store)->Put(partition).ok());
    const std::string image = SerializePartition(partition);
    const uint32_t crc = Crc32(image);
    expected.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    expected += image;
  }
  std::ifstream in(SegmentPath(**store), std::ios::binary);
  const std::string raw((std::istreambuf_iterator<char>(in)), {});
  EXPECT_EQ(raw, expected);
  EXPECT_EQ((*store)->bytes_written(), static_cast<int64_t>(expected.size()));
}

TEST(DiskPartitionStoreTest, FlippedByteInAnyRegionIsAChecksumMismatch) {
  const StrippedPartition partition = LargerPartition();
  const int64_t rows_bytes =
      static_cast<int64_t>(partition.row_ids().size() * sizeof(int32_t));
  const int64_t offsets_bytes = static_cast<int64_t>(
      partition.class_offsets().size() * sizeof(int32_t));
  const int64_t header_bytes =
      static_cast<int64_t>(SerializePartition(partition).size()) -
      rows_bytes - offsets_bytes;
  const int64_t crc_bytes = sizeof(uint32_t);
  const struct {
    const char* region;
    int64_t position;
  } flips[] = {
      {"header", crc_bytes + header_bytes - 1},
      {"row ids", crc_bytes + header_bytes + rows_bytes / 2},
      {"offsets", crc_bytes + header_bytes + rows_bytes + offsets_bytes - 1},
  };
  for (const auto& flip : flips) {
    StatusOr<std::unique_ptr<DiskPartitionStore>> store =
        DiskPartitionStore::Open();
    ASSERT_TRUE(store.ok());
    StatusOr<int64_t> handle = (*store)->Put(partition);
    ASSERT_TRUE(handle.ok());
    FlipByte(SegmentPath(**store), flip.position);
    StatusOr<StrippedPartition> loaded = (*store)->Get(*handle);
    ASSERT_FALSE(loaded.ok()) << flip.region;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << flip.region;
    EXPECT_NE(loaded.status().message().find("checksum mismatch"),
              std::string::npos)
        << flip.region << ": " << loaded.status().ToString();
  }
}

TEST(DiskPartitionStoreTest, HeaderMustMatchTheIndexEntry) {
  // Two records of equal length whose arrays split differently (4+3 and
  // 5+2 int32s). Copying the second over the first keeps the CRC valid —
  // it is chained over the same byte stream — so only the header check
  // against the store's index entry can catch the swap.
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  const StrippedPartition first =
      StrippedPartition::Create(8, {0, 1, 2, 3}, {0, 2, 4}, true).value();
  const StrippedPartition second =
      StrippedPartition::Create(8, {0, 1, 2, 3, 4}, {0, 5}, true).value();
  StatusOr<int64_t> handle = (*store)->Put(first);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE((*store)->Put(second).ok());
  const std::string path = SegmentPath(**store);
  std::string raw;
  {
    std::ifstream in(path, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(raw.size() % 2, 0u);
  const size_t half = raw.size() / 2;
  {
    std::fstream out(path, std::ios::in | std::ios::out | std::ios::binary);
    out.write(raw.data() + half, static_cast<std::streamsize>(half));
  }
  StatusOr<StrippedPartition> loaded = (*store)->Get(*handle);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  EXPECT_NE(loaded.status().message().find("does not match its index entry"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(DiskPartitionStoreTest, ShortSegmentIsReportedTruncated) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  (*store)->set_retry_policy(NoSleepPolicy());
  StatusOr<int64_t> handle = (*store)->Put(LargerPartition());
  ASSERT_TRUE(handle.ok());
  const std::string path = SegmentPath(**store);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  StatusOr<StrippedPartition> loaded = (*store)->Get(*handle);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("segment truncated"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(path), std::string::npos);
}

TEST(AutoPartitionStoreTest, StaysInMemoryUnderBudget) {
  AutoPartitionStore store(/*budget_bytes=*/1 << 20, "");
  StatusOr<int64_t> handle = store.Put(SamplePartition());
  ASSERT_TRUE(handle.ok());
  EXPECT_FALSE(store.spilled());
  EXPECT_GT(store.resident_bytes(), 0);
  EXPECT_EQ(store.bytes_written(), 0);
  // Peek serves straight from the in-memory inner store.
  EXPECT_NE(store.Peek(*handle), nullptr);
  StatusOr<StrippedPartition> loaded = store.Get(*handle);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, SamplePartition());
  TANE_ASSERT_OK(store.Release(*handle));
}

TEST(AutoPartitionStoreTest, SpillsOnceBudgetExceededAndHandlesSurvive) {
  AutoPartitionStore store(/*budget_bytes=*/1, "");
  std::vector<int64_t> handles;
  for (int i = 0; i < 5; ++i) {
    StatusOr<int64_t> handle = store.Put(SamplePartition());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  EXPECT_TRUE(store.spilled());
  EXPECT_EQ(store.resident_bytes(), 0);
  EXPECT_GT(store.bytes_written(), 0);
  // Handles issued before the migration still resolve to their partitions.
  for (int64_t handle : handles) {
    StatusOr<StrippedPartition> loaded = store.Get(handle);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, SamplePartition());
  }
  for (int64_t handle : handles) {
    TANE_ASSERT_OK(store.Release(handle));
  }
  EXPECT_FALSE(store.Get(handles[0]).ok());
}

TEST(AutoPartitionStoreTest, ZeroBudgetMeansUnlimited) {
  AutoPartitionStore store(/*budget_bytes=*/0, "");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Put(SamplePartition()).ok());
  }
  EXPECT_FALSE(store.spilled());
  EXPECT_EQ(store.bytes_written(), 0);
}

TEST(AutoPartitionStoreTest, PutGetRelease) {
  ExercisePutGetRelease(
      [] { return std::make_unique<AutoPartitionStore>(1 << 20, ""); });
  // And the same contract after degradation to disk.
  ExercisePutGetRelease(
      [] { return std::make_unique<AutoPartitionStore>(1, ""); });
}

}  // namespace
}  // namespace tane
