#include "core/partition_store.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/mutex.h"

namespace tane {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// MemoryPartitionStore

StatusOr<int64_t> MemoryPartitionStore::Put(StrippedPartition partition) {
  const int64_t handle = next_handle_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[handle & (kStripes - 1)];
  WriterMutexLock lock(&stripe.mu);
  stripe.resident_bytes += partition.EstimatedBytes();
  stripe.partitions.emplace(handle, std::move(partition));
  return handle;
}

StatusOr<StrippedPartition> MemoryPartitionStore::Get(int64_t handle) {
  const Stripe& stripe = stripes_[handle & (kStripes - 1)];
  ReaderMutexLock lock(&stripe.mu);
  auto it = stripe.partitions.find(handle);
  if (it == stripe.partitions.end()) {
    return Status::NotFound("no partition with handle " +
                            std::to_string(handle));
  }
  return it->second;
}

const StrippedPartition* MemoryPartitionStore::Peek(int64_t handle) const {
  const Stripe& stripe = stripes_[handle & (kStripes - 1)];
  ReaderMutexLock lock(&stripe.mu);
  auto it = stripe.partitions.find(handle);
  // The pointer outlives the lock: elements of an unordered_map are stable
  // until erased, so concurrent Puts (this stripe or any other) never move
  // the partition; only Release of this handle invalidates the pointer.
  return it == stripe.partitions.end() ? nullptr : &it->second;
}

Status MemoryPartitionStore::Release(int64_t handle) {
  Stripe& stripe = stripes_[handle & (kStripes - 1)];
  WriterMutexLock lock(&stripe.mu);
  auto it = stripe.partitions.find(handle);
  if (it == stripe.partitions.end()) {
    return Status::NotFound("release of unknown handle " +
                            std::to_string(handle));
  }
  stripe.resident_bytes -= it->second.EstimatedBytes();
  stripe.partitions.erase(it);
  return Status::OK();
}

int64_t MemoryPartitionStore::live_partitions() const {
  int64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    ReaderMutexLock lock(&stripe.mu);
    total += static_cast<int64_t>(stripe.partitions.size());
  }
  return total;
}

int64_t MemoryPartitionStore::resident_bytes() const {
  int64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    ReaderMutexLock lock(&stripe.mu);
    total += stripe.resident_bytes;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Serialization

namespace {

constexpr uint32_t kPartitionMagic = 0x54414E45;  // "TANE"

template <typename T>
bool ReadPod(std::string_view* in, T* value) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(value, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

// The fixed-size head of a serialized partition: magic, stripped flag, row
// count, member-row count, offset count — packed, no padding.
constexpr size_t kHeaderBytes =
    sizeof(uint32_t) + sizeof(uint8_t) + 3 * sizeof(int64_t);
using HeaderBytes = std::array<char, kHeaderBytes>;

struct PartitionHeader {
  bool stripped = false;
  int64_t num_rows = 0;
  int64_t num_member_rows = 0;
  int64_t num_offsets = 0;
};

HeaderBytes EncodeHeader(const StrippedPartition& partition) {
  HeaderBytes header{};
  char* out = header.data();
  const auto put = [&out](auto value) {
    std::memcpy(out, &value, sizeof(value));
    out += sizeof(value);
  };
  put(kPartitionMagic);
  put(static_cast<uint8_t>(partition.stripped() ? 1 : 0));
  put(partition.num_rows());
  put(static_cast<int64_t>(partition.row_ids().size()));
  put(static_cast<int64_t>(partition.class_offsets().size()));
  return header;
}

// Parses and sanity-checks a header off the front of `bytes`.
Status DecodeHeader(std::string_view* bytes, PartitionHeader* header) {
  uint32_t magic = 0;
  uint8_t stripped = 0;
  if (!ReadPod(bytes, &magic) || magic != kPartitionMagic) {
    return Status::InvalidArgument("bad partition magic");
  }
  if (!ReadPod(bytes, &stripped) || !ReadPod(bytes, &header->num_rows) ||
      !ReadPod(bytes, &header->num_member_rows) ||
      !ReadPod(bytes, &header->num_offsets)) {
    return Status::InvalidArgument("truncated partition header");
  }
  if (header->num_rows < 0 || header->num_member_rows < 0 ||
      header->num_offsets < 1) {
    return Status::InvalidArgument("corrupt partition header");
  }
  header->stripped = stripped != 0;
  return Status::OK();
}

// The bytes of an int32 array as they are laid out on disk. Empty vectors
// may have a null data(); a null, empty view is fine for Crc32 and iovec.
std::string_view ArrayBytes(const std::vector<int32_t>& values) {
  return values.empty()
             ? std::string_view()
             : std::string_view(reinterpret_cast<const char*>(values.data()),
                                values.size() * sizeof(int32_t));
}

}  // namespace

std::string SerializePartition(const StrippedPartition& partition) {
  const HeaderBytes header = EncodeHeader(partition);
  const std::string_view rows = ArrayBytes(partition.row_ids());
  const std::string_view offsets = ArrayBytes(partition.class_offsets());
  std::string out;
  out.reserve(header.size() + rows.size() + offsets.size());
  out.append(header.data(), header.size());
  out.append(rows);
  out.append(offsets);
  return out;
}

StatusOr<StrippedPartition> DeserializePartition(std::string_view bytes) {
  PartitionHeader header;
  TANE_RETURN_IF_ERROR(DecodeHeader(&bytes, &header));
  const size_t payload =
      (static_cast<size_t>(header.num_member_rows) + header.num_offsets) *
      sizeof(int32_t);
  if (bytes.size() != payload) {
    return Status::InvalidArgument("partition payload size mismatch");
  }
  std::vector<int32_t> row_ids(header.num_member_rows);
  std::vector<int32_t> offsets(header.num_offsets);
  if (header.num_member_rows > 0) {
    std::memcpy(row_ids.data(), bytes.data(),
                header.num_member_rows * sizeof(int32_t));
  }
  std::memcpy(offsets.data(),
              bytes.data() + header.num_member_rows * sizeof(int32_t),
              header.num_offsets * sizeof(int32_t));
  return StrippedPartition::Create(header.num_rows, std::move(row_ids),
                                   std::move(offsets), header.stripped);
}

// ---------------------------------------------------------------------------
// DiskPartitionStore

namespace {

// A spill record is [crc32][header][row ids][offsets]: exactly the CRC of
// the SerializePartition image followed by that image, gathered from (and
// scattered into) the partition's own arrays by one pwritev/preadv.
using RecordParts = std::array<iovec, 4>;

int64_t RecordBytes(int64_t member_rows, int64_t offsets) {
  return static_cast<int64_t>(sizeof(uint32_t) + kHeaderBytes) +
         (member_rows + offsets) * static_cast<int64_t>(sizeof(int32_t));
}

iovec Part(const void* data, size_t size) {
  // pwritev never writes through iov_base; preadv callers pass mutable
  // buffers.
  return iovec{const_cast<void*>(data), size};
}

uint32_t RecordCrc(const HeaderBytes& header, std::string_view rows,
                   std::string_view offsets) {
  return Crc32(offsets,
               Crc32(rows, Crc32(std::string_view(header.data(),
                                                  header.size()))));
}

// Drops `n` transferred bytes off the front of `parts`, together with any
// parts left empty, so the next call resumes exactly where the last stopped.
void Advance(iovec** parts, int* count, size_t n) {
  while (*count > 0 && n >= (*parts)->iov_len) {
    n -= (*parts)->iov_len;
    ++*parts;
    --*count;
  }
  if (*count > 0) {
    (*parts)->iov_base = static_cast<char*>((*parts)->iov_base) + n;
    (*parts)->iov_len -= n;
  }
}

// One write/read attempt of a whole record at a fixed offset, looping over
// short transfers and EINTR; retried by Put/Get on transient errors. Each
// attempt works on its own copy of `record`.
Status WriteRecordOnce(int fd, RecordParts record, int64_t offset) {
  TANE_INJECT_FAILPOINT("disk_store.put");
  iovec* next = record.data();
  int count = static_cast<int>(record.size());
  Advance(&next, &count, 0);
  int64_t written = 0;
  while (count > 0) {
    const ssize_t n = ::pwritev(fd, next, count, offset + written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwritev: ") + std::strerror(errno));
    }
    written += n;
    Advance(&next, &count, static_cast<size_t>(n));
  }
  return Status::OK();
}

Status ReadRecordOnce(int fd, RecordParts record, int64_t offset) {
  TANE_INJECT_FAILPOINT("disk_store.get");
  iovec* next = record.data();
  int count = static_cast<int>(record.size());
  Advance(&next, &count, 0);
  int64_t read = 0;
  while (count > 0) {
    const ssize_t n = ::preadv(fd, next, count, offset + read);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("preadv: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IoError("segment truncated");
    read += n;
    Advance(&next, &count, static_cast<size_t>(n));
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<DiskPartitionStore>> DiskPartitionStore::Open(
    std::string directory) {
  std::error_code ec;
  bool owns = false;
  if (directory.empty()) {
    fs::path base = fs::temp_directory_path(ec);
    if (ec) return Status::IoError("no temp directory: " + ec.message());
    // Pick an unused name; PIDs and a counter keep concurrent runs apart.
    static int counter = 0;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      fs::path candidate =
          base / ("tane-spill-" + std::to_string(::getpid()) + "-" +
                  std::to_string(counter++));
      if (fs::create_directory(candidate, ec) && !ec) {
        directory = candidate.string();
        owns = true;
        break;
      }
    }
    if (directory.empty()) {
      return Status::IoError("could not create a spill directory");
    }
  } else if (!fs::exists(directory, ec)) {
    if (!fs::create_directories(directory, ec) || ec) {
      return Status::IoError("cannot create spill directory " + directory +
                             ": " + ec.message());
    }
    owns = true;
  }
  // Private constructor: make_unique cannot reach it, so the raw new is
  // wrapped immediately. tane-lint: allow(naked-new)
  return std::unique_ptr<DiskPartitionStore>(
      new DiskPartitionStore(std::move(directory), owns));
}

DiskPartitionStore::~DiskPartitionStore() {
  std::error_code ec;
  for (size_t segment = 0; segment < segments_.size(); ++segment) {
    if (segments_[segment].fd >= 0) {
      ::close(segments_[segment].fd);
      fs::remove(SegmentPath(static_cast<int32_t>(segment)), ec);
    }
  }
  if (owns_directory_) fs::remove_all(directory_, ec);
}

std::string DiskPartitionStore::SegmentPath(int32_t segment) const {
  return (fs::path(directory_) / ("seg" + std::to_string(segment) + ".bin"))
      .string();
}

Status DiskPartitionStore::OpenNewSegment() {
  const int32_t id = static_cast<int32_t>(segments_.size());
  const std::string path = SegmentPath(id);
  TANE_INJECT_FAILPOINT("disk_store.open_segment");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  if (fd < 0) {
    const int err = errno;
    // O_CREAT can leave an empty file behind on some failures; don't.
    std::error_code ec;
    fs::remove(path, ec);
    return Status::IoError("cannot create segment " + path + ": " +
                           std::strerror(err));
  }
  segments_.push_back(Segment{fd, 0, 0, false});
  return Status::OK();
}

void DiskPartitionStore::CleanupFailedWrite(int32_t segment_id) {
  Segment& segment = segments_[segment_id];
  if (segment.fd < 0) return;
  if (segment.live_partitions == 0) {
    // Nothing durable lives here: drop the whole torn segment file.
    ::close(segment.fd);
    segment.fd = -1;
    segment.sealed = true;
    std::error_code ec;
    fs::remove(SegmentPath(segment_id), ec);
    return;
  }
  // Earlier records are still live; just cut the partial record off. The
  // truncate is best-effort (the primary write error is already being
  // surfaced), but a failure means a torn record stays on disk — log it.
  if (::ftruncate(segment.fd, segment.bytes) != 0) {
    TANE_LOG(Warning) << "could not truncate torn spill record in "
                      << SegmentPath(segment_id) << ": "
                      << std::strerror(errno);
  }
}

void DiskPartitionStore::DropSegmentIfDead(int32_t segment_id) {
  Segment& segment = segments_[segment_id];
  if (segment.fd < 0 || !segment.sealed || segment.live_partitions > 0) {
    return;
  }
  ::close(segment.fd);
  segment.fd = -1;
  std::error_code ec;
  fs::remove(SegmentPath(segment_id), ec);
}

StatusOr<int64_t> DiskPartitionStore::Put(StrippedPartition partition) {
  WriterMutexLock lock(&mu_);
  if (segments_.empty() || segments_.back().sealed) {
    TANE_RETURN_IF_ERROR(OpenNewSegment());
  }
  const int32_t segment_id = static_cast<int32_t>(segments_.size()) - 1;
  Segment& segment = segments_[segment_id];

  // Record layout: CRC32 of the SerializePartition image, then the image,
  // written straight from the partition's arrays.
  const HeaderBytes header = EncodeHeader(partition);
  const std::string_view rows = ArrayBytes(partition.row_ids());
  const std::string_view offsets = ArrayBytes(partition.class_offsets());
  const uint32_t crc = RecordCrc(header, rows, offsets);
  const RecordParts record = {
      Part(&crc, sizeof(crc)), Part(header.data(), header.size()),
      Part(rows.data(), rows.size()), Part(offsets.data(), offsets.size())};
  const int64_t member_rows = static_cast<int64_t>(partition.row_ids().size());
  const int64_t num_offsets =
      static_cast<int64_t>(partition.class_offsets().size());
  const int64_t record_bytes = RecordBytes(member_rows, num_offsets);

  const int64_t offset = segment.bytes;
  const Status status = RetryWithBackoff(retry_policy_, [&] {
    return WriteRecordOnce(segment.fd, record, offset);
  });
  if (!status.ok()) {
    CleanupFailedWrite(segment_id);
    return Status(status.code(), "spill write to " + SegmentPath(segment_id) +
                                     " failed: " + status.message());
  }
  segment.bytes += record_bytes;
  ++segment.live_partitions;
  bytes_written_ += record_bytes;
  if (metrics_ != nullptr) {
    metrics_->AddShared(obs::kSpillWrites, 1);
    metrics_->AddShared(obs::kSpillBytesWritten, record_bytes);
  }

  const int64_t handle = next_handle_++;
  entries_[handle] = Entry{segment_id, offset, member_rows, num_offsets};
  if (segment.bytes >= kSegmentBytes) segment.sealed = true;
  return handle;
}

StatusOr<StrippedPartition> DiskPartitionStore::Get(int64_t handle) {
  // Reads share the lock: concurrent preads at distinct offsets are safe,
  // and the segment behind a live handle cannot be unlinked while readers
  // hold the shared lock (Release takes it exclusively).
  ReaderMutexLock lock(&mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) {
    return Status::NotFound("no partition with handle " +
                            std::to_string(handle));
  }
  const Entry& entry = it->second;
  const Segment& segment = segments_[entry.segment];
  // Read straight into the arrays the partition will own.
  uint32_t stored_crc = 0;
  HeaderBytes header{};
  std::vector<int32_t> rows(entry.member_rows);
  std::vector<int32_t> offsets(entry.offsets);
  const RecordParts record = {
      Part(&stored_crc, sizeof(stored_crc)), Part(header.data(), header.size()),
      Part(rows.data(), rows.size() * sizeof(int32_t)),
      Part(offsets.data(), offsets.size() * sizeof(int32_t))};
  const Status status = RetryWithBackoff(retry_policy_, [&] {
    return ReadRecordOnce(segment.fd, record, entry.offset);
  });
  if (!status.ok()) {
    return Status(status.code(), "spill read from " +
                                     SegmentPath(entry.segment) +
                                     " failed: " + status.message());
  }

  if (RecordCrc(header, ArrayBytes(rows), ArrayBytes(offsets)) != stored_crc) {
    return Status::IoError("spill segment " + SegmentPath(entry.segment) +
                           " corrupt: checksum mismatch for handle " +
                           std::to_string(handle));
  }
  if (metrics_ != nullptr) {
    metrics_->AddShared(obs::kSpillReads, 1);
    metrics_->AddShared(obs::kSpillBytesRead,
                        RecordBytes(entry.member_rows, entry.offsets));
  }
  // The checksum vouches for the bytes; the header must still describe the
  // arrays the entry sized, and Create still validates the CSR invariants.
  std::string_view header_view(header.data(), header.size());
  PartitionHeader decoded;
  if (!DecodeHeader(&header_view, &decoded).ok() ||
      decoded.num_member_rows != entry.member_rows ||
      decoded.num_offsets != entry.offsets) {
    return Status::Internal("spill record for handle " +
                            std::to_string(handle) + " in " +
                            SegmentPath(entry.segment) +
                            " does not match its index entry");
  }
  return StrippedPartition::Create(decoded.num_rows, std::move(rows),
                                   std::move(offsets), decoded.stripped);
}

Status DiskPartitionStore::Release(int64_t handle) {
  WriterMutexLock lock(&mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) {
    return Status::NotFound("release of unknown handle " +
                            std::to_string(handle));
  }
  const int32_t segment_id = it->second.segment;
  entries_.erase(it);
  --segments_[segment_id].live_partitions;
  // The newest segment is sealed on release pressure too: once TANE starts
  // releasing a level, the segments holding it should become reclaimable
  // even if they never filled up.
  if (segment_id == static_cast<int32_t>(segments_.size()) - 1 &&
      segments_[segment_id].live_partitions == 0) {
    segments_[segment_id].sealed = true;
  }
  DropSegmentIfDead(segment_id);
  return Status::OK();
}

int64_t DiskPartitionStore::disk_bytes() const {
  ReaderMutexLock lock(&mu_);
  int64_t total = 0;
  for (const Segment& segment : segments_) {
    if (segment.fd >= 0) total += segment.bytes;
  }
  return total;
}

// ---------------------------------------------------------------------------
// AutoPartitionStore

StatusOr<int64_t> AutoPartitionStore::Put(StrippedPartition partition) {
  WriterMutexLock lock(&mu_);
  int64_t inner = 0;
  if (disk_ == nullptr) {
    TANE_ASSIGN_OR_RETURN(inner, memory_.Put(std::move(partition)));
  } else {
    TANE_ASSIGN_OR_RETURN(inner, disk_->Put(std::move(partition)));
  }
  const int64_t handle = next_handle_++;
  inner_handles_[handle] = inner;
  if (disk_ == nullptr && budget_bytes_ > 0 &&
      memory_.resident_bytes() > budget_bytes_) {
    if (in_window_) {
      // Workers may hold Peek borrows into the memory store; migrating now
      // would free the partitions under them. Spill at the window boundary.
      pending_spill_ = true;
    } else {
      TANE_RETURN_IF_ERROR(SpillToDisk());
    }
  }
  return handle;
}

void AutoPartitionStore::BeginTaskWindow() {
  WriterMutexLock lock(&mu_);
  in_window_ = true;
}

Status AutoPartitionStore::EndTaskWindow() {
  WriterMutexLock lock(&mu_);
  in_window_ = false;
  if (!pending_spill_ || disk_ != nullptr) {
    pending_spill_ = false;
    return Status::OK();
  }
  pending_spill_ = false;
  return SpillToDisk();
}

Status AutoPartitionStore::SpillToDisk() {
  // The span makes the migration visible in the trace timeline; its counter
  // deltas show the spill writes it performed.
  obs::SpanGuard span(tracer_, "spill", metrics_);
  TANE_ASSIGN_OR_RETURN(disk_, DiskPartitionStore::Open(spill_directory_));
  if (metrics_ != nullptr) disk_->set_metrics(metrics_);
  // Hash order only decides the physical order partitions migrate in; the
  // outer handles (the only thing callers see) are unchanged, so nothing
  // here can reach the output. tane-analyzer: allow(determinism)
  for (auto& [handle, inner] : inner_handles_) {
    TANE_ASSIGN_OR_RETURN(StrippedPartition partition, memory_.Get(inner));
    TANE_ASSIGN_OR_RETURN(const int64_t disk_handle,
                          disk_->Put(std::move(partition)));
    TANE_RETURN_IF_ERROR(memory_.Release(inner));
    inner = disk_handle;
  }
  if (metrics_ != nullptr) metrics_->SetGauge(obs::kDegradedToDisk, 1);
  span.AddArg("migrated_partitions",
              static_cast<int64_t>(inner_handles_.size()));
  // A mid-run spill is exactly the kind of state transition a postmortem
  // wants on the timeline: runs that died shortly after degrading to disk
  // read very differently from runs that died in memory.
  if (obs::FlightRecorder* recorder = obs::FlightRecorder::active()) {
    recorder->Record(-1, obs::FlightEventType::kSpill, "spill-to-disk",
                     static_cast<int64_t>(inner_handles_.size()));
  }
  return Status::OK();
}

StatusOr<StrippedPartition> AutoPartitionStore::Get(int64_t handle) {
  ReaderMutexLock lock(&mu_);
  auto it = inner_handles_.find(handle);
  if (it == inner_handles_.end()) {
    return Status::NotFound("no partition with handle " +
                            std::to_string(handle));
  }
  return disk_ == nullptr ? memory_.Get(it->second) : disk_->Get(it->second);
}

Status AutoPartitionStore::Release(int64_t handle) {
  WriterMutexLock lock(&mu_);
  auto it = inner_handles_.find(handle);
  if (it == inner_handles_.end()) {
    return Status::NotFound("release of unknown handle " +
                            std::to_string(handle));
  }
  const int64_t inner = it->second;
  inner_handles_.erase(it);
  return disk_ == nullptr ? memory_.Release(inner) : disk_->Release(inner);
}

const StrippedPartition* AutoPartitionStore::Peek(int64_t handle) const {
  ReaderMutexLock lock(&mu_);
  if (disk_ != nullptr) return nullptr;
  auto it = inner_handles_.find(handle);
  return it == inner_handles_.end() ? nullptr : memory_.Peek(it->second);
}

}  // namespace tane
