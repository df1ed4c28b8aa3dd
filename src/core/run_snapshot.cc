#include "core/run_snapshot.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/checkpoint.h"
#include "util/crc32.h"
#include "util/failpoint.h"

namespace tane {
namespace {

// "TANC" — checkpoint cousin of the partition serializer's "TANE" magic.
constexpr uint32_t kSnapshotMagic = 0x54414E43;

// Frame tags. The header is always first; node frames repeat
// header.survivor_count times; unknown tags are a format error (the version
// field, not tag skipping, is the compatibility mechanism).
enum FrameTag : uint32_t {
  kTagHeader = 1,
  kTagFds = 2,
  kTagKeys = 3,
  kTagCounters = 4,
  kTagLevelStats = 5,
  kTagNode = 6,
};

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::string_view* in, T* value) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(value, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

void AppendString(std::string* out, std::string_view text) {
  AppendPod(out, static_cast<uint64_t>(text.size()));
  out->append(text.data(), text.size());
}

bool ReadString(std::string_view* in, std::string* text) {
  uint64_t size = 0;
  if (!ReadPod(in, &size) || in->size() < size) return false;
  text->assign(in->data(), size);
  in->remove_prefix(size);
  return true;
}

Status Corrupt(const std::string& what) {
  return Status::FailedPrecondition("snapshot corrupt: " + what);
}

// Snapshot files are "level-%04d.ckpt"; returns -1 for any other name.
// (The caller separately skips the writer's transient ".tmp." files.)
int ParseSnapshotLevel(const std::string& name) {
  int level = 0;
  char suffix = '\0';
  if (std::sscanf(name.c_str(), "level-%d.ckp%c", &level, &suffix) != 2 ||
      suffix != 't' || level <= 0) {
    return -1;
  }
  return level;
}

// Levels of every snapshot file in `directory`, ascending. kNotFound when
// the directory does not exist.
StatusOr<std::vector<int>> ListSnapshotLevels(const std::string& directory) {
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("no checkpoint directory at '" + directory + "'");
    }
    return Status::IoError("opendir '" + directory +
                           "': " + std::strerror(errno));
  }
  std::vector<int> levels;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.find(".tmp.") != std::string::npos) continue;
    const int level = ParseSnapshotLevel(name);
    if (level > 0) levels.push_back(level);
  }
  ::closedir(dir);
  std::sort(levels.begin(), levels.end());
  return levels;
}

Status EnsureDirectory(const std::string& directory) {
  if (directory.empty()) {
    return Status::InvalidArgument("checkpoint directory path is empty");
  }
  // mkdir -p: create each component, tolerating ones that already exist.
  for (std::string::size_type pos = 1; pos <= directory.size(); ++pos) {
    if (pos != directory.size() && directory[pos] != '/') continue;
    const std::string prefix = directory.substr(0, pos);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("mkdir '" + prefix +
                             "': " + std::strerror(errno));
    }
  }
  return Status::OK();
}

}  // namespace

uint32_t ConfigFingerprint(const TaneConfig& config) {
  std::string canonical;
  uint64_t epsilon_bits = 0;
  static_assert(sizeof(epsilon_bits) == sizeof(config.epsilon));
  std::memcpy(&epsilon_bits, &config.epsilon, sizeof(epsilon_bits));
  AppendPod(&canonical, epsilon_bits);
  AppendPod(&canonical, static_cast<int32_t>(config.measure));
  AppendPod(&canonical, static_cast<int32_t>(config.max_lhs_size));
  AppendPod(&canonical, static_cast<uint8_t>(config.use_rhs_plus_pruning));
  AppendPod(&canonical, static_cast<uint8_t>(config.use_key_pruning));
  AppendPod(&canonical, static_cast<uint8_t>(config.use_covered_rhs_pruning));
  AppendPod(&canonical, static_cast<uint8_t>(config.use_g3_bounds));
  AppendPod(&canonical, static_cast<uint8_t>(config.compute_exact_errors));
  AppendPod(&canonical, static_cast<uint8_t>(config.use_stripped_partitions));
  AppendPod(&canonical, static_cast<uint8_t>(config.use_partition_products));
  return Crc32(canonical);
}

std::string DatasetFingerprint(const Relation& relation) {
  uint32_t crc = 0;
  for (int c = 0; c < relation.num_columns(); ++c) {
    crc = Crc32(relation.schema().name(c), crc);
    const std::vector<int32_t>& codes = relation.column(c).codes;
    crc = Crc32(
        std::string_view(reinterpret_cast<const char*>(codes.data()),
                         codes.size() * sizeof(int32_t)),
        crc);
  }
  char text[16];
  std::snprintf(text, sizeof(text), "crc32:%08x", crc);
  return text;
}

std::string SnapshotPath(const std::string& directory, int level) {
  char name[32];
  std::snprintf(name, sizeof(name), "level-%04d.ckpt", level);
  return directory + "/" + name;
}

std::string RunSnapshot::Serialize() const {
  std::string header;
  AppendPod(&header, kSnapshotMagic);
  AppendPod(&header, kFormatVersion);
  AppendPod(&header, config_fingerprint);
  AppendString(&header, dataset_fingerprint);
  AppendPod(&header, num_rows);
  AppendPod(&header, num_columns);
  AppendPod(&header, completed_level);
  AppendPod(&header, static_cast<uint64_t>(survivors.size()));

  std::string fds_payload;
  AppendPod(&fds_payload, static_cast<uint64_t>(fds.size()));
  for (const FunctionalDependency& fd : fds) {
    AppendPod(&fds_payload, fd.lhs.mask());
    AppendPod(&fds_payload, static_cast<int32_t>(fd.rhs));
    uint64_t error_bits = 0;
    std::memcpy(&error_bits, &fd.error, sizeof(error_bits));
    AppendPod(&fds_payload, error_bits);
  }

  std::string keys_payload;
  AppendPod(&keys_payload, static_cast<uint64_t>(keys.size()));
  for (const AttributeSet key : keys) AppendPod(&keys_payload, key.mask());

  std::string counters_payload;
  AppendPod(&counters_payload, counters.sets_generated);
  AppendPod(&counters_payload, counters.validity_tests);
  AppendPod(&counters_payload, counters.g3_scans);
  AppendPod(&counters_payload, counters.g3_scans_skipped);
  AppendPod(&counters_payload, counters.g3_from_product);
  AppendPod(&counters_payload, counters.partition_products);
  AppendPod(&counters_payload, counters.keys_found);
  AppendPod(&counters_payload, counters.nodes_processed);
  AppendPod(&counters_payload, counters.fds_emitted);
  AppendPod(&counters_payload, counters.max_level_size);

  std::string levels_payload;
  AppendPod(&levels_payload, static_cast<uint64_t>(level_parallel.size()));
  for (const LevelParallelStats& row : level_parallel) {
    AppendPod(&levels_payload, static_cast<int32_t>(row.level));
    AppendPod(&levels_payload, row.nodes);
    AppendPod(&levels_payload, row.wall_seconds);
    AppendPod(&levels_payload, row.worker_seconds);
  }

  std::string out;
  AppendFrame(&out, kTagHeader, header);
  AppendFrame(&out, kTagFds, fds_payload);
  AppendFrame(&out, kTagKeys, keys_payload);
  AppendFrame(&out, kTagCounters, counters_payload);
  AppendFrame(&out, kTagLevelStats, levels_payload);
  // One frame per survivor so each partition image has its own CRC — a
  // flipped bit names the damaged node instead of invalidating the file
  // wholesale, and large partitions are never re-checksummed together.
  for (const SnapshotNode& node : survivors) {
    std::string payload;
    AppendPod(&payload, node.set.mask());
    AppendPod(&payload, node.cplus.mask());
    AppendPod(&payload, node.error);
    AppendString(&payload, node.partition_bytes);
    AppendFrame(&out, kTagNode, payload);
  }
  return out;
}

StatusOr<RunSnapshot> RunSnapshot::Deserialize(std::string_view bytes) {
  RunSnapshot snapshot;
  uint32_t tag = 0;
  std::string_view payload;

  TANE_RETURN_IF_ERROR(ReadFrame(&bytes, &tag, &payload));
  if (tag != kTagHeader) return Corrupt("first frame is not the header");
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t survivor_count = 0;
  if (!ReadPod(&payload, &magic) || magic != kSnapshotMagic) {
    return Corrupt("bad magic");
  }
  if (!ReadPod(&payload, &version)) return Corrupt("truncated header");
  if (version != kFormatVersion) {
    return Corrupt("unsupported format version " + std::to_string(version));
  }
  if (!ReadPod(&payload, &snapshot.config_fingerprint) ||
      !ReadString(&payload, &snapshot.dataset_fingerprint) ||
      !ReadPod(&payload, &snapshot.num_rows) ||
      !ReadPod(&payload, &snapshot.num_columns) ||
      !ReadPod(&payload, &snapshot.completed_level) ||
      !ReadPod(&payload, &survivor_count)) {
    return Corrupt("truncated header");
  }

  TANE_RETURN_IF_ERROR(ReadFrame(&bytes, &tag, &payload));
  if (tag != kTagFds) return Corrupt("expected dependency frame");
  uint64_t fd_count = 0;
  if (!ReadPod(&payload, &fd_count)) return Corrupt("truncated dependencies");
  snapshot.fds.reserve(fd_count);
  for (uint64_t i = 0; i < fd_count; ++i) {
    uint64_t lhs_mask = 0;
    int32_t rhs = 0;
    uint64_t error_bits = 0;
    if (!ReadPod(&payload, &lhs_mask) || !ReadPod(&payload, &rhs) ||
        !ReadPod(&payload, &error_bits)) {
      return Corrupt("truncated dependencies");
    }
    FunctionalDependency fd;
    fd.lhs = AttributeSet::FromMask(lhs_mask);
    fd.rhs = rhs;
    std::memcpy(&fd.error, &error_bits, sizeof(fd.error));
    snapshot.fds.push_back(fd);
  }

  TANE_RETURN_IF_ERROR(ReadFrame(&bytes, &tag, &payload));
  if (tag != kTagKeys) return Corrupt("expected key frame");
  uint64_t key_count = 0;
  if (!ReadPod(&payload, &key_count)) return Corrupt("truncated keys");
  snapshot.keys.reserve(key_count);
  for (uint64_t i = 0; i < key_count; ++i) {
    uint64_t mask = 0;
    if (!ReadPod(&payload, &mask)) return Corrupt("truncated keys");
    snapshot.keys.push_back(AttributeSet::FromMask(mask));
  }

  TANE_RETURN_IF_ERROR(ReadFrame(&bytes, &tag, &payload));
  if (tag != kTagCounters) return Corrupt("expected counter frame");
  SnapshotCounters& counters = snapshot.counters;
  if (!ReadPod(&payload, &counters.sets_generated) ||
      !ReadPod(&payload, &counters.validity_tests) ||
      !ReadPod(&payload, &counters.g3_scans) ||
      !ReadPod(&payload, &counters.g3_scans_skipped) ||
      !ReadPod(&payload, &counters.g3_from_product) ||
      !ReadPod(&payload, &counters.partition_products) ||
      !ReadPod(&payload, &counters.keys_found) ||
      !ReadPod(&payload, &counters.nodes_processed) ||
      !ReadPod(&payload, &counters.fds_emitted) ||
      !ReadPod(&payload, &counters.max_level_size)) {
    return Corrupt("truncated counters");
  }

  TANE_RETURN_IF_ERROR(ReadFrame(&bytes, &tag, &payload));
  if (tag != kTagLevelStats) return Corrupt("expected level-stats frame");
  uint64_t row_count = 0;
  if (!ReadPod(&payload, &row_count)) return Corrupt("truncated level stats");
  snapshot.level_parallel.reserve(row_count);
  for (uint64_t i = 0; i < row_count; ++i) {
    LevelParallelStats row;
    int32_t level = 0;
    if (!ReadPod(&payload, &level) || !ReadPod(&payload, &row.nodes) ||
        !ReadPod(&payload, &row.wall_seconds) ||
        !ReadPod(&payload, &row.worker_seconds)) {
      return Corrupt("truncated level stats");
    }
    row.level = level;
    snapshot.level_parallel.push_back(row);
  }

  snapshot.survivors.reserve(survivor_count);
  for (uint64_t i = 0; i < survivor_count; ++i) {
    TANE_RETURN_IF_ERROR(ReadFrame(&bytes, &tag, &payload));
    if (tag != kTagNode) return Corrupt("expected node frame");
    SnapshotNode node;
    uint64_t set_mask = 0;
    uint64_t cplus_mask = 0;
    if (!ReadPod(&payload, &set_mask) || !ReadPod(&payload, &cplus_mask) ||
        !ReadPod(&payload, &node.error) ||
        !ReadString(&payload, &node.partition_bytes)) {
      return Corrupt("truncated node frame");
    }
    node.set = AttributeSet::FromMask(set_mask);
    node.cplus = AttributeSet::FromMask(cplus_mask);
    snapshot.survivors.push_back(std::move(node));
  }
  if (!bytes.empty()) return Corrupt("trailing bytes after final frame");
  return snapshot;
}

StatusOr<int64_t> WriteSnapshot(const std::string& directory,
                                const RunSnapshot& snapshot) {
  TANE_RETURN_IF_ERROR(EnsureDirectory(directory));
  const std::string path = SnapshotPath(directory, snapshot.completed_level);
  const std::string bytes = snapshot.Serialize();
  TANE_RETURN_IF_ERROR(AtomicWriteFile(path, bytes));
  // The new snapshot is durable; older levels are redundant. A crash
  // between the rename above and these unlinks leaves extra valid files —
  // the loader takes the highest level, so recovery is unaffected.
  TANE_ASSIGN_OR_RETURN(const std::vector<int> levels,
                        ListSnapshotLevels(directory));
  for (const int level : levels) {
    if (level >= snapshot.completed_level) continue;
    TANE_INJECT_FAILPOINT("checkpoint.unlink_old");
    const std::string old_path = SnapshotPath(directory, level);
    if (::unlink(old_path.c_str()) != 0 && errno != ENOENT) {
      return Status::IoError("unlink '" + old_path +
                             "': " + std::strerror(errno));
    }
  }
  return static_cast<int64_t>(bytes.size());
}

StatusOr<RunSnapshot> LoadLatestSnapshot(const std::string& directory) {
  TANE_ASSIGN_OR_RETURN(const std::vector<int> levels,
                        ListSnapshotLevels(directory));
  if (levels.empty()) {
    return Status::NotFound("no snapshot files under '" + directory + "'");
  }
  const std::string path = SnapshotPath(directory, levels.back());
  TANE_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  StatusOr<RunSnapshot> snapshot = RunSnapshot::Deserialize(bytes);
  if (!snapshot.ok()) {
    return Status(snapshot.status().code(),
                  snapshot.status().message() + " (" + path + ")");
  }
  snapshot->serialized_bytes = static_cast<int64_t>(bytes.size());
  return snapshot;
}

bool IsSnapshotCorruptStatus(const Status& status) {
  // The "snapshot corrupt" prefix is part of the Corrupt() contract above;
  // every detection path (frame CRC, truncation, bad magic/version) goes
  // through it.
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind("snapshot corrupt", 0) == 0;
}

Status RemoveSnapshots(const std::string& directory) {
  StatusOr<std::vector<int>> levels = ListSnapshotLevels(directory);
  if (!levels.ok()) {
    return levels.status().code() == StatusCode::kNotFound ? Status::OK()
                                                           : levels.status();
  }
  for (const int level : *levels) {
    const std::string path = SnapshotPath(directory, level);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IoError("unlink '" + path + "': " + std::strerror(errno));
    }
  }
  return Status::OK();
}

}  // namespace tane
