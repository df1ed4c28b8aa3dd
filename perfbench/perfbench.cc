// The C++ half of the end-to-end benchmark. run.py starts one fresh process
// of this program per measurement, so peak RSS, allocator state and the
// engine's buffer pool never carry over between runs. Every subcommand
// prints exactly one JSON object on stdout:
//
//   gen   --dataset D --rows N --copies K --seed S --out FILE
//         Writes the workload's CSV: the paper stand-in (fixed generator
//         seed), with rows permuted and each column's values renamed by S.
//   setup --csv FILE --reads N [--min-seconds X]
//         Times ReadCsvFile at least N times and for at least X seconds
//         (the benchmark's set-up).
//   run   --csv FILE --epsilon E --storage memory|disk --threads T
//         [--spill-dir DIR] [--trace] [--corrupt]
//         [--verify [--verify-seed S] [--verify-seconds X]]
//         Times one Tane::Discover call and reports its counters, the FD
//         count and digest, span self times (--trace) and the result of
//         re-checking the FDs with MeasureG3 (--verify). --corrupt damages
//         the FD set first, so the output check itself can be tested.
//   probe --csv FILE --storage memory|disk [--spill-dir DIR]
//         Times the partition, error and store layers directly.
//   info  Reports the build type.
//
// The engine is used only through its public headers.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/violations.h"
#include "core/config.h"
#include "core/partition_store.h"
#include "core/result.h"
#include "core/tane.h"
#include "datasets/paper_datasets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/error.h"
#include "partition/partition_builder.h"
#include "partition/product.h"
#include "relation/csv.h"
#include "relation/relation.h"
#include "relation/transforms.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double CpuSeconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Repeats `body` until it has run at least `min_reps` times and for at
// least `min_seconds`; returns the seconds of each repetition.
template <typename Body>
std::vector<double> Sample(int min_reps, double min_seconds, Body body) {
  std::vector<double> samples;
  const Clock::time_point begin = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps ||
         Seconds(begin, Clock::now()) < min_seconds) {
    const Clock::time_point start = Clock::now();
    body();
    samples.push_back(Seconds(start, Clock::now()));
  }
  return samples;
}

// Builds one flat JSON object. Keys are fixed identifiers and string values
// are names the engine or this file produced, so no escaping is needed
// beyond quotes and backslashes.
class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    Raw(key, buffer);
  }
  void Int(const std::string& key, int64_t value) {
    Raw(key, std::to_string(value));
  }
  void Bool(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    Raw(key, quoted + "\"");
  }
  void List(const std::string& key, const std::vector<double>& values) {
    std::string list = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%s%.17g", i == 0 ? "" : ",",
                    values[i]);
      list += buffer;
    }
    Raw(key, list + "]");
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 1;
}

// --key value pairs; a flag followed by another flag (or nothing) is "1".
std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args[key] = argv[++i];
    } else {
      args[key] = "1";
    }
  }
  return args;
}

std::string Arg(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback = "") {
  auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

// Row permutation plus a per-column renaming of values among themselves.
// Both keep every column's equality pattern, so the FD set, every g3 error
// and the engine's work counts are those of the unshuffled stand-in, while
// row ids, class order and the CSV bytes change with the seed.
tane::StatusOr<tane::Relation> Shuffle(const tane::Relation& relation,
                                       uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  auto below = [&rng](uint64_t n) { return rng() % n; };
  const int64_t rows = relation.num_rows();
  std::vector<int64_t> order(rows);
  for (int64_t r = 0; r < rows; ++r) order[r] = r;
  for (int64_t r = rows - 1; r > 0; --r) {
    std::swap(order[r], order[below(static_cast<uint64_t>(r) + 1)]);
  }
  std::vector<tane::Column> columns(relation.num_columns());
  for (int c = 0; c < relation.num_columns(); ++c) {
    const tane::Column& source = relation.column(c);
    tane::Column& column = columns[c];
    column.dictionary = source.dictionary;
    for (size_t i = column.dictionary.size(); i > 1; --i) {
      std::swap(column.dictionary[i - 1], column.dictionary[below(i)]);
    }
    column.codes.resize(rows);
    for (int64_t r = 0; r < rows; ++r) column.codes[r] = source.codes[order[r]];
  }
  return tane::Relation::Create(relation.schema(), std::move(columns), rows);
}

int Gen(const std::map<std::string, std::string>& args) {
  auto dataset = tane::ParsePaperDatasetName(Arg(args, "dataset"));
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  auto base = tane::MakePaperDataset(
      *dataset, std::stoll(Arg(args, "rows", "0")));
  if (!base.ok()) return Fail(base.status().ToString());
  // Shuffled before the copies are made, so a ×n relation keeps the
  // paper's layout of n contiguous copies.
  auto shuffled = Shuffle(*base, std::stoull(Arg(args, "seed", "0")));
  if (!shuffled.ok()) return Fail(shuffled.status().ToString());
  tane::Relation relation = std::move(*shuffled);
  const int copies = std::stoi(Arg(args, "copies", "1"));
  if (copies > 1) {
    auto scaled = tane::ConcatenateCopies(relation, copies);
    if (!scaled.ok()) return Fail(scaled.status().ToString());
    relation = std::move(*scaled);
  }
  const std::string path = Arg(args, "out");
  std::ofstream out(path, std::ios::binary);
  tane::WriteCsv(relation, out);
  out.close();
  if (!out) return Fail("cannot write " + path);
  JsonObject json;
  json.Int("rows", relation.num_rows());
  json.Int("columns", relation.num_columns());
  json.Print();
  return 0;
}

int Setup(const std::map<std::string, std::string>& args) {
  const std::string path = Arg(args, "csv");
  tane::Status status;
  int64_t rows = 0;
  const std::vector<double> seconds =
      Sample(std::max(1, std::stoi(Arg(args, "reads", "5"))),
             std::stod(Arg(args, "min-seconds", "0")), [&] {
               auto relation = tane::ReadCsvFile(path);
               if (relation.ok()) {
                 rows = relation->num_rows();
               } else {
                 status = relation.status();
               }
             });
  if (!status.ok()) return Fail(status.ToString());
  JsonObject json;
  json.Int("rows", rows);
  json.List("read_s", seconds);
  json.Print();
  return 0;
}

// An FD as "a,b->c" with column names.
std::string FdText(const tane::FunctionalDependency& fd,
                   const tane::Schema& schema) {
  std::string text;
  for (int a : fd.lhs.ToIndices()) {
    if (!text.empty()) text += ',';
    text += schema.name(a);
  }
  return text + "->" + schema.name(fd.rhs);
}

// Order-independent digest of an FD list: the sum of the FNV-1a hashes of
// each FD's FdText.
std::string Digest(const std::vector<tane::FunctionalDependency>& fds,
                   const tane::Schema& schema) {
  uint64_t sum = 0;
  for (const tane::FunctionalDependency& fd : fds) {
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : FdText(fd, schema)) {
      hash = (hash ^ c) * 0x100000001b3ULL;
    }
    sum += hash;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, sum);
  return buffer;
}

// Re-checks FDs from outside the engine with MeasureG3: X → A must have
// g3 ≤ ε, and X∖{B} → A must have g3 > ε for every B ∈ X. Validity is
// decided on the integer removal count, as the engine decides it. FDs are
// checked in a seed-shuffled order by `threads` threads until all are done
// or `budget_s` seconds (0: no limit) have passed; MeasureG3 rebuilds both
// partitions from the rows, so on large relations a budgeted check covers
// a sample.
struct VerifyOutcome {
  int64_t checked = 0;
  int64_t failures = 0;
  int64_t measurements = 0;
  std::string first_failure;  // FdText of a failing FD, for the log
};

VerifyOutcome VerifyFds(const tane::Relation& relation,
                        const std::vector<tane::FunctionalDependency>& fds,
                        double epsilon, uint64_t seed, double budget_s,
                        int threads) {
  const int64_t rows = relation.num_rows();
  const int64_t threshold =
      tane::IntegerThreshold(epsilon, static_cast<double>(rows));
  std::vector<size_t> order(fds.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  std::atomic<size_t> next{0};
  std::vector<VerifyOutcome> outcomes(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      VerifyOutcome& outcome = outcomes[t];
      std::map<std::pair<uint64_t, int>, bool> holds_memo;
      auto holds = [&](tane::AttributeSet lhs, int rhs) {
        const std::pair<uint64_t, int> key(lhs.mask(), rhs);
        auto it = holds_memo.find(key);
        if (it != holds_memo.end()) return it->second;
        ++outcome.measurements;
        tane::FunctionalDependency fd;
        fd.lhs = lhs;
        fd.rhs = rhs;
        auto g3 = tane::MeasureG3(relation, fd);
        const bool ok =
            g3.ok() &&
            std::llround(*g3 * static_cast<double>(rows)) <= threshold;
        holds_memo.emplace(key, ok);
        return ok;
      };
      while (budget_s <= 0.0 || Clock::now() < deadline) {
        const size_t i = next.fetch_add(1);
        if (i >= order.size()) break;
        const tane::FunctionalDependency& fd = fds[order[i]];
        bool ok = !fd.lhs.Contains(fd.rhs) && holds(fd.lhs, fd.rhs);
        for (int b : fd.lhs.ToIndices()) {
          if (!ok) break;
          ok = !holds(fd.lhs.Without(b), fd.rhs);
        }
        ++outcome.checked;
        if (!ok && outcome.failures++ == 0) {
          outcome.first_failure = FdText(fd, relation.schema());
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  VerifyOutcome total;
  for (const VerifyOutcome& outcome : outcomes) {
    total.checked += outcome.checked;
    total.failures += outcome.failures;
    if (total.first_failure.empty()) {
      total.first_failure = outcome.first_failure;
    }
    total.measurements += outcome.measurements;
  }
  return total;
}

// Span self times of a traced run. Phase spans nest on the coordinator
// thread (tid 0); "slice" events are the pool's per-worker drains and are
// kept out of the phase tree, so they do not eat into their phase's time.
struct TraceSummary {
  std::map<std::string, double> self_s;  // phase name → summed self time
  double pool_busy_s = 0.0;
  double window_wall_s = 0.0;  // base-partitions + products durations
};

// "run", "level N" and any other span count as unattributed.
std::string PhaseOf(const std::string& name) {
  if (name == "base-partitions" || name == "generate" || name == "products" ||
      name == "validity" || name == "prune") {
    return name;
  }
  return "unattributed";
}

TraceSummary Summarize(const std::vector<tane::obs::TraceEvent>& events) {
  TraceSummary summary;
  std::vector<const tane::obs::TraceEvent*> spans;
  for (const tane::obs::TraceEvent& event : events) {
    if (event.instant) continue;
    if (event.name == "slice") {
      summary.pool_busy_s += event.dur_us * 1e-6;
      continue;
    }
    if (event.tid != 0) continue;
    spans.push_back(&event);
    if (event.name == "base-partitions" || event.name == "products") {
      summary.window_wall_s += event.dur_us * 1e-6;
    }
  }
  std::sort(spans.begin(), spans.end(), [](auto* a, auto* b) {
    return a->start_us != b->start_us ? a->start_us < b->start_us
                                      : a->dur_us > b->dur_us;
  });
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<size_t> stack;
  constexpr double kSlackUs = 1e-3;
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() &&
           spans[stack.back()]->start_us + spans[stack.back()]->dur_us <=
               spans[i]->start_us + kSlackUs) {
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += spans[i]->dur_us;
    stack.push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    summary.self_s[PhaseOf(spans[i]->name)] +=
        (spans[i]->dur_us - child_us[i]) * 1e-6;
  }
  return summary;
}

tane::StatusOr<tane::StorageMode> ParseStorage(const std::string& name) {
  if (name == "memory") return tane::StorageMode::kMemory;
  if (name == "disk") return tane::StorageMode::kDisk;
  return tane::Status::InvalidArgument("unknown storage " + name);
}

int Run(const std::map<std::string, std::string>& args) {
  auto relation = tane::ReadCsvFile(Arg(args, "csv"));
  if (!relation.ok()) return Fail(relation.status().ToString());

  tane::TaneConfig config;
  config.epsilon = std::stod(Arg(args, "epsilon", "0"));
  config.num_threads = std::stoi(Arg(args, "threads", "1"));
  auto storage = ParseStorage(Arg(args, "storage", "memory"));
  if (!storage.ok()) return Fail(storage.status().ToString());
  config.storage = *storage;
  config.spill_directory = Arg(args, "spill-dir");
  const bool traced = args.count("trace") > 0;
  std::unique_ptr<tane::obs::Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<tane::obs::Tracer>(size_t{1} << 20);
    config.tracer = tracer.get();
  }

  rusage before{};
  rusage after{};
  getrusage(RUSAGE_SELF, &before);
  const Clock::time_point start = Clock::now();
  auto result = tane::Tane::Discover(*relation, config);
  const Clock::time_point end = Clock::now();
  getrusage(RUSAGE_SELF, &after);

  JsonObject json;
  json.Num("discover_s", Seconds(start, end));
  json.Num("cpu_s", CpuSeconds(after) - CpuSeconds(before));
  json.Num("peak_rss_mb", static_cast<double>(after.ru_maxrss) / 1024.0);
  json.Bool("ok", result.ok() && result->complete());
  if (!result.ok()) {
    json.Str("error", result.status().ToString());
    json.Print();
    return 0;
  }
  std::vector<tane::FunctionalDependency> fds = result->fds;
  if (args.count("corrupt") > 0 && !fds.empty()) {
    tane::FunctionalDependency& fd = fds.front();
    const int other = fd.rhs == 0 ? 1 : 0;
    fd.lhs = fd.lhs.empty() ? fd.lhs.With(other)
                            : fd.lhs.Without(fd.lhs.ToIndices().front());
  }
  json.Int("fds", static_cast<int64_t>(fds.size()));
  json.Str("digest", Digest(fds, relation->schema()));

  // Counters and gauges go out under their registry names, so this file
  // keeps compiling when the engine adds or retires one; run.py reads a
  // missing name as 0.
  const tane::obs::MetricsSnapshot& metrics = result->metrics;
  for (int id = 0; id < tane::obs::kCounterCount; ++id) {
    const auto counter = static_cast<tane::obs::CounterId>(id);
    json.Int(std::string(tane::obs::CounterName(counter)),
             metrics.counter(counter));
  }
  for (int id = 0; id < tane::obs::kGaugeCount; ++id) {
    const auto gauge = static_cast<tane::obs::GaugeId>(id);
    json.Int(std::string(tane::obs::GaugeName(gauge)), metrics.gauge(gauge));
  }
  const tane::DiscoveryStats& stats = result->stats;
  json.Int("threads", stats.num_threads);
  double level_wall = 0.0;
  double level_worker = 0.0;
  for (const tane::LevelParallelStats& level : stats.level_parallel) {
    level_wall += level.wall_seconds;
    level_worker += level.worker_seconds;
  }
  json.Num("level_wall_s", level_wall);
  json.Num("level_worker_s", level_worker);

  if (traced) {
    const TraceSummary summary = Summarize(tracer->Events());
    json.Int("trace_dropped", tracer->dropped());
    json.Num("pool_busy_s", summary.pool_busy_s);
    json.Num("window_wall_s", summary.window_wall_s);
    for (const char* phase : {"base-partitions", "generate", "products",
                              "validity", "prune", "unattributed"}) {
      auto it = summary.self_s.find(phase);
      json.Num(std::string("self_") + phase,
               it == summary.self_s.end() ? 0.0 : it->second);
    }
  }
  if (args.count("verify") > 0) {
    const Clock::time_point verify_start = Clock::now();
    const unsigned hardware = std::thread::hardware_concurrency();
    const VerifyOutcome outcome = VerifyFds(
        *relation, fds, config.epsilon,
        std::stoull(Arg(args, "verify-seed", "0")),
        std::stod(Arg(args, "verify-seconds", "0")),
        static_cast<int>(std::clamp(hardware, 1u, 4u)));
    json.Int("verify_checked", outcome.checked);
    json.Int("verify_failures", outcome.failures);
    json.Str("verify_first_failure", outcome.first_failure);
    json.Int("verify_measurements", outcome.measurements);
    json.Num("verify_s", Seconds(verify_start, Clock::now()));
  }
  json.Print();
  return 0;
}

int Probe(const std::map<std::string, std::string>& args) {
  auto relation = tane::ReadCsvFile(Arg(args, "csv"));
  if (!relation.ok()) return Fail(relation.status().ToString());
  const int64_t rows = relation->num_rows();
  JsonObject json;
  bool probe_ok = true;

  std::vector<tane::StrippedPartition> base;
  json.Num("probe_base_s", Median(Sample(3, 0.2, [&] {
             base = tane::PartitionBuilder::ForAllAttributes(*relation);
           })));

  // Level 2: every pair of base partitions, as TANE's second level does.
  std::vector<std::pair<int, int>> pairs;
  for (int a = 0; a < static_cast<int>(base.size()); ++a) {
    for (int b = a + 1; b < static_cast<int>(base.size()); ++b) {
      pairs.emplace_back(a, b);
    }
  }
  std::vector<tane::StrippedPartition> products(pairs.size());
  tane::PartitionProduct product(rows);
  int64_t product_rows = 0;
  const double product_s = Median(Sample(3, 0.2, [&] {
    const int64_t scanned_before = product.rows_scanned();
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto out = product.Multiply(base[pairs[i].first], base[pairs[i].second]);
      probe_ok = probe_ok && out.ok();
      if (out.ok()) products[i] = std::move(*out);
    }
    product_rows = product.rows_scanned() - scanned_before;
  }));
  json.Num("probe_product_ns_per_row",
           product_rows > 0 ? product_s * 1e9 / product_rows : 0.0);

  // g3 of A → B from π_A and π_AB for every level-2 pair.
  tane::G3Calculator g3(rows);
  int64_t g3_rows = 0;
  double sink = 0.0;
  const double g3_s = Median(Sample(3, 0.2, [&] {
    const int64_t scanned_before = g3.rows_scanned();
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto error = g3.Error(base[pairs[i].first], products[i]);
      probe_ok = probe_ok && error.ok();
      if (error.ok()) sink += *error;
    }
    g3_rows = g3.rows_scanned() - scanned_before;
  }));
  json.Num("probe_g3_ns_per_row", g3_rows > 0 ? g3_s * 1e9 / g3_rows : 0.0);
  json.Num("probe_g3_checksum", sink);

  // Put/Get/Release of every base partition on the workload's store kind.
  auto storage = ParseStorage(Arg(args, "storage", "memory"));
  if (!storage.ok()) return Fail(storage.status().ToString());
  std::unique_ptr<tane::PartitionStore> store;
  if (*storage == tane::StorageMode::kDisk) {
    auto disk = tane::DiskPartitionStore::Open(Arg(args, "spill-dir"));
    if (!disk.ok()) return Fail(disk.status().ToString());
    store = std::move(*disk);
  } else {
    store = std::make_unique<tane::MemoryPartitionStore>();
  }
  const double store_s = Median(Sample(3, 0.2, [&] {
    for (const tane::StrippedPartition& partition : base) {
      auto handle = store->Put(partition);
      if (!handle.ok()) {
        probe_ok = false;
        continue;
      }
      auto back = store->Get(*handle);
      probe_ok = probe_ok && back.ok() &&
                 back->num_member_rows() == partition.num_member_rows();
      probe_ok = store->Release(*handle).ok() && probe_ok;
    }
  }));
  json.Num("probe_store_roundtrip_us",
           base.empty() ? 0.0 : store_s * 1e6 / base.size());
  json.Bool("ok", probe_ok);
  json.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Fail("usage: perfbench gen|setup|run|probe|info");
  const std::string command = argv[1];
  const std::map<std::string, std::string> args = ParseArgs(argc, argv);
  try {
    if (command == "info") {
      JsonObject json;
      json.Str("build_type", PERFBENCH_BUILD_TYPE);
      json.Print();
      return 0;
    }
    if (command == "gen") return Gen(args);
    if (command == "setup") return Setup(args);
    if (command == "run") return Run(args);
    if (command == "probe") return Probe(args);
  } catch (const std::exception& error) {  // std::stoi and friends
    return Fail(command + ": " + error.what());
  }
  return Fail("unknown command " + command);
}
