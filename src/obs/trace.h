#ifndef TANE_OBS_TRACE_H_
#define TANE_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/json_writer.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tane {
namespace obs {

/// One trace slice or instant marker, timed in microseconds relative to the
/// owning Tracer's epoch. `args` carries the registry counter deltas the
/// span enclosed (and any extra key/value pairs), so a Perfetto slice shows
/// e.g. the products and cache hits of exactly that phase.
struct TraceEvent {
  std::string name;
  int tid = 0;            ///< 0 = coordinator thread, 1.. = pool workers
  double start_us = 0.0;
  double dur_us = 0.0;
  bool instant = false;   ///< exported as a Chrome instant event (ph "i")
  std::vector<std::pair<std::string, int64_t>> args;
};

/// Thread-safe fixed-capacity ring buffer of trace events. Spans are rare
/// (per phase / per parallel region, not per node), so a mutex around the
/// ring costs nothing measurable; when the ring fills, the oldest events
/// are overwritten and counted in dropped().
class Tracer {
 public:
  explicit Tracer(size_t capacity = 1 << 16);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Microseconds since this tracer was constructed.
  double NowUs() const {
    return ToUs(std::chrono::steady_clock::now());
  }

  /// Converts an externally captured time point to this tracer's timeline.
  double ToUs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Appends one event (thread-safe).
  void Emit(TraceEvent event);

  /// Copies the buffered events, oldest first.
  std::vector<TraceEvent> Events() const;

  /// Events overwritten because the ring was full.
  int64_t dropped() const;

  /// Events currently buffered (== emitted - dropped, capped at capacity).
  int64_t buffered() const;

 private:
  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ TANE_GUARDED_BY(mu_);
  size_t next_ TANE_GUARDED_BY(mu_) =
      0;  // insertion position once the ring is full
  int64_t dropped_ TANE_GUARDED_BY(mu_) = 0;
};

/// RAII span, the single integration point of the observability stack:
///
///  * with a tracer: emits a TraceEvent whose args are the nonzero
///    registry counter deltas plus hardware-counter deltas of the span;
///  * with a registry (tracer or not): reads the thread's perf-counter
///    group on entry/exit and folds the delta into the registry's
///    per-phase hardware aggregates (the "hw" object of --report);
///  * while a flight recorder is armed: records span begin/end events.
///
/// With none of those active every operation is a no-op, so call sites
/// need no branches.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, std::string name,
            MetricsRegistry* registry = nullptr, int tid = 0);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Adds an extra key/value pair to the emitted event.
  void AddArg(std::string key, int64_t value);

 private:
  Tracer* tracer_;
  MetricsRegistry* registry_;
  std::string name_;
  int tid_;
  bool hw_active_ = false;
  bool recorder_active_ = false;
  double start_us_ = 0.0;
  std::chrono::steady_clock::time_point start_tp_{};
  HwCounters hw_before_;
  std::array<int64_t, kCounterCount> before_{};
  std::vector<std::pair<std::string, int64_t>> extra_args_;
};

/// Serializes events into the Chrome trace-event JSON format understood by
/// chrome://tracing and Perfetto: an object with a "traceEvents" array of
/// complete ("ph":"X") and instant ("ph":"i") events.
void ExportChromeTrace(const std::vector<TraceEvent>& events,
                       int64_t dropped_events, JsonWriter* json);

/// Convenience: exports `tracer`'s buffered events to `path`. Returns false
/// when the file cannot be written.
bool WriteChromeTrace(const Tracer& tracer, const std::string& path);

/// Folds events into flamegraph input (flamegraph.pl, inferno, speedscope):
/// one sorted "frame;frame;... self_us" line per span path, giving the exact
/// self time of that path in integer microseconds.
///
///  * Coordinator (tid 0) spans nest by time under "tane;main"; a span's
///    self time is its duration minus its direct children's. Coordinator
///    "slice" events (its own share of a parallel region) are leaves.
///  * Every event of worker w >= 1 is a leaf under "tane;worker-w" plus
///    the path of the innermost coordinator span containing its start,
///    e.g. "tane;worker-2;run;level_5;products;slice".
///  * Each worker track also gets "tane;worker-w;(idle)": the coordinator's
///    root span time minus that worker's event time, so every track sums
///    to the run.
///
/// Instant events are skipped, ' ' and ';' in names become '_', and paths
/// that round to 0 us are dropped.
std::string ExportFoldedStacks(const std::vector<TraceEvent>& events);

}  // namespace obs
}  // namespace tane

#endif  // TANE_OBS_TRACE_H_
