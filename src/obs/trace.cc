#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/perf_counters.h"
#include "util/mutex.h"

namespace tane {
namespace obs {

Tracer::Tracer(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)),
      epoch_(std::chrono::steady_clock::now()) {}

void Tracer::Emit(TraceEvent event) {
  MutexLock lock(&mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> Tracer::Events() const {
  MutexLock lock(&mu_);
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  // Once the ring wrapped, `next_` points at the oldest surviving event.
  for (size_t i = 0; i < ring_.size(); ++i) {
    events.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return events;
}

int64_t Tracer::dropped() const {
  MutexLock lock(&mu_);
  return dropped_;
}

int64_t Tracer::buffered() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(ring_.size());
}

namespace {

// "level 3" and "level 7" aggregate under one "level" phase row; names
// without a space are their own phase.
std::string_view PhaseKey(const std::string& name) {
  const size_t space = name.find(' ');
  return space == std::string::npos
             ? std::string_view(name)
             : std::string_view(name.data(), space);
}

void AppendHwArgs(const HwCounters& hw,
                  std::vector<std::pair<std::string, int64_t>>* args) {
  if (hw.cycles != 0) args->emplace_back("hw_cycles", hw.cycles);
  if (hw.instructions != 0) {
    args->emplace_back("hw_instructions", hw.instructions);
  }
  if (hw.cache_references != 0) {
    args->emplace_back("hw_cache_references", hw.cache_references);
  }
  if (hw.cache_misses != 0) {
    args->emplace_back("hw_cache_misses", hw.cache_misses);
  }
  if (hw.branch_misses != 0) {
    args->emplace_back("hw_branch_misses", hw.branch_misses);
  }
}

}  // namespace

SpanGuard::SpanGuard(Tracer* tracer, std::string name,
                     MetricsRegistry* registry, int tid)
    : tracer_(tracer), registry_(registry), name_(std::move(name)),
      tid_(tid) {
  // Each facet arms independently: tracing needs a tracer, hw attribution
  // needs a registry, the flight recorder is global state.
  hw_active_ = registry_ != nullptr && PerfCounters::enabled();
  recorder_active_ = FlightRecorder::active() != nullptr;
  if (tracer_ == nullptr && !hw_active_ && !recorder_active_) return;
  if (recorder_active_) {
    FlightRecorder* recorder = FlightRecorder::active();
    if (recorder != nullptr) {
      recorder->Record(tid_, FlightEventType::kSpanBegin, name_);
    }
  }
  if (tracer_ != nullptr) {
    if (registry_ != nullptr) before_ = registry_->CounterTotals();
    start_us_ = tracer_->NowUs();
  }
  start_tp_ = std::chrono::steady_clock::now();
  // Last, so the hw delta excludes the setup above.
  if (hw_active_) hw_before_ = PerfCounters::Read();
}

SpanGuard::~SpanGuard() {
  HwCounters hw_delta;
  if (hw_active_) {
    hw_delta = PerfCounters::Read() - hw_before_;
    registry_->AddHwSpan(PhaseKey(name_), hw_delta);
  }
  if (tracer_ != nullptr) {
    TraceEvent event;
    event.name = name_;
    event.tid = tid_;
    event.start_us = start_us_;
    event.dur_us = tracer_->NowUs() - start_us_;
    if (registry_ != nullptr) {
      const std::array<int64_t, kCounterCount> after =
          registry_->CounterTotals();
      for (int id = 0; id < kCounterCount; ++id) {
        const int64_t delta = after[id] - before_[id];
        if (delta != 0) {
          event.args.emplace_back(
              std::string(CounterName(static_cast<CounterId>(id))), delta);
        }
      }
    }
    if (hw_active_) AppendHwArgs(hw_delta, &event.args);
    for (auto& arg : extra_args_) event.args.push_back(std::move(arg));
    tracer_->Emit(std::move(event));
  }
  if (recorder_active_) {
    FlightRecorder* recorder = FlightRecorder::active();
    if (recorder != nullptr) {
      const auto dur = std::chrono::steady_clock::now() - start_tp_;
      recorder->Record(
          tid_, FlightEventType::kSpanEnd, name_,
          std::chrono::duration_cast<std::chrono::microseconds>(dur)
              .count());
    }
  }
}

void SpanGuard::AddArg(std::string key, int64_t value) {
  if (tracer_ == nullptr) return;
  extra_args_.emplace_back(std::move(key), value);
}

void ExportChromeTrace(const std::vector<TraceEvent>& events,
                       int64_t dropped_events, JsonWriter* json) {
  json->BeginObject();
  json->Key("displayTimeUnit").Value("ms");
  json->Key("otherData").BeginObject();
  json->Key("tool").Value("tane");
  json->Key("dropped_events").Value(dropped_events);
  json->EndObject();
  json->Key("traceEvents").BeginArray();
  for (const TraceEvent& event : events) {
    json->BeginObject();
    json->Key("name").Value(event.name);
    json->Key("cat").Value("tane");
    json->Key("ph").Value(event.instant ? "i" : "X");
    json->Key("pid").Value(1);
    json->Key("tid").Value(event.tid);
    json->Key("ts").Value(event.start_us);
    if (event.instant) {
      json->Key("s").Value("t");  // instant scoped to its thread track
    } else {
      json->Key("dur").Value(event.dur_us);
    }
    if (!event.args.empty()) {
      json->Key("args").BeginObject();
      for (const auto& [key, value] : event.args) {
        json->Key(key).Value(value);
      }
      json->EndObject();
    }
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

bool WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  JsonWriter json;
  ExportChromeTrace(tracer.Events(), tracer.dropped(), &json);
  return json.WriteFile(path);
}

namespace {

// flamegraph.pl splits "path count" on the last space and frames on ';',
// so neither may appear inside a frame.
void AppendFrame(std::string* path, const std::string& name) {
  path->push_back(';');
  for (char c : name) path->push_back(c == ' ' || c == ';' ? '_' : c);
}

}  // namespace

std::string ExportFoldedStacks(const std::vector<TraceEvent>& events) {
  // One sweep in start order. At equal starts a coordinator span opens
  // before the worker events it encloses, and a parent before its child.
  std::vector<const TraceEvent*> order;
  for (const TraceEvent& event : events) {
    if (!event.instant) order.push_back(&event);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->start_us != b->start_us) {
                       return a->start_us < b->start_us;
                     }
                     if ((a->tid == 0) != (b->tid == 0)) return a->tid == 0;
                     return a->dur_us > b->dur_us;
                   });

  struct OpenSpan {
    double end_us;
    double dur_us;
    double child_us;
    std::string frames;  // ";run;level_3": the path below the track root
  };
  std::map<std::string, double> self_us;  // full path -> self time
  std::map<int, double> worker_busy_us;
  std::vector<OpenSpan> open;
  double root_us = 0.0;
  // A span that ends within a nanosecond of another's start does not
  // enclose it: the two timestamps are the same instant read twice.
  constexpr double kSlackUs = 1e-3;
  const auto close_innermost = [&] {
    const OpenSpan& span = open.back();
    self_us["tane;main" + span.frames] += span.dur_us - span.child_us;
    open.pop_back();
  };
  for (const TraceEvent* event : order) {
    while (!open.empty() && open.back().end_us <= event->start_us + kSlackUs) {
      close_innermost();
    }
    std::string frames = open.empty() ? std::string() : open.back().frames;
    AppendFrame(&frames, event->name);
    if (event->tid != 0) {
      self_us["tane;worker-" + std::to_string(event->tid) + frames] +=
          event->dur_us;
      worker_busy_us[event->tid] += event->dur_us;
      continue;
    }
    if (open.empty()) {
      root_us += event->dur_us;
    } else {
      open.back().child_us += event->dur_us;
    }
    if (event->name == "slice") {
      self_us["tane;main" + frames] += event->dur_us;
      continue;
    }
    open.push_back({event->start_us + event->dur_us, event->dur_us, 0.0,
                    std::move(frames)});
  }
  while (!open.empty()) close_innermost();
  for (const auto& [tid, busy_us] : worker_busy_us) {
    self_us["tane;worker-" + std::to_string(tid) + ";(idle)"] +=
        root_us - busy_us;
  }

  std::string folded;
  for (const auto& [path, us] : self_us) {
    const long long rounded = std::llround(us);
    if (rounded <= 0) continue;
    folded += path;
    folded += ' ';
    folded += std::to_string(rounded);
    folded += '\n';
  }
  return folded;
}

}  // namespace obs
}  // namespace tane
