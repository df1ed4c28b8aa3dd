#ifndef TANE_UTIL_THREAD_POOL_H_
#define TANE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tane {

/// Timing of one ParallelFor call: the coordinator's wall-clock time and the
/// summed busy time of every participating worker. busy / wall estimates the
/// parallel speedup actually achieved by the call. A worker's busy time runs
/// from the start of its first index to the end of its last: once it finds
/// no run left it returns, so waiting for stragglers adds nothing.
struct ParallelForStats {
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;
};

/// One worker's participation in one ParallelFor call: when it drained, for
/// how long, and how many indices it processed. Reported through the slice
/// hook so a tracer can draw per-worker utilization under each phase span.
struct ParallelForSlice {
  int worker = 0;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
  int64_t items = 0;
};

/// A fixed-size pool of worker threads for data-parallel loops. Built for
/// TANE's level execution: ParallelFor splits [0, count) into runs of
/// consecutive indices (a level window passes its prefix blocks, so one
/// worker keeps a left parent's labels across the whole block), workers
/// claim whole runs in ascending order with one fetch_add each, and each
/// run executes on its claimer in ascending index order. A worker that
/// finds no run left is done with the call.
///
/// `num_threads` counts the calling thread: a pool of size N spawns N-1
/// background workers and the ParallelFor caller participates as worker 0.
/// With num_threads == 1 no threads are ever created and ParallelFor
/// degenerates to a plain serial loop — the zero-overhead default.
///
/// The pool itself imposes no ordering on `fn` invocations across runs;
/// callers that need deterministic output must write results into
/// per-index slots and merge them in index order afterwards (see
/// core/tane.cc, which commits task results through an index-ordered
/// frontier).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Invokes fn(worker, index) exactly once for every index in [0, count)
  /// and blocks until all invocations return. Run r covers the indices
  /// [run_starts[r], run_starts[r+1]), the last run ending at count;
  /// run_starts must begin at 0 and ascend strictly. Empty run_starts makes
  /// every index its own run. Runs are claimed in ascending order and each
  /// executes on one worker in ascending index order. The worker argument
  /// is in [0, num_threads) — use it to select per-worker scratch state.
  /// `fn` must not throw and must not call ParallelFor reentrantly.
  /// Cooperative cancellation is the callback's job: a cancelled fn should
  /// return immediately, it cannot be interrupted.
  ParallelForStats ParallelFor(int64_t count,
                               std::span<const int64_t> run_starts,
                               const std::function<void(int, int64_t)>& fn)
      TANE_EXCLUDES(mu_);

  /// Installs a callback invoked once per participating worker per
  /// ParallelFor call (workers that drained zero indices are skipped). The
  /// hook runs on the worker's own thread, concurrently with its peers, so
  /// it must be thread-safe and cheap. Set/clear only while no ParallelFor
  /// is in flight. Empty function disables.
  void set_slice_hook(std::function<void(const ParallelForSlice&)> hook) {
    slice_hook_ = std::move(hook);
  }

 private:
  struct Job {
    int64_t count = 0;
    std::span<const int64_t> run_starts;
    const std::function<void(int, int64_t)>* fn = nullptr;
  };

  void WorkerLoop(int worker) TANE_EXCLUDES(mu_);
  // Claims and executes runs of `job` until none is left; returns this
  // participant's busy seconds. The job is passed by argument (captured
  // under mu_) so the claim loop itself touches no lock-protected state.
  double Drain(int worker, const Job& job);

  const int num_threads_;
  std::vector<std::thread> workers_;
  // Set/cleared only while no ParallelFor is in flight (see setter docs),
  // so the pool reads it without synchronization.
  std::function<void(const ParallelForSlice&)> slice_hook_;
  // The next unclaimed run of the current job. Reset by the coordinator
  // before the mu_ handshake that publishes the job, so a claim needs only
  // the fetch_add's atomicity. tane-lint: allow(naked-atomic)
  std::atomic<int64_t> next_run_{0};

  Mutex mu_;
  CondVar work_cv_;   // signals workers: a new job epoch
  CondVar done_cv_;   // signals the caller: workers drained
  const Job* job_ TANE_GUARDED_BY(mu_) = nullptr;  // current job
  uint64_t epoch_ TANE_GUARDED_BY(mu_) =
      0;  // bumped per job so workers see exactly one wake
  int running_ TANE_GUARDED_BY(mu_) =
      0;  // background workers still draining this job
  double busy_seconds_ TANE_GUARDED_BY(mu_) =
      0.0;  // accumulated by background workers
  bool shutdown_ TANE_GUARDED_BY(mu_) = false;
};

}  // namespace tane

#endif  // TANE_UTIL_THREAD_POOL_H_
