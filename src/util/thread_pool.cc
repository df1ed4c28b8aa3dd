#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace tane {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int worker = 1; worker < num_threads_; ++worker) {
    workers_.emplace_back([this, worker] { WorkerLoop(worker); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

double ThreadPool::Drain(int worker, const Job& job) {
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point last_end;
  int64_t items = 0;
  const int64_t num_runs = job.run_starts.empty()
                               ? job.count
                               : static_cast<int64_t>(job.run_starts.size());
  while (true) {
    // Relaxed suffices: the run table was published by the mu_ handshake,
    // and the fetch_add's atomicity alone hands each run to one worker.
    const int64_t run = next_run_.fetch_add(1, std::memory_order_relaxed);
    if (run >= num_runs) break;
    int64_t begin = run;
    int64_t end = run + 1;
    if (!job.run_starts.empty()) {
      begin = job.run_starts[run];
      end = run + 1 < num_runs ? job.run_starts[run + 1] : job.count;
    }
    const auto run_start = std::chrono::steady_clock::now();
    if (items == 0) start = run_start;
    for (int64_t index = begin; index < end; ++index) (*job.fn)(worker, index);
    last_end = std::chrono::steady_clock::now();
    items += end - begin;
  }
  if (items == 0) return 0.0;
  if (slice_hook_) {
    slice_hook_(ParallelForSlice{worker, start, last_end, items});
  }
  return std::chrono::duration<double>(last_end - start).count();
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_epoch = 0;
  while (true) {
    const Job* job = nullptr;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && epoch_ == seen_epoch) work_cv_.Wait(&mu_);
      if (shutdown_) return;
      seen_epoch = epoch_;
      // Capture the job under the lock; Drain then runs lock-free. The
      // pointee stays valid because ParallelFor cannot return (and so the
      // job cannot be torn down) until running_ drops to zero below.
      job = job_;
    }
    const double busy = Drain(worker, *job);
    {
      MutexLock lock(&mu_);
      busy_seconds_ += busy;
      if (--running_ == 0) done_cv_.NotifyOne();
    }
  }
}

ParallelForStats ThreadPool::ParallelFor(
    int64_t count, std::span<const int64_t> run_starts,
    const std::function<void(int, int64_t)>& fn) {
  ParallelForStats stats;
  if (count <= 0) return stats;
  WallTimer wall;

  if (num_threads_ == 1) {
    // Serial fast path: no locks, no atomics visible to the caller.
    const auto start = std::chrono::steady_clock::now();
    for (int64_t index = 0; index < count; ++index) fn(0, index);
    const auto end = std::chrono::steady_clock::now();
    if (slice_hook_) slice_hook_(ParallelForSlice{0, start, end, count});
    stats.wall_seconds = std::chrono::duration<double>(end - start).count();
    stats.busy_seconds = stats.wall_seconds;
    return stats;
  }

  const Job job{count, run_starts, &fn};
  // Every worker of the previous job has left Drain (running_ reached
  // zero), so no claim races this reset; the mu_ handshake below orders it
  // before this job's first claim.
  next_run_.store(0, std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    // Invariant: ParallelFor is not reentrant from worker bodies.
    // tane-lint: allow(tane-check)
    TANE_CHECK(running_ == 0) << "reentrant ParallelFor";
    job_ = &job;
    busy_seconds_ = 0.0;
    running_ = num_threads_ - 1;
    ++epoch_;
  }
  work_cv_.NotifyAll();

  // The caller participates as worker 0.
  const double own_busy = Drain(0, job);

  MutexLock lock(&mu_);
  while (running_ != 0) done_cv_.Wait(&mu_);
  job_ = nullptr;
  stats.wall_seconds = wall.ElapsedSeconds();
  stats.busy_seconds = busy_seconds_ + own_busy;
  return stats;
}

}  // namespace tane
