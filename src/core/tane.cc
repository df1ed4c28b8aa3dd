#include "core/tane.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/partition_store.h"
#include "core/run_snapshot.h"
#include "lattice/level.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "partition/error.h"
#include "partition/partition_builder.h"
#include "partition/product.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tane {
namespace {

// For cleanup paths where an earlier error must keep precedence: the
// secondary failure is logged, never silently dropped (Status is
// [[nodiscard]]; this is the sanctioned way to sideline one).
// Flight-recorder event, if one is armed (the CLI arms it whenever a
// checkpoint directory is configured). One relaxed global load when idle.
void RecordFlight(int tid, obs::FlightEventType type, std::string_view label,
                  int64_t a = 0, int64_t b = 0) {
  obs::FlightRecorder* recorder = obs::FlightRecorder::active();
  if (recorder != nullptr) recorder->Record(tid, type, label, a, b);
}

// Budget breaches end the run with kResourceExhausted; the flight dump is
// the postmortem of what the run was doing when memory ran out.
void ReportBudgetBreach(int64_t resident, int64_t budget) {
  obs::FlightRecorder* recorder = obs::FlightRecorder::active();
  if (recorder == nullptr) return;
  recorder->Record(-1, obs::FlightEventType::kBudget, "memory_budget",
                   resident, budget);
  recorder->DumpGraceful("memory_budget");
}

void LogIgnoredStatus(const Status& status, const char* context) {
  if (!status.ok()) {
    TANE_LOG(Warning) << context << " failed during error unwind: "
                      << status.ToString();
  }
}

// One attribute set of the current level, with its rhs⁺ candidates C⁺(X),
// the partition error e(X), the member-row count ‖π_X‖ (the next window's
// row-work estimate), and the handle of π_X in the partition store.
struct Node {
  AttributeSet set;
  AttributeSet cplus;
  int64_t error = 0;
  int64_t member_rows = 0;
  int64_t handle = -1;
  bool deleted = false;
};

// Serves partitions by handle, borrowing from the store when it is
// memory-backed and maintaining a small LRU of deserialized partitions when
// it is disk-backed. Pointers stay valid for at least the `capacity - 1`
// following Acquire calls, which suffices for the two-operand uses here.
// Borrowed pointers also survive concurrent Puts and Releases of other
// handles from the commit frontier (the stores guarantee reference
// stability within a task window); the frontier releases a parent inside a
// window only once its last consumer has committed, so no in-flight or
// later task can still read it. Not thread-safe itself; the parallel
// executor keeps one accessor per worker.
class PartitionAccessor {
 public:
  PartitionAccessor(PartitionStore* store, size_t capacity)
      : store_(store), capacity_(capacity) {}

  StatusOr<const StrippedPartition*> Acquire(int64_t handle) {
    if (const StrippedPartition* borrowed = store_->Peek(handle)) {
      return borrowed;
    }
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->first == handle) {
        cache_.splice(cache_.begin(), cache_, it);
        return &cache_.front().second;
      }
    }
    TANE_ASSIGN_OR_RETURN(StrippedPartition partition, store_->Get(handle));
    cache_.emplace_front(handle, std::move(partition));
    while (cache_.size() > capacity_) cache_.pop_back();
    return &cache_.front().second;
  }

  // Drops cached copies (e.g. after their handles are released).
  void Clear() { cache_.clear(); }

  int64_t cache_bytes() const {
    int64_t total = 0;
    for (const auto& [handle, partition] : cache_) {
      total += partition.EstimatedBytes();
    }
    return total;
  }

 private:
  PartitionStore* store_;
  size_t capacity_;
  std::list<std::pair<int64_t, StrippedPartition>> cache_;
};

// Scratch state owned by one worker thread. The G3Calculator and
// PartitionProduct probe tables are O(|r|) and mutated on every call, so
// they can never be shared between workers; the accessor keeps per-worker
// LRU copies when the store is disk-backed. Work counters go straight to
// the run's MetricsRegistry on this worker's shard — single-writer relaxed
// stores, so the hot loops stay free of shared atomics while the progress
// monitor can still read exact totals at any moment.
struct WorkerState {
  WorkerState(PartitionStore* store, int64_t num_rows, int shard)
      : accessor(store, /*capacity=*/8),
        g3(num_rows),
        product(num_rows),
        shard(shard) {}

  PartitionAccessor accessor;
  G3Calculator g3;
  PartitionProduct product;

  // This worker's shard index in the run's MetricsRegistry.
  int shard = 0;
  int64_t stop_poll_tick = 0;
};

// A dependency discovered while testing one node: X\{attribute} → attribute
// with the given error. Recorded per node and merged in node order so the
// output is identical for every thread count.
struct Emission {
  int attribute = -1;
  double error = 0.0;
};

// Everything a worker produced for one node of the level.
struct NodeOutcome {
  Status status = Status::OK();
  AttributeSet cplus_after;
  std::vector<Emission> emissions;
  // False when a cooperative stop fired before the node was picked up; such
  // nodes contribute nothing to the (prefix-correct) partial result.
  bool processed = false;
};

// What a level task builds: the candidate's partition π_X and, when its
// product computed them, the g3/g2 counts of the two validity tests
// X∖{A} → A whose left-hand side is a product parent: [0] for A the second
// largest member of X (lhs parent_b), [1] for the largest (lhs parent_a),
// i.e. indexed by A's rank in X minus |X| − 2.
struct BuiltPartition {
  StrippedPartition partition;
  std::optional<std::array<ViolationCounts, 2>> parent_tests;
};

// One candidate's slot in a fused level window. The owning worker fills the
// payload, then publishes it with a seq_cst store on `done`; the commit
// frontier reads it back with a seq_cst load. No other synchronization
// touches a slot, so the fields carry no lock annotations.
struct WindowSlot {
  std::optional<StatusOr<BuiltPartition>> partition;
  NodeOutcome outcome;
  // Per-slot completion latch. seq_cst on both sides, because the lost-commit
  // argument in RunLevelWindow pairs it with the frontier word like Dekker's
  // flags; no multi-word protocol. tane-lint: allow(naked-atomic)
  std::atomic<int> done{0};
};

// Inputs of one fused level window: the candidates (in node order) with
// their pre-seeded C⁺ sets, and the parent level backing the products and
// validity tests. Only the parents' handles change during the window: the
// commit frontier clears each one as it releases that parent.
struct WindowInputs {
  // The level being built (its nodes' |X|).
  int level_number = 1;
  const std::vector<AttributeSet>* sets = nullptr;
  const std::vector<AttributeSet>* cplus = nullptr;
  // Parent level (survivors of level_number - 1) and, per candidate, the
  // parent positions of its level_number subsets X∖{A} (stride
  // level_number, A ascending; see GenerateNextLevel). nullptr at level 1,
  // where the tests run against π_∅.
  std::vector<Node>* parents = nullptr;
  const std::vector<int>* subset_positions = nullptr;
  // Per parent, the last candidate with it as a subset (-1: none). When
  // set, CommitOneSlot(i) releases the parents whose last consumer is i;
  // nullptr keeps every parent to the level boundary.
  const std::vector<int64_t>* last_consumer = nullptr;
  // Fold mode at level 1: keep a resident copy of every singleton partition
  // next to the stored one.
  bool stash_singletons = false;
  // Σ over candidates of the smaller parent's member rows (or an
  // equivalent proxy): the serial-fallback estimate of the window's total
  // row work.
  int64_t est_row_work = 0;
  // First candidate of each prefix block (candidates sharing parent_a), in
  // ascending order; the pool hands out whole blocks so one worker labels
  // the shared left parent once. nullptr: every candidate is its own run.
  const std::vector<int64_t>* run_starts = nullptr;
};

// Shared mutable state of one fused level window. Workers coordinate
// through the atomic commit `frontier`; everything whose order matters —
// store inserts, the committed node list, the first failure — happens
// under `mu`, strictly in candidate order. That frontier is the whole
// determinism argument: handle values and e(·) bookkeeping are issued
// exactly as a serial run would issue them, for every thread count.
struct WindowContext {
  int64_t count = 0;
  // How far past the frontier a task may start; bounds the partitions that
  // exist outside the store to O(threads), like the old batched generator.
  int64_t gate = 0;
  std::unique_ptr<WindowSlot[]> slots;
  const WindowInputs* in = nullptr;
  // The commit frontier and sticky error flag; their explicit orders are
  // the contract. tane-lint: allow(naked-atomic)
  std::atomic<int64_t> frontier{0};
  // tane-lint: allow(naked-atomic)
  std::atomic<bool> failed{false};
  // What gated workers block on: bumped (release) after every frontier
  // advance, failure or stop, so a waiter that loaded it (acquire) before
  // checking its gate sees every later change. tane-lint: allow(naked-atomic)
  std::atomic<int64_t> wake{0};
  Mutex mu;
  Status status TANE_GUARDED_BY(mu) = Status::OK();
  std::vector<Node> nodes TANE_GUARDED_BY(mu);

  void Wake() {
    wake.fetch_add(1, std::memory_order_release);
    wake.notify_all();
  }
};

class TaneRun {
 public:
  /// `resume_snapshot` (optional, not owned, pre-validated by Discover)
  /// restores the run to its checkpointed level boundary before the
  /// levelwise loop continues.
  TaneRun(const Relation& relation, const TaneConfig& config,
          std::unique_ptr<PartitionStore> store,
          const RunSnapshot* resume_snapshot)
      : relation_(relation),
        resume_snapshot_(resume_snapshot),
        config_(config),
        controller_(config.run_controller),
        store_(std::move(store)),
        num_rows_(relation.num_rows()),
        max_removals_(IntegerThreshold(
            config.epsilon, static_cast<double>(relation.num_rows()))),
        max_pairs_(IntegerThreshold(
            config.epsilon, static_cast<double>(relation.num_rows()) *
                                static_cast<double>(relation.num_rows()))),
        pool_(config.num_threads),
        metrics_(config.num_threads),
        tracer_(config.tracer) {
    store_->set_metrics(&metrics_);
    store_->set_tracer(tracer_);
    workers_.reserve(config.num_threads);
    for (int worker = 0; worker < config.num_threads; ++worker) {
      workers_.push_back(
          std::make_unique<WorkerState>(store_.get(), num_rows_, worker));
      workers_.back()->product.set_metrics(&metrics_, worker);
      workers_.back()->g3.set_metrics(&metrics_, worker);
    }
    if (tracer_ != nullptr) {
      // Per-worker drain slices nest under whichever phase span encloses
      // the parallel region (worker 0 is the coordinator thread, so its
      // slice shares tid 0 with the phase spans). Emit is thread-safe.
      pool_.set_slice_hook([this](const ParallelForSlice& slice) {
        obs::TraceEvent event;
        event.name = "slice";
        event.tid = slice.worker;
        event.start_us = tracer_->ToUs(slice.start);
        event.dur_us =
            std::chrono::duration<double, std::micro>(slice.end - slice.start)
                .count();
        event.args.emplace_back("items", slice.items);
        tracer_->Emit(std::move(event));
      });
    }
  }

  Status Run(DiscoveryResult* result);

  // Partitions still in the store; zero after Run on every path.
  int64_t live_partitions() const { return store_->live_partitions(); }

 private:
  using BuildFn =
      std::function<StatusOr<BuiltPartition>(WorkerState*, int64_t)>;

  // The in-order half of COMPUTE-DEPENDENCIES (paper §5): the level window
  // already ran every node's validity tests fused with its partition build;
  // here the buffered emissions and C⁺ updates land in node order, exactly
  // as the serial loop would have applied them, so pruning decisions
  // downstream are deterministic for every thread count.
  Status MergeOutcomes(std::vector<Node>* level, DiscoveryResult* result);

  // The per-node half of COMPUTE-DEPENDENCIES (lines 3-8): runs every
  // validity test of `node` against its freshly built partition `fine` and
  // collects emissions plus the final C⁺ into `out` without touching shared
  // state. Safe to call concurrently for distinct nodes. The C⁺ updates of
  // lines 7-8 commute (set differences and intersections), so applying them
  // against a snapshot here and merging later reproduces the serial result
  // exactly.
  // `subsets` holds the positions in `prev` of the node's subsets X∖{A},
  // A ascending (unused at level 1). `built` is the node's partition with
  // the product's answers to the tests against its parents, if any.
  Status ProcessNode(int level_number, const Node& node,
                     const BuiltPartition& built,
                     const std::vector<Node>* prev, const int* subsets,
                     WorkerState* w, NodeOutcome* out);

  // PRUNE(L_ℓ), paper §5. Marks nodes deleted and emits key dependencies.
  Status Prune(int level_number, std::vector<Node>* level,
               DiscoveryResult* result);

  // GENERATE-NEXT-LEVEL partition computation for one candidate. The
  // product also answers the two parent tests when count_parent_tests().
  StatusOr<BuiltPartition> BuildCandidatePartition(
      WorkerState* w, const LevelCandidate& candidate,
      const std::vector<Node>& survivors);

  // Tests X\{A} → A given e(X\{A}), the handle of π_X\{A}, e(X), and the
  // node's own partition π_X (`fine`, owned by the window slot — level
  // partitions are tested before they are stored). `answered`, when not
  // null, holds the test's exact g3/g2 counts as the product computed
  // them, which replace the scan. Sets *valid and *error (the error value
  // to report when valid).
  Status TestValidity(WorkerState* w, int64_t prev_error, int64_t prev_handle,
                      int64_t node_error, const StrippedPartition& fine,
                      const ViolationCounts* answered, bool* valid,
                      double* error, bool* exact_holds);

  // The fused task window that builds one level: every candidate is one
  // task (partition build + error + validity tests),
  // runnable as soon as its parents exist — the parents are the previous
  // level, fully live for the whole window, so all tasks are immediately
  // runnable and the pool hands out whole prefix blocks with no
  // intra-level barrier. Results are committed through the index-ordered
  // frontier in WindowContext. On success *next holds the level's nodes and
  // pending_outcomes_ their validity outcomes; on stop/failure both hold
  // the committed prefix. Falls back to an inline serial loop when the
  // window cannot pay for its scheduling (UseParallelWindow).
  Status RunLevelWindow(const WindowInputs& in, const BuildFn& build,
                        std::vector<Node>* next, LevelParallelStats* lp);

  // Commits every consecutive ready slot at the frontier and wakes the
  // gated workers if it moved. blocking=false is the worker-side helper
  // (TryLock: somebody else committing is progress already); blocking=true
  // is the frontier task's own commit and the serial path.
  void CommitReadySlots(WindowContext* ctx, bool blocking)
      TANE_EXCLUDES(ctx->mu);

  // Commits slot `i`: stores the partition, appends the node, releases the
  // parents whose last consumer is `i`, and runs the strided
  // resident-bytes budget check. Called only at the frontier, in candidate
  // order.
  Status CommitOneSlot(WindowContext* ctx, int64_t i)
      TANE_REQUIRES(ctx->mu);

  // Satellite of the scaling fix: decides between the parallel task window
  // and the inline serial path. See TaneConfig::parallel_min_window_rows.
  bool UseParallelWindow(int64_t count, int64_t est_row_work) const;

  // The boundary-to-boundary advance after PRUNE of `level_number`:
  // checkpointing, the suspend/stop decision, GENERATE-NEXT-LEVEL, and the
  // fused build+validate window for the next level. Returns true when the
  // run should continue with `current` holding the next level, false when
  // it wound down (all handles released; the caller exits the loop). Shared
  // by the level loop and the resume prologue, which is what lets a
  // restored run re-enter the lattice mid-flight through the exact same
  // code path. On success every survivor handle is released exactly once
  // before returning: inside the window as soon as its last consumer
  // commits (unless a wind-down snapshot of this level may still be
  // written), else here. On error the caller releases what is left.
  StatusOr<bool> AdvanceLevel(int level_number, std::vector<Node>* survivors,
                              std::vector<Node>* current,
                              DiscoveryResult* result);

  // Serializes the current run state (survivors of `level_number`, post-
  // PRUNE) into a durable snapshot under config_.checkpoint_directory.
  Status WriteCheckpoint(int level_number, const std::vector<Node>& survivors,
                         DiscoveryResult* result);

  // True while a wind-down snapshot of `level_number` may still be
  // written: checkpointing is on and no durable snapshot covers the level
  // yet (per-level checkpointing, or a resume from it, already does). The
  // one predicate behind both the wind-down write and the survivors'
  // lifetime — while it holds, every survivor must live to the boundary.
  bool WindDownSnapshotPending(int level_number) const {
    return checkpointing() && last_checkpoint_level_ < level_number;
  }

  Status MaybeWindDownCheckpoint(int level_number,
                                 const std::vector<Node>& survivors,
                                 DiscoveryResult* result) {
    if (!WindDownSnapshotPending(level_number)) return Status::OK();
    return WriteCheckpoint(level_number, survivors, result);
  }

  // Rehydrates the run from `snapshot`: dependencies and keys replayed in
  // emission order (rebuilding every pruning index), carried counters
  // restored, survivor partitions re-Put through the store chain.
  Status RestoreFromSnapshot(const RunSnapshot& snapshot,
                             DiscoveryResult* result,
                             std::vector<Node>* survivors);

  bool checkpointing() const { return !config_.checkpoint_directory.empty(); }

  // True when products count the two parent tests for TestValidity: the
  // approximate branch (ε > 0) with a measure the counts cover (g3, g2).
  // Exact mode decides by Lemma 2 and g1 needs no scan, so both multiply
  // without the bookkeeping.
  bool count_parent_tests() const {
    return config_.epsilon != 0.0 && config_.measure != ErrorMeasure::kG1;
  }

  // True when validity is exact: the integer threshold of the configured
  // measure is 0, so only dependencies without violations are valid.
  bool exact_threshold() const {
    return (config_.measure == ErrorMeasure::kG1 ? max_pairs_
                                                 : max_removals_) == 0;
  }

  // Releases `node`'s partition, at most once: the handle is cleared
  // before the store sees it, so a failed Release is never retried.
  Status ReleaseNode(Node* node);
  // Releases every live handle in `nodes`, continuing past failures;
  // returns the first.
  Status ReleaseHandles(std::vector<Node>* nodes);
  // Error exit with a level still live: releases it (logging a cleanup
  // failure, `status` takes precedence) and returns `status`.
  Status AbandonLevel(Status status, std::vector<Node>* nodes) {
    LogIgnoredStatus(ReleaseHandles(nodes), "releasing the level");
    return status;
  }
  void SamplePeakMemory();

  int64_t AccessorCacheBytes() const {
    int64_t total = 0;
    for (const auto& worker : workers_) total += worker->accessor.cache_bytes();
    return total;
  }

  // Bytes retained outside the store by every worker's product scratch.
  // Counted toward the memory budget so scratch cannot hide memory from
  // --memory-budget-mb.
  int64_t ScratchBytes() const {
    int64_t total = 0;
    for (const auto& worker : workers_) {
      total += worker->product.ScratchBytes();
    }
    return total;
  }

  void ClearAccessors() {
    for (const auto& worker : workers_) worker->accessor.Clear();
  }

  bool stopped() const { return stop_flag_.load(std::memory_order_relaxed); }

  // Records why the run stopped, once, after the controller latched a
  // reason. A no-op while the controller has not tripped. Coordinator-only.
  void LatchCompletion() {
    if (completion_ != Completion::kComplete || controller_ == nullptr) return;
    const StopReason reason = controller_->stop_reason();
    if (reason == StopReason::kNone) return;
    completion_ = reason == StopReason::kCancelled
                      ? Completion::kCancelled
                      : Completion::kDeadlineExpired;
    // First transition only: the heartbeat announces why the run is winding
    // down, even if the next periodic tick is seconds away.
    if (monitor_ != nullptr) monitor_->EmitNow(StopReasonToString(reason));
    // Same transition arms the postmortem: the dump captures the ring as
    // it stood when the verdict landed, before wind-down noise overwrites
    // the interesting tail.
    obs::FlightRecorder* recorder = obs::FlightRecorder::active();
    if (recorder != nullptr) {
      const std::string_view verdict = StopReasonToString(reason);
      recorder->Record(0, obs::FlightEventType::kVerdict, verdict);
      recorder->DumpGraceful(verdict);
    }
  }

  // Consults the RunController; once it trips, the stop is latched and the
  // run winds down to a partial result. Coordinator-only (between parallel
  // regions and at level boundaries).
  bool PollStop() {
    if (stopped()) {
      LatchCompletion();
      return true;
    }
    if (controller_ != nullptr && controller_->ShouldStop()) {
      stop_flag_.store(true, std::memory_order_relaxed);
      LatchCompletion();
      return true;
    }
    return false;
  }

  // The workers' cooperative stop check: the shared flag is cheap to read
  // every node; the controller's clock is consulted every kStopPollStride
  // polls. Any worker observing the controller trip publishes the flag so
  // its peers wind down too.
  bool WorkerShouldStop(WorkerState* w) {
    if (stop_flag_.load(std::memory_order_relaxed)) return true;
    if (controller_ == nullptr) return false;
    if (++w->stop_poll_tick % kStopPollStride != 0) return false;
    if (!controller_->ShouldStop()) return false;
    stop_flag_.store(true, std::memory_order_relaxed);
    return true;
  }

  // Under StorageMode::kMemory a configured budget is a hard limit: the
  // run aborts rather than thrash. kAuto spills instead (in the store) and
  // kDisk is already O(1)-resident. This is the full quiesce-point
  // accounting; mid-window commits run the cheaper store-resident check in
  // CommitOneSlot (worker scratch is in flux while a window runs).
  Status CheckMemoryBudget() {
    if (config_.storage != StorageMode::kMemory || controller_ == nullptr) {
      return Status::OK();
    }
    const int64_t budget = controller_->memory_budget_bytes();
    if (budget <= 0) return Status::OK();
    const int64_t resident = store_->resident_bytes() + AccessorCacheBytes() +
                             ScratchBytes();
    if (resident <= budget) return Status::OK();
    ReportBudgetBreach(resident, budget);
    return Status::ResourceExhausted(
        "resident partitions (" + std::to_string(resident) +
        " bytes) exceed the memory budget (" + std::to_string(budget) +
        " bytes); use StorageMode::kAuto to degrade to disk instead");
  }

  const StrippedPartition& EmptySetPartition();

  // Records an emitted dependency for the definitional C⁺ fallback and the
  // covered-rhs pruning masks below. Coordinator-only: workers buffer
  // emissions in NodeOutcome and the merge loop calls this in node order.
  // The restore path passes count=false: its kFdsEmitted total is carried
  // wholesale from the snapshot, so per-dependency increments would double.
  void RecordFd(DiscoveryResult* result, AttributeSet lhs, int rhs,
                double error, bool count = true) {
    result->fds.push_back({lhs, rhs, error});
    if (count) metrics_.Add(0, obs::kFdsEmitted, 1);
    found_lhs_by_rhs_[rhs].push_back(lhs);
    if (lhs.empty()) {
      covered_by_empty_ = covered_by_empty_.With(rhs);
    } else if (lhs.size() == 1) {
      covered_by_singleton_[rhs] =
          covered_by_singleton_[rhs].Union(lhs);
    }
  }

  // True when `lhs` → `rhs` is (approximately) valid, answered from the
  // minimal dependencies discovered so far. Sound for dependencies whose
  // left-hand side is smaller than the current level, because the levelwise
  // sweep has already emitted every minimal dependency below that size.
  bool HoldsByKnownFds(AttributeSet lhs, int rhs) const {
    for (AttributeSet known : found_lhs_by_rhs_[rhs]) {
      if (lhs.ContainsAll(known)) return true;
    }
    return false;
  }

  // Definitional membership test A ∈ C⁺(Y) (paper §4):
  //   C⁺(Y) = {A ∈ R | for all B ∈ Y, Y\{A,B} → B does not hold}.
  // Used when PRUNE needs C⁺ of a set that was never generated because a
  // key beneath it was pruned away; the stored levels have no value for it,
  // but the discovered-FD index answers the defining validity queries.
  bool InDefinitionalCplus(AttributeSet y, int attribute) const {
    for (int b : Members(y)) {
      if (HoldsByKnownFds(y.Without(attribute).Without(b), b)) return false;
    }
    return true;
  }

  // Seeds C⁺ for one candidate of `level_number` (line 2 of
  // COMPUTE-DEPENDENCIES: ∩ of the parents' C⁺, full set at level 1) and
  // applies the covered-rhs pruning. `subsets` holds the positions in
  // `parents` of the set's level_number subsets (unused at level 1). Runs
  // on the coordinator before the level window, so every task starts from
  // its final seeded value.
  AttributeSet SeedCplus(int level_number, AttributeSet set,
                         const std::vector<Node>* parents,
                         const int* subsets) {
    AttributeSet cplus = AttributeSet::FullSet(relation_.num_columns());
    if (level_number > 1) {
      for (int k = 0; k < level_number && !cplus.empty(); ++k) {
        cplus = cplus.Intersect((*parents)[subsets[k]].cplus);
      }
    }
    // Covered-rhs pruning: a candidate A outside X is dead once some known
    // dependency lhs' → A has lhs' ⊆ X — every dependency that could still
    // use it would have a left-hand side ⊇ X ⊇ lhs' and thus not be
    // minimal. Checking the ∅- and singleton-lhs dependencies costs O(|R|)
    // per set and is what collapses the search at large ε.
    if (config_.use_covered_rhs_pruning) {
      for (int attribute : Members(cplus.Difference(set))) {
        if (covered_by_empty_.Contains(attribute) ||
            !covered_by_singleton_[attribute].Intersect(set).empty()) {
          cplus = cplus.Without(attribute);
        }
      }
    }
    return cplus;
  }

  // Stop polling cadence for the inner validity-test / product loops.
  static constexpr int64_t kStopPollStride = 64;

  // Auto threshold for UseParallelWindow: below this many total row
  // operations the fan-out/join of a window costs more than the level.
  static constexpr int64_t kAutoParallelMinRowWork = 1 << 15;

  const Relation& relation_;
  // Snapshot to restore before the loop, or nullptr for a fresh run.
  const RunSnapshot* const resume_snapshot_;
  const TaneConfig& config_;
  RunController* const controller_;
  std::unique_ptr<PartitionStore> store_;
  const int64_t num_rows_;
  // ⌊ε·|r|⌋: validity threshold for g3 removal and g2 row counts.
  const int64_t max_removals_;
  // ⌊ε·|r|²⌋: validity threshold for g1 ordered-pair counts.
  const int64_t max_pairs_;
  ThreadPool pool_;
  // Run-wide metric shards (one per worker) plus gauges; always on. The
  // DiscoveryStats counters become views over this registry at the end of
  // Run. Declared before workers_ so products can bind to it in the ctor
  // and after store_ so teardown order is safe.
  obs::MetricsRegistry metrics_;
  obs::Tracer* const tracer_;
  std::unique_ptr<obs::ProgressMonitor> monitor_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  DiscoveryStats stats_;

  // Validity outcomes of the most recent level window, in node order,
  // waiting for the coordinator's MergeOutcomes at the top of the level
  // loop. Filled by RunLevelWindow after its workers quiesce.
  std::vector<NodeOutcome> pending_outcomes_;

  // Cooperative stop state: the flag is written by any worker or the
  // coordinator (mirroring the controller's latched reason); completion_ is
  // coordinator-only. A lone sticky flag needs no multi-word protocol.
  // tane-lint: allow(naked-atomic)
  std::atomic<bool> stop_flag_{false};
  Completion completion_ = Completion::kComplete;

  // Checkpoint bookkeeping (coordinator-only). last_checkpoint_level_ is
  // the deepest level a durable snapshot covers — 0 when none exists.
  int last_checkpoint_level_ = 0;
  int resumed_from_level_ = 0;
  double checkpoint_seconds_ = 0.0;

  // π_∅ and e(∅), needed when testing dependencies ∅ → A at level 1. Built
  // eagerly before the first parallel region (workers only read it).
  std::unique_ptr<StrippedPartition> empty_partition_;
  int64_t empty_error_ = 0;

  // found_lhs_by_rhs_[A] = left-hand sides of every dependency emitted so
  // far with right-hand side A; backs the definitional C⁺ fallback.
  std::vector<std::vector<AttributeSet>> found_lhs_by_rhs_;

  // covered_by_empty_ holds the attributes A with ∅ → A already emitted;
  // covered_by_singleton_[A] holds the B with {B} → A emitted. Both back
  // the covered-rhs pruning (TaneConfig::use_covered_rhs_pruning).
  AttributeSet covered_by_empty_;
  std::vector<AttributeSet> covered_by_singleton_;

  // Resident copies of the single-attribute partitions, kept only in the
  // Schlimmer-style recomputation mode (use_partition_products == false).
  // Written by the level-1 window's commit frontier (serialized under its
  // mutex, in attribute order); read-only once that window ends, so later
  // windows' workers share them without locking.
  std::vector<StrippedPartition> singleton_partitions_;
};

const StrippedPartition& TaneRun::EmptySetPartition() {
  if (empty_partition_ == nullptr) {
    empty_partition_ = std::make_unique<StrippedPartition>(
        PartitionBuilder::ForAttributeSet(relation_, AttributeSet(),
                                          config_.use_stripped_partitions));
  }
  return *empty_partition_;
}

void TaneRun::SamplePeakMemory() {
  // Coordinator-only, between parallel regions. The gauges feed the
  // heartbeat line; stats_.peak_partition_bytes is read back from the peak
  // gauge at the end of the run.
  const int64_t resident = store_->resident_bytes() + AccessorCacheBytes() +
                           ScratchBytes();
  metrics_.SetGauge(obs::kResidentBytes, resident);
  metrics_.MaxGauge(obs::kPeakResidentBytes, resident);
}

Status TaneRun::ReleaseNode(Node* node) {
  if (node->handle < 0) return Status::OK();
  return store_->Release(std::exchange(node->handle, -1));
}

Status TaneRun::ReleaseHandles(std::vector<Node>* nodes) {
  Status first = Status::OK();
  for (Node& node : *nodes) {
    Status status = ReleaseNode(&node);
    if (first.ok()) first = std::move(status);
  }
  ClearAccessors();
  return first;
}

Status TaneRun::TestValidity(WorkerState* w, int64_t prev_error,
                             int64_t prev_handle, int64_t node_error,
                             const StrippedPartition& fine,
                             const ViolationCounts* answered, bool* valid,
                             double* error, bool* exact_holds) {
  metrics_.Add(w->shard, obs::kValidityTests, 1);
  *exact_holds = (prev_error == node_error);
  *error = 0.0;

  if (config_.epsilon == 0.0) {
    // Lemma 2: X→A holds iff |π_X| = |π_X∪A| iff e(X) = e(X∪A).
    *valid = *exact_holds;
    return Status::OK();
  }

  // Approximate mode: decide error(X\{A} → A) ≤ ε with the violation count
  // compared against the precomputed integer threshold. For g3 the
  // e(·)-based bounds run first (O(1)); then the product's own count when
  // it computed one; the exact partition scan (O(|r|)) only when neither
  // decides. g2 has no bounds, and g1 needs class sizes only.
  const auto per_row = [this](int64_t count) {
    return num_rows_ == 0
               ? 0.0
               : static_cast<double>(count) / static_cast<double>(num_rows_);
  };
  if (config_.measure == ErrorMeasure::kG3) {
    const int64_t lower = std::max<int64_t>(0, prev_error - node_error);
    const int64_t upper = prev_error;
    if (config_.use_g3_bounds && lower > max_removals_) {
      metrics_.Add(w->shard, obs::kG3ScansSkipped, 1);
      *valid = false;
      return Status::OK();
    }
    if (config_.use_g3_bounds && !config_.compute_exact_errors &&
        upper <= max_removals_) {
      metrics_.Add(w->shard, obs::kG3ScansSkipped, 1);
      *valid = true;
      *error = per_row(upper);
      return Status::OK();
    }
  }

  if (answered != nullptr) {
    // The product already saw every π_X subclass of the coarse partition's
    // classes, so its count is this test's exact count: no scan.
    metrics_.Add(w->shard, obs::kG3ScansSkipped, 1);
    metrics_.Add(w->shard, obs::kG3FromProduct, 1);
    const int64_t count = config_.measure == ErrorMeasure::kG3
                              ? answered->removals
                              : answered->violating_rows;
    *valid = count <= max_removals_;
    *error = per_row(count);
    return Status::OK();
  }

  const StrippedPartition* coarse = nullptr;
  if (prev_handle >= 0) {
    // Borrowed via the worker's accessor LRU; the commit frontier releases
    // the handle once its last consumer commits, or the level driver at
    // the boundary.
    // tane-analyzer: allow(handle-discipline)
    TANE_ASSIGN_OR_RETURN(coarse, w->accessor.Acquire(prev_handle));
  } else {
    coarse = empty_partition_.get();
    // Invariant: the level driver prebuilds the empty-set partition.
    // tane-lint: allow(tane-check)
    TANE_CHECK(coarse != nullptr) << "empty-set partition not prebuilt";
  }
  metrics_.Add(w->shard, obs::kG3Scans, 1);
  if (config_.measure == ErrorMeasure::kG1) {
    // Class sizes only: π_X refines π_{X∖A} (see ViolatingPairCount).
    TANE_ASSIGN_OR_RETURN(const int64_t violating_pairs,
                          w->g3.ViolatingPairCount(*coarse, fine));
    *valid = violating_pairs <= max_pairs_;
    *error = num_rows_ == 0 ? 0.0
                            : static_cast<double>(violating_pairs) /
                                  (static_cast<double>(num_rows_) *
                                   static_cast<double>(num_rows_));
    return Status::OK();
  }
  // The scan walks both operands' member rows; the histogram captures the
  // per-scan cost distribution for the run report.
  metrics_.Record(w->shard, obs::kG3ScanMemberRows,
                  coarse->num_member_rows() + fine.num_member_rows());
  int64_t count = 0;
  if (config_.measure == ErrorMeasure::kG3) {
    TANE_ASSIGN_OR_RETURN(count, w->g3.RemovalCount(*coarse, fine));
  } else {
    TANE_ASSIGN_OR_RETURN(count, w->g3.ViolatingRowCount(*coarse, fine));
  }
  *valid = count <= max_removals_;
  *error = per_row(count);
  return Status::OK();
}

Status TaneRun::ProcessNode(int level_number, const Node& node,
                            const BuiltPartition& built,
                            const std::vector<Node>* prev, const int* subsets,
                            WorkerState* w, NodeOutcome* out) {
  // Lines 3-8 for one node: test X\{A} → A for A ∈ X ∩ C⁺(X). The
  // candidate set is snapshot before any test, exactly like the serial
  // loop, so C⁺ updates from this node's own emissions never affect which
  // tests run.
  AttributeSet cplus = node.cplus;
  const AttributeSet candidates = node.set.Intersect(node.cplus);
  for (int attribute : Members(candidates)) {
    int64_t prev_error = empty_error_;
    int64_t prev_handle = -1;
    const ViolationCounts* answered = nullptr;
    if (level_number > 1) {
      // X∖{A} is the subset for A's rank among X's members.
      const int rank = node.set.Rank(attribute);
      const Node& parent = (*prev)[subsets[rank]];
      prev_error = parent.error;
      prev_handle = parent.handle;
      // The two largest members' tests have a product parent as their
      // left-hand side.
      if (built.parent_tests.has_value() && rank >= level_number - 2) {
        answered = &(*built.parent_tests)[rank - (level_number - 2)];
      }
    }

    bool valid = false;
    bool exact_holds = false;
    double error = 0.0;
    TANE_RETURN_IF_ERROR(TestValidity(w, prev_error, prev_handle, node.error,
                                      built.partition, answered, &valid,
                                      &error, &exact_holds));
    if (!valid) continue;

    // Line 6: the minimal dependency, buffered for the in-order merge.
    out->emissions.push_back({attribute, error});
    // Line 7: A can no longer be a minimal rhs for any superset.
    cplus = cplus.Without(attribute);
    // Line 8 (exact) / 8' (approximate): Lemma 4.1 strengthening. In the
    // approximate algorithm it applies only when the dependency holds
    // exactly.
    if (config_.use_rhs_plus_pruning &&
        (config_.epsilon == 0.0 || exact_holds)) {
      cplus = cplus.Intersect(node.set);
    }
  }
  out->cplus_after = cplus;
  return Status::OK();
}

Status TaneRun::MergeOutcomes(std::vector<Node>* level,
                              DiscoveryResult* result) {
  // Invariant: the window that built `level` filled one outcome per node.
  // tane-lint: allow(tane-check)
  TANE_CHECK(pending_outcomes_.size() == level->size())
      << "window outcomes out of step with the level";
  // Merge in node order: the emissions and C⁺ updates land exactly as the
  // serial loop would have applied them. Aborting between nodes keeps the
  // result prefix-correct: each emitted dependency passed its own validity
  // test and its minimality rests only on fully completed lower levels, so
  // it also appears in the complete run's output.
  for (size_t i = 0; i < level->size(); ++i) {
    NodeOutcome& out = pending_outcomes_[i];
    if (!out.processed) continue;  // a stop fired before this node ran
    TANE_RETURN_IF_ERROR(out.status);
    Node& node = (*level)[i];
    for (const Emission& emission : out.emissions) {
      RecordFd(result, node.set.Without(emission.attribute),
               emission.attribute, emission.error);
    }
    node.cplus = out.cplus_after;
  }
  pending_outcomes_.clear();
  return Status::OK();
}

Status TaneRun::Prune(int level_number, std::vector<Node>* level,
                      DiscoveryResult* result) {
  LevelIndex index;
  {
    std::vector<AttributeSet> sets;
    sets.reserve(level->size());
    for (const Node& node : *level) sets.push_back(node.set);
    index = LevelIndex(sets);
  }

  for (Node& node : *level) {
    // Rule 1: empty C⁺ means no superset can yield a minimal dependency.
    if (node.cplus.empty()) {
      node.deleted = true;
      continue;
    }
    // Rule 2: key pruning (Lemma 4.2). A set reaching its level with
    // e(X) = 0 is a key: superkeys that are not keys have a key as a proper
    // subset and were therefore never generated. Exact validity only: with
    // a nonzero threshold the minimal AFDs Y\{A} → A with A ∈ X are tested
    // at supersets Y of X, which deleting X would never generate, and the
    // C⁺ sets below do not certify approximate minimality.
    if (config_.use_key_pruning && exact_threshold() && node.error == 0 &&
        num_rows_ > 0) {
      metrics_.Add(0, obs::kKeysFound, 1);
      result->keys.push_back(node.set);
      // Output X → A for rhs⁺ candidates outside X whose minimality is
      // certified by the C⁺ sets of this level (paper PRUNE, lines 5-7).
      if (level_number <= config_.max_lhs_size) {
        for (int attribute : Members(node.cplus.Difference(node.set))) {
          bool minimal = true;
          for (int inside : Members(node.set)) {
            const AttributeSet sibling =
                node.set.With(attribute).Without(inside);
            const int pos = index.Find(sibling);
            if (pos >= 0) {
              if (!(*level)[pos].cplus.Contains(attribute)) {
                minimal = false;
                break;
              }
            } else if (!InDefinitionalCplus(sibling, attribute)) {
              // The sibling was never generated (a key beneath it was
              // pruned); fall back to the definition of C⁺, answered from
              // the dependencies discovered so far.
              minimal = false;
              break;
            }
          }
          if (minimal) {
            RecordFd(result, node.set, attribute, 0.0);
          }
        }
      }
      node.deleted = true;
    }
  }

  // Partitions of deleted nodes are dead: nothing later reads them.
  for (Node& node : *level) {
    if (node.deleted && node.handle >= 0) {
      TANE_RETURN_IF_ERROR(store_->Release(node.handle));
      node.handle = -1;
    }
  }
  ClearAccessors();
  return Status::OK();
}

StatusOr<BuiltPartition> TaneRun::BuildCandidatePartition(
    WorkerState* w, const LevelCandidate& candidate,
    const std::vector<Node>& survivors) {
  if (config_.use_partition_products) {
    // Both parents are borrows through the worker's accessor LRU; the
    // commit frontier releases them once their last consumer commits, or
    // AdvanceLevel at the level boundary.
    // tane-analyzer: allow(handle-discipline)
    TANE_ASSIGN_OR_RETURN(
        const StrippedPartition* a,
        w->accessor.Acquire(survivors[candidate.parent_a].handle));
    // tane-analyzer: allow(handle-discipline)
    TANE_ASSIGN_OR_RETURN(
        const StrippedPartition* b,
        w->accessor.Acquire(survivors[candidate.parent_b].handle));
    metrics_.Add(w->shard, obs::kPartitionProducts, 1);
    // Handles are allocated monotonically and never reused, so handle+1 is
    // a sound content token: consecutive candidates sharing their left
    // parent (GenerateNextLevel groups them) skip re-labeling.
    const uint64_t token =
        static_cast<uint64_t>(survivors[candidate.parent_a].handle) + 1;
    BuiltPartition built;
    if (count_parent_tests()) {
      TANE_ASSIGN_OR_RETURN(CountedProduct counted,
                            w->product.MultiplyCounted(*a, *b, token));
      built.partition = std::move(counted.partition);
      built.parent_tests = {counted.b, counted.a};
    } else {
      TANE_ASSIGN_OR_RETURN(built.partition,
                            w->product.Multiply(*a, *b, token));
    }
    return built;
  }
  // Schlimmer-style recomputation: fold the candidate set's singleton
  // partitions, |X|−1 products instead of one.
  const std::vector<int> members = candidate.set.ToIndices();
  BuiltPartition built;
  built.partition = singleton_partitions_[members[0]];
  for (size_t i = 1; i < members.size(); ++i) {
    TANE_ASSIGN_OR_RETURN(
        built.partition,
        w->product.Multiply(built.partition,
                            singleton_partitions_[members[i]]));
    metrics_.Add(w->shard, obs::kPartitionProducts, 1);
  }
  return built;
}

bool TaneRun::UseParallelWindow(int64_t count, int64_t est_row_work) const {
  if (pool_.num_threads() <= 1) return false;
  if (count < 2) return false;
  const int64_t configured = config_.parallel_min_window_rows;
  if (configured == 0) return true;
  if (configured > 0) return est_row_work >= configured;
  // Auto: a lone hardware thread can never overlap the window's work (the
  // pool would only add scheduling overhead on top of a serial
  // execution), and a level whose total row work is tiny loses more to
  // fan-out/join than it can win back. hardware_concurrency() == 0 means
  // "unknown" and gets the benefit of the doubt.
  if (std::thread::hardware_concurrency() == 1) return false;
  return est_row_work >= kAutoParallelMinRowWork;
}

Status TaneRun::CommitOneSlot(WindowContext* ctx, int64_t i) {
  WindowSlot& slot = ctx->slots[i];
  // Invariant: the frontier only reaches published slots.
  // tane-lint: allow(tane-check)
  TANE_CHECK(slot.partition.has_value()) << "commit of an unpublished slot";
  if (!slot.partition->ok()) return slot.partition->status();
  TANE_RETURN_IF_ERROR(slot.outcome.status);
  StrippedPartition partition = std::move(slot.partition->value().partition);
  slot.partition.reset();

  Node node;
  node.set = (*ctx->in->sets)[i];
  node.cplus = (*ctx->in->cplus)[i];
  node.error = partition.Error();
  node.member_rows = partition.num_member_rows();
  if (ctx->in->stash_singletons) {
    // Fold mode keeps a resident copy next to the stored one; the store
    // gets the copy so the original can live in singleton_partitions_.
    TANE_ASSIGN_OR_RETURN(node.handle, store_->Put(partition));
    singleton_partitions_.push_back(std::move(partition));
  } else {
    TANE_ASSIGN_OR_RETURN(node.handle, store_->Put(std::move(partition)));
  }
  ctx->nodes.push_back(node);
  metrics_.AddShared(obs::kSetsGenerated, 1);

  // Every task up to `i` has committed and no later one reads these
  // parents, so they are dead; release them in candidate order.
  if (const std::vector<int64_t>* last = ctx->in->last_consumer) {
    const int stride = ctx->in->level_number;
    const int* subsets = ctx->in->subset_positions->data() + i * stride;
    for (int k = 0; k < stride; ++k) {
      if ((*last)[subsets[k]] == i) {
        TANE_RETURN_IF_ERROR(ReleaseNode(&(*ctx->in->parents)[subsets[k]]));
      }
    }
  }

  if ((i & 15) == 0) {
    // Strided mid-window accounting: worker scratch and accessor caches are
    // in flux, so only the store's resident bytes are sampled here; the
    // full CheckMemoryBudget runs at the window's quiesce point.
    const int64_t resident = store_->resident_bytes();
    metrics_.MaxGauge(obs::kPeakResidentBytes, resident);
    if (config_.storage == StorageMode::kMemory && controller_ != nullptr) {
      const int64_t budget = controller_->memory_budget_bytes();
      if (budget > 0 && resident > budget) {
        ReportBudgetBreach(resident, budget);
        return Status::ResourceExhausted(
            "resident partitions (" + std::to_string(resident) +
            " bytes) exceed the memory budget (" + std::to_string(budget) +
            " bytes); use StorageMode::kAuto to degrade to disk instead");
      }
    }
  }
  return Status::OK();
}

void TaneRun::CommitReadySlots(WindowContext* ctx, bool blocking) {
  if (blocking) {
    ctx->mu.Lock();
  } else if (!ctx->mu.TryLock()) {
    // Somebody else is committing — that is already progress. A slot it
    // misses is the frontier's, whose own worker commits it blocking.
    return;
  }
  const int64_t start = ctx->frontier.load(std::memory_order_relaxed);
  int64_t i = start;
  while (i < ctx->count && !ctx->failed.load(std::memory_order_relaxed) &&
         ctx->slots[i].done.load(std::memory_order_seq_cst) != 0) {
    Status status = CommitOneSlot(ctx, i);
    if (!status.ok()) {
      ctx->status = std::move(status);
      ctx->failed.store(true, std::memory_order_relaxed);
      break;
    }
    ++i;
    ctx->frontier.store(i, std::memory_order_seq_cst);
  }
  ctx->mu.Unlock();
  if (i != start || ctx->failed.load(std::memory_order_relaxed)) ctx->Wake();
}

Status TaneRun::RunLevelWindow(const WindowInputs& in, const BuildFn& build,
                               std::vector<Node>* next,
                               LevelParallelStats* lp) {
  const int64_t count = static_cast<int64_t>(in.sets->size());
  pending_outcomes_.clear();
  next->clear();
  if (count == 0) return Status::OK();

  WindowContext ctx;
  ctx.count = count;
  ctx.gate = std::max<int64_t>(
      16, static_cast<int64_t>(pool_.num_threads()) * 8);
  ctx.slots = std::make_unique<WindowSlot[]>(count);
  ctx.in = &in;
  {
    MutexLock lock(&ctx.mu);
    ctx.nodes.reserve(count);
  }

  // The per-task body, shared by the parallel window and the serial
  // fallback: build the candidate's partition and fuse in the validity
  // tests against the parent level.
  auto run_task = [&](WorkerState* w, int64_t i) {
    WindowSlot& slot = ctx.slots[i];
    slot.partition.emplace(build(w, i));
    if (!slot.partition->ok()) return;
    const BuiltPartition& built = slot.partition->value();
    Node node;
    node.set = (*in.sets)[i];
    node.cplus = (*in.cplus)[i];
    node.error = built.partition.Error();
    const int* subsets =
        in.subset_positions == nullptr
            ? nullptr
            : in.subset_positions->data() + i * in.level_number;
    slot.outcome.status = ProcessNode(in.level_number, node, built,
                                      in.parents, subsets, w, &slot.outcome);
    slot.outcome.processed = true;
    metrics_.Add(w->shard, obs::kNodesProcessed, 1);
  };

  store_->BeginTaskWindow();
  if (UseParallelWindow(count, in.est_row_work)) {
    // A worker leaving on a stop or failure wakes the gated ones: the
    // frontier may never move again, and their wait returns only when the
    // wake word changes.
    auto leaving = [&](WorkerState* w) {
      if (!ctx.failed.load(std::memory_order_relaxed) &&
          !WorkerShouldStop(w)) {
        return false;
      }
      ctx.Wake();
      return true;
    };
    const std::span<const int64_t> runs =
        in.run_starts == nullptr ? std::span<const int64_t>()
                                 : std::span<const int64_t>(*in.run_starts);
    const ParallelForStats region = pool_.ParallelFor(
        count, runs, [&](int worker, int64_t i) {
          WorkerState* w = workers_[worker].get();
          if (leaving(w)) return;
          // The commit-distance gate: a task `gate` or more past the
          // frontier blocks until the frontier catches up. This cannot
          // deadlock. Let m be the minimum uncommitted task; the frontier
          // is at m, so m itself is never gated. Claims ascend, so while
          // m's run is unclaimed every claimed run lies below m: its tasks
          // are committed, its holder is not gated, and the next claim
          // takes m's run. Its tasks before m are committed and a run
          // executes in ascending order, so its worker reaches m and runs
          // it, and the frontier always advances.
          if (i >= ctx.frontier.load(std::memory_order_seq_cst) + ctx.gate) {
            RecordFlight(worker, obs::FlightEventType::kStall, "gate", i,
                         ctx.frontier.load(std::memory_order_relaxed));
            while (true) {
              const int64_t seen = ctx.wake.load(std::memory_order_acquire);
              if (i < ctx.frontier.load(std::memory_order_seq_cst) +
                          ctx.gate) {
                break;
              }
              if (leaving(w)) return;
              ctx.wake.wait(seen, std::memory_order_acquire);
            }
          }
          run_task(w, i);
          // No commit gets lost to a failed TryLock: `done` and the
          // frontier are both seq_cst, so either this worker sees the
          // frontier at i and commits with a blocking Lock, or the
          // committer that moves the frontier to i then sees `done`.
          ctx.slots[i].done.store(1, std::memory_order_seq_cst);
          CommitReadySlots(
              &ctx, /*blocking=*/ctx.frontier.load(
                        std::memory_order_seq_cst) == i);
        });
    lp->wall_seconds += region.wall_seconds;
    lp->worker_seconds += region.busy_seconds;
  } else {
    // Serial fallback: same task and commit code on the caller thread, no
    // pool, no gate — the frontier trivially follows the loop index.
    WallTimer serial_timer;
    WorkerState* w = workers_[0].get();
    for (int64_t i = 0;
         i < count && !ctx.failed.load(std::memory_order_relaxed); ++i) {
      if (WorkerShouldStop(w)) break;
      run_task(w, i);
      ctx.slots[i].done.store(1, std::memory_order_release);
      CommitReadySlots(&ctx, /*blocking=*/true);
    }
    const double elapsed = serial_timer.ElapsedSeconds();
    lp->wall_seconds += elapsed;
    lp->worker_seconds += elapsed;
  }
  const Status end_status = store_->EndTaskWindow();

  int64_t committed = 0;
  Status window_status = Status::OK();
  {
    MutexLock lock(&ctx.mu);
    committed = ctx.frontier.load(std::memory_order_relaxed);
    *next = std::move(ctx.nodes);
    window_status = ctx.status;
  }
  pending_outcomes_.reserve(committed);
  for (int64_t i = 0; i < committed; ++i) {
    pending_outcomes_.push_back(std::move(ctx.slots[i].outcome));
  }
  if (!window_status.ok()) {
    LogIgnoredStatus(end_status, "ending the task window");
    return window_status;
  }
  return end_status;
}

Status TaneRun::WriteCheckpoint(int level_number,
                                const std::vector<Node>& survivors,
                                DiscoveryResult* result) {
  WallTimer timer;
  obs::SpanGuard span(tracer_, "checkpoint", &metrics_);
  RunSnapshot snapshot;
  snapshot.config_fingerprint = ConfigFingerprint(config_);
  snapshot.dataset_fingerprint = DatasetFingerprint(relation_);
  snapshot.num_rows = num_rows_;
  snapshot.num_columns = relation_.num_columns();
  snapshot.completed_level = level_number;
  // Emission order, not canonical order: CanonicalizeFds only runs at the
  // end of Run, and the restore path replays these to rebuild the pruning
  // indexes exactly as the interrupted run had them.
  snapshot.fds = result->fds;
  snapshot.keys = result->keys;
  snapshot.counters.sets_generated = metrics_.CounterTotal(obs::kSetsGenerated);
  snapshot.counters.validity_tests = metrics_.CounterTotal(obs::kValidityTests);
  snapshot.counters.g3_scans = metrics_.CounterTotal(obs::kG3Scans);
  snapshot.counters.g3_scans_skipped =
      metrics_.CounterTotal(obs::kG3ScansSkipped);
  snapshot.counters.g3_from_product =
      metrics_.CounterTotal(obs::kG3FromProduct);
  snapshot.counters.partition_products =
      metrics_.CounterTotal(obs::kPartitionProducts);
  snapshot.counters.keys_found = metrics_.CounterTotal(obs::kKeysFound);
  snapshot.counters.nodes_processed =
      metrics_.CounterTotal(obs::kNodesProcessed);
  snapshot.counters.fds_emitted = metrics_.CounterTotal(obs::kFdsEmitted);
  snapshot.counters.max_level_size = metrics_.gauge(obs::kMaxLevelSize);
  snapshot.level_parallel = stats_.level_parallel;
  snapshot.survivors.reserve(survivors.size());
  {
    obs::SpanGuard serialize_span(tracer_, "checkpoint-serialize", &metrics_);
    for (const Node& node : survivors) {
      SnapshotNode stored;
      stored.set = node.set;
      stored.cplus = node.cplus;
      stored.error = node.error;
      const StrippedPartition* partition = store_->Peek(node.handle);
      StrippedPartition owned;
      if (partition == nullptr) {
        TANE_ASSIGN_OR_RETURN(owned, store_->Get(node.handle));
        partition = &owned;
      }
      stored.partition_bytes = SerializePartition(*partition);
      snapshot.survivors.push_back(std::move(stored));
      metrics_.Add(0, obs::kCheckpointNodesWritten, 1);
    }
    serialize_span.AddArg("nodes",
                          static_cast<int64_t>(snapshot.survivors.size()));
  }
  int64_t bytes = 0;
  {
    // The serialize loop above is CPU (partition encode); this is the
    // durable write. Separating them in the trace tells fsync stalls
    // apart from encode cost.
    obs::SpanGuard write_span(tracer_, "checkpoint-write", &metrics_);
    TANE_ASSIGN_OR_RETURN(
        bytes, WriteSnapshot(config_.checkpoint_directory, snapshot));
    write_span.AddArg("bytes", bytes);
  }
  metrics_.Add(0, obs::kCheckpointWrites, 1);
  metrics_.Add(0, obs::kCheckpointBytesWritten, bytes);
  metrics_.SetGauge(obs::kCheckpointLastLevel, level_number);
  last_checkpoint_level_ = level_number;
  checkpoint_seconds_ += timer.ElapsedSeconds();
  span.AddArg("level", level_number);
  span.AddArg("nodes", static_cast<int64_t>(snapshot.survivors.size()));
  span.AddArg("bytes", bytes);
  RecordFlight(-1, obs::FlightEventType::kCheckpointWrite, "snapshot", bytes,
               static_cast<int64_t>(snapshot.survivors.size()));
  return Status::OK();
}

Status TaneRun::RestoreFromSnapshot(const RunSnapshot& snapshot,
                                    DiscoveryResult* result,
                                    std::vector<Node>* survivors) {
  obs::SpanGuard span(tracer_, "restore", &metrics_);
  metrics_.Add(0, obs::kCheckpointReads, 1);
  metrics_.Add(0, obs::kCheckpointBytesRead, snapshot.serialized_bytes);
  span.AddArg("level", snapshot.completed_level);
  span.AddArg("nodes", static_cast<int64_t>(snapshot.survivors.size()));
  span.AddArg("bytes", snapshot.serialized_bytes);
  RecordFlight(-1, obs::FlightEventType::kCheckpointRestore, "snapshot",
               snapshot.serialized_bytes,
               static_cast<int64_t>(snapshot.survivors.size()));
  // Replaying the dependencies in emission order rebuilds found_lhs_by_rhs_
  // and the covered-rhs masks byte-for-byte; the carried counters restore
  // the work totals those emissions represent.
  for (const FunctionalDependency& fd : snapshot.fds) {
    RecordFd(result, fd.lhs, fd.rhs, fd.error, /*count=*/false);
  }
  result->keys = snapshot.keys;
  result->completed_levels = snapshot.completed_level;
  stats_.levels_processed = snapshot.completed_level;
  stats_.level_parallel = snapshot.level_parallel;
  const SnapshotCounters& carried = snapshot.counters;
  metrics_.Add(0, obs::kSetsGenerated, carried.sets_generated);
  metrics_.Add(0, obs::kValidityTests, carried.validity_tests);
  metrics_.Add(0, obs::kG3Scans, carried.g3_scans);
  metrics_.Add(0, obs::kG3ScansSkipped, carried.g3_scans_skipped);
  metrics_.Add(0, obs::kG3FromProduct, carried.g3_from_product);
  metrics_.Add(0, obs::kPartitionProducts, carried.partition_products);
  metrics_.Add(0, obs::kKeysFound, carried.keys_found);
  metrics_.Add(0, obs::kNodesProcessed, carried.nodes_processed);
  metrics_.Add(0, obs::kFdsEmitted, carried.fds_emitted);
  metrics_.MaxGauge(obs::kMaxLevelSize, carried.max_level_size);
  metrics_.SetGauge(obs::kResumedFromLevel, snapshot.completed_level);
  metrics_.SetGauge(obs::kCheckpointLastLevel, snapshot.completed_level);
  resumed_from_level_ = snapshot.completed_level;
  // The loaded file still covers this level; don't rewrite it on wind-down.
  last_checkpoint_level_ = snapshot.completed_level;

  // Survivor partitions rehydrate through the regular Put path, so the
  // store chain (spill, budget accounting) treats them exactly like
  // partitions the run computed itself. member_rows is relation-derived
  // state the snapshot format deliberately omits.
  survivors->reserve(snapshot.survivors.size());
  for (const SnapshotNode& stored : snapshot.survivors) {
    TANE_ASSIGN_OR_RETURN(StrippedPartition partition,
                          DeserializePartition(stored.partition_bytes));
    Node node;
    node.set = stored.set;
    node.cplus = stored.cplus;
    node.error = stored.error;
    node.member_rows = partition.num_member_rows();
    TANE_ASSIGN_OR_RETURN(node.handle, store_->Put(std::move(partition)));
    survivors->push_back(node);
    metrics_.Add(0, obs::kCheckpointNodesRestored, 1);
  }
  SamplePeakMemory();
  TANE_RETURN_IF_ERROR(CheckMemoryBudget());
  // Relation-derived state the snapshot deliberately omits: the fold-mode
  // singleton partitions are rebuilt from the input, bit-identical to the
  // interrupted run's.
  if (!config_.use_partition_products) {
    singleton_partitions_.reserve(relation_.num_columns());
    for (int attribute = 0; attribute < relation_.num_columns(); ++attribute) {
      singleton_partitions_.push_back(PartitionBuilder::ForAttribute(
          relation_, attribute, config_.use_stripped_partitions));
    }
  }
  return Status::OK();
}

StatusOr<bool> TaneRun::AdvanceLevel(int level_number,
                                     std::vector<Node>* survivors,
                                     std::vector<Node>* current,
                                     DiscoveryResult* result) {
  if (checkpointing() && config_.checkpoint_every_level &&
      last_checkpoint_level_ < level_number) {
    TANE_RETURN_IF_ERROR(WriteCheckpoint(level_number, *survivors, result));
  }
  if (config_.stop_after_level > 0 &&
      level_number >= config_.stop_after_level) {
    completion_ = Completion::kSuspended;
    TANE_RETURN_IF_ERROR(
        MaybeWindDownCheckpoint(level_number, *survivors, result));
    TANE_RETURN_IF_ERROR(ReleaseHandles(survivors));
    return false;
  }
  // Level boundary: the controller is always consulted between a fully
  // processed level and the generation of the next one. Survivor handles
  // are still live here, which is what makes the wind-down snapshot
  // possible at all — this is the last moment the level's partitions exist.
  if (PollStop()) {
    TANE_RETURN_IF_ERROR(
        MaybeWindDownCheckpoint(level_number, *survivors, result));
    TANE_RETURN_IF_ERROR(ReleaseHandles(survivors));
    return false;
  }

  // GENERATE-NEXT-LEVEL with partitions as products of two parents
  // (Lemma 3), fused with the next level's validity tests: each candidate
  // becomes one task of a level window, runnable the moment its parent
  // partitions exist (they all do — the parents are the survivors), and
  // committed in candidate order so handles and e(·) values are
  // deterministic. The commit-distance gate bounds partitions resident
  // outside the store to O(threads), like the old batched generator.
  std::vector<AttributeSet> survivor_sets;
  survivor_sets.reserve(survivors->size());
  for (const Node& node : *survivors) survivor_sets.push_back(node.set);
  std::vector<LevelCandidate> candidates;
  std::vector<int> subset_positions;
  {
    obs::SpanGuard span(tracer_, "generate", &metrics_);
    candidates = GenerateNextLevel(survivor_sets, &subset_positions);
  }
  if (candidates.empty()) {
    // Nothing above this level: the loop exits without entering a new
    // level, so no timing row is pushed for one.
    TANE_RETURN_IF_ERROR(ReleaseHandles(survivors));
    current->clear();
    return true;
  }

  const int next_level = level_number + 1;
  std::vector<AttributeSet> sets(candidates.size());
  std::vector<AttributeSet> cplus(candidates.size());
  int64_t est_row_work = 0;
  std::vector<int64_t> run_starts;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i == 0 || candidates[i].parent_a != candidates[i - 1].parent_a) {
      run_starts.push_back(static_cast<int64_t>(i));
    }
    sets[i] = candidates[i].set;
    cplus[i] = SeedCplus(next_level, sets[i], survivors,
                         subset_positions.data() + i * next_level);
    est_row_work +=
        std::min((*survivors)[candidates[i].parent_a].member_rows,
                 (*survivors)[candidates[i].parent_b].member_rows);
  }

  // Parent lifetimes: a survivor is dead once the last candidate with it as
  // a subset has committed — that candidate's product and g3 scans are the
  // last reads of it. Unless a wind-down snapshot of this level may still
  // need every survivor, the window releases each parent at that commit,
  // and survivors no candidate reads go now.
  std::vector<int64_t> last_consumer;
  if (!WindDownSnapshotPending(level_number)) {
    last_consumer.assign(survivors->size(), -1);
    for (size_t k = 0; k < subset_positions.size(); ++k) {
      last_consumer[subset_positions[k]] =
          static_cast<int64_t>(k) / next_level;
    }
    for (size_t p = 0; p < survivors->size(); ++p) {
      if (last_consumer[p] >= 0) continue;
      TANE_RETURN_IF_ERROR(ReleaseNode(&(*survivors)[p]));
    }
  }

  // The next level's timing row is pushed before its window so the fused
  // build+validate time lands on the level it creates; a wind-down below
  // pops it again, keeping one row per entered level.
  {
    LevelParallelStats row;
    row.level = next_level;
    row.nodes = static_cast<int64_t>(candidates.size());
    stats_.level_parallel.push_back(row);
  }

  WindowInputs in;
  in.level_number = next_level;
  in.sets = &sets;
  in.cplus = &cplus;
  in.parents = survivors;
  in.subset_positions = &subset_positions;
  if (!last_consumer.empty()) in.last_consumer = &last_consumer;
  in.est_row_work = est_row_work;
  in.run_starts = &run_starts;
  std::vector<Node> next;
  Status window_status;
  {
    obs::SpanGuard span(tracer_, "products", &metrics_);
    window_status = RunLevelWindow(
        in,
        [&](WorkerState* w, int64_t i) {
          return BuildCandidatePartition(w, candidates[i], *survivors);
        },
        &next, &stats_.level_parallel.back());
  }
  if (window_status.ok() && !stopped()) {
    // Quiesce point: full memory accounting now that worker scratch and
    // accessor caches are stable again.
    SamplePeakMemory();
    window_status = CheckMemoryBudget();
  }
  if (!window_status.ok()) {
    // Hard error (store I/O, budget breach): snapshot the level boundary
    // while the survivors are still live — a budget breach under
    // checkpointing becomes a resumable failure the caller can retry with
    // a different storage plan — then release the half-built next level
    // before surfacing it (the caller releases the survivors). The window
    // error takes precedence over cleanup failures, but those still get a
    // log line each.
    stats_.level_parallel.pop_back();
    LogIgnoredStatus(
        MaybeWindDownCheckpoint(level_number, *survivors, result),
        "checkpoint during error wind-down");
    LogIgnoredStatus(ReleaseHandles(&next), "releasing next level");
    return window_status;
  }
  if (stopped()) {
    // Stopped while building the next level: its committed prefix was
    // validated but never merged or pruned, so it contributes nothing —
    // drop it. The survivor level is still a valid boundary, so it is
    // snapshot for resume.
    LatchCompletion();
    stats_.level_parallel.pop_back();
    pending_outcomes_.clear();
    TANE_RETURN_IF_ERROR(ReleaseHandles(&next));
    TANE_RETURN_IF_ERROR(
        MaybeWindDownCheckpoint(level_number, *survivors, result));
    TANE_RETURN_IF_ERROR(ReleaseHandles(survivors));
    return false;
  }

  // The window consumed the survivors completely — products and validity
  // scans both ran inside it — so whatever it did not release already is
  // dead too.
  TANE_RETURN_IF_ERROR(ReleaseHandles(survivors));
  *current = std::move(next);
  return true;
}

Status TaneRun::Run(DiscoveryResult* result) {
  WallTimer timer;
  // Held in an optional so the wind-down below can close it before the
  // final metrics snapshot — the "run" hw phase must be aggregated by the
  // time the snapshot that feeds the report is taken.
  std::optional<obs::SpanGuard> run_span;
  run_span.emplace(tracer_, "run", &metrics_);
  if (config_.progress_period_seconds > 0.0) {
    obs::ProgressMonitor::Options options;
    options.period_seconds = config_.progress_period_seconds;
    options.controller = controller_;
    monitor_ = std::make_unique<obs::ProgressMonitor>(&metrics_, options);
    monitor_->Start();
  }
  const int num_attributes = relation_.num_columns();
  empty_error_ = num_rows_ > 0 ? num_rows_ - 1 : 0;
  found_lhs_by_rhs_.assign(num_attributes, {});
  covered_by_singleton_.assign(num_attributes, AttributeSet());
  stats_.num_threads = config_.num_threads;
  if (config_.epsilon > 0.0) {
    // π_∅ backs the level-1 tests ∅ → A; build it before workers can race
    // to create it lazily.
    (void)EmptySetPartition();
  }

  std::vector<Node> current;
  int level_number = 1;

  if (resume_snapshot_ != nullptr) {
    // Resume: rebuild the boundary state of the checkpointed level and
    // re-enter the lattice through the same advance path the loop uses.
    std::vector<Node> survivors;
    Status restored =
        RestoreFromSnapshot(*resume_snapshot_, result, &survivors);
    if (!restored.ok()) return AbandonLevel(std::move(restored), &survivors);
    level_number = resume_snapshot_->completed_level;
    if (stats_.level_parallel.empty()) {
      // Defensive: a well-formed snapshot always carries its level rows.
      LevelParallelStats row;
      row.level = level_number;
      row.nodes = static_cast<int64_t>(survivors.size());
      stats_.level_parallel.push_back(row);
    }
    StatusOr<bool> advanced =
        AdvanceLevel(level_number, &survivors, &current, result);
    if (!advanced.ok()) return AbandonLevel(advanced.status(), &survivors);
    if (*advanced) ++level_number;
    // !advanced leaves `current` empty, skipping the loop: the run wound
    // down again (suspend, stop, ...) before making progress.
  } else if (num_attributes > 0) {
    // L_1 := {{A} | A ∈ R}, with partitions computed from the database
    // through the same fused window as every later level: build + validity
    // tests in one task per attribute. Its timing row is pushed first so
    // the level-1 work lands on the level-1 row.
    {
      LevelParallelStats row;
      row.level = 1;
      row.nodes = num_attributes;
      stats_.level_parallel.push_back(row);
    }
    std::vector<AttributeSet> sets(num_attributes);
    std::vector<AttributeSet> cplus(num_attributes);
    for (int attribute = 0; attribute < num_attributes; ++attribute) {
      sets[attribute] = AttributeSet::Singleton(attribute);
      cplus[attribute] = SeedCplus(1, sets[attribute], nullptr, nullptr);
    }
    WindowInputs in;
    in.level_number = 1;
    in.sets = &sets;
    in.cplus = &cplus;
    in.stash_singletons = !config_.use_partition_products;
    in.est_row_work = static_cast<int64_t>(num_attributes) * num_rows_;
    if (in.stash_singletons) singleton_partitions_.reserve(num_attributes);
    Status seed_status;
    {
      obs::SpanGuard span(tracer_, "base-partitions", &metrics_);
      seed_status = RunLevelWindow(
          in,
          [&](WorkerState*, int64_t i) -> StatusOr<BuiltPartition> {
            BuiltPartition built;
            built.partition = PartitionBuilder::ForAttribute(
                relation_, static_cast<int>(i),
                config_.use_stripped_partitions);
            return built;
          },
          &current, &stats_.level_parallel.back());
    }
    if (!seed_status.ok()) return AbandonLevel(seed_status, &current);
    if (stopped()) {
      // Stopped during seeding: nothing was merged, so the partial level 1
      // contributes nothing; drop it — including its timing row, since the
      // level was never entered.
      LatchCompletion();
      stats_.level_parallel.pop_back();
      pending_outcomes_.clear();
      TANE_RETURN_IF_ERROR(ReleaseHandles(&current));
      current.clear();
    }
    SamplePeakMemory();
    Status budget = CheckMemoryBudget();
    if (!budget.ok()) return AbandonLevel(std::move(budget), &current);
  }

  while (!current.empty()) {
    stats_.levels_processed = level_number;
    metrics_.SetGauge(obs::kCurrentLevel, level_number);
    metrics_.SetGauge(obs::kLevelNodesTotal,
                      static_cast<int64_t>(current.size()));
    metrics_.SetGauge(obs::kLevelNodesStart,
                      metrics_.CounterTotal(obs::kNodesProcessed));
    metrics_.MaxGauge(obs::kMaxLevelSize,
                      static_cast<int64_t>(current.size()));
    obs::SpanGuard level_span(
        tracer_, "level " + std::to_string(level_number), &metrics_);
    RecordFlight(0, obs::FlightEventType::kLevel, "level", level_number,
                 static_cast<int64_t>(current.size()));
    // The level's timing row was pushed by whichever window built it
    // (AdvanceLevel, the seeding window, or the resume prologue).
    // tane-lint: allow(tane-check)
    TANE_CHECK(!stats_.level_parallel.empty() &&
               stats_.level_parallel.back().level == level_number)
        << "level timing row out of step with the loop";

    {
      // The window already ran this level's validity tests; what remains is
      // the serial in-node-order merge of emissions and C⁺ updates.
      obs::SpanGuard span(tracer_, "validity", &metrics_);
      Status merged = MergeOutcomes(&current, result);
      if (!merged.ok()) return AbandonLevel(std::move(merged), &current);
    }
    {
      obs::SpanGuard span(tracer_, "prune", &metrics_);
      Status pruned = Prune(level_number, &current, result);
      if (!pruned.ok()) return AbandonLevel(std::move(pruned), &current);
    }
    result->completed_levels = level_number;

    std::vector<Node> survivors;
    survivors.reserve(current.size());
    for (Node& node : current) {
      if (!node.deleted) survivors.push_back(std::move(node));
    }
    current.clear();

    if (survivors.empty() || level_number >= config_.max_lhs_size + 1) {
      // The search is finished — nothing above this level can be generated.
      TANE_RETURN_IF_ERROR(ReleaseHandles(&survivors));
      break;
    }

    StatusOr<bool> advanced =
        AdvanceLevel(level_number, &survivors, &current, result);
    if (!advanced.ok()) return AbandonLevel(advanced.status(), &survivors);
    if (!*advanced) break;
    ++level_number;
  }

  CanonicalizeFds(&result->fds);
  std::sort(result->keys.begin(), result->keys.end());
  LatchCompletion();
  result->completion = completion_;
  if (checkpointing()) {
    if (completion_ == Completion::kComplete) {
      // The results are now the durable artifact; stale snapshots would
      // only let a later --resume replay a finished search.
      TANE_RETURN_IF_ERROR(RemoveSnapshots(config_.checkpoint_directory));
      metrics_.SetGauge(obs::kCheckpointLastLevel, 0);
      last_checkpoint_level_ = 0;
    }
    result->resumable =
        completion_ != Completion::kComplete && last_checkpoint_level_ > 0;
  }
  if (monitor_ != nullptr) {
    monitor_->Stop();  // emits the final heartbeat line
    monitor_.reset();
  }
  stats_.spill_bytes_written = store_->bytes_written();
  stats_.wall_seconds = timer.ElapsedSeconds();

  // The legacy counters are views over the registry: one snapshot fills
  // them all, and the same snapshot ships in the result for the run report
  // and the bench emitters — the two can never disagree. Close the run
  // span first so its hw delta is part of that snapshot.
  run_span.reset();
  const obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  stats_.sets_generated = snapshot.counter(obs::kSetsGenerated);
  stats_.max_level_size = snapshot.gauge(obs::kMaxLevelSize);
  stats_.validity_tests = snapshot.counter(obs::kValidityTests);
  stats_.g3_scans = snapshot.counter(obs::kG3Scans);
  stats_.g3_scans_skipped = snapshot.counter(obs::kG3ScansSkipped);
  stats_.g3_from_product = snapshot.counter(obs::kG3FromProduct);
  stats_.partition_products = snapshot.counter(obs::kPartitionProducts);
  stats_.product_allocations = snapshot.counter(obs::kProductAllocations);
  stats_.product_rows_scanned = snapshot.counter(obs::kProductRowsScanned);
  stats_.product_label_reuses = snapshot.counter(obs::kProductLabelReuses);
  stats_.g3_rows_scanned = snapshot.counter(obs::kG3RowsScanned);
  stats_.keys_found = snapshot.counter(obs::kKeysFound);
  stats_.peak_partition_bytes = snapshot.gauge(obs::kPeakResidentBytes);
  stats_.checkpoint_writes = snapshot.counter(obs::kCheckpointWrites);
  stats_.checkpoint_bytes = snapshot.counter(obs::kCheckpointBytesWritten);
  stats_.checkpoint_seconds = checkpoint_seconds_;
  stats_.resumed_from_level = resumed_from_level_;
  result->stats = stats_;
  result->metrics = snapshot;
  return Status::OK();
}

}  // namespace

StatusOr<DiscoveryResult> Tane::Discover(const Relation& relation,
                                         const TaneConfig& config) {
  TANE_RETURN_IF_ERROR(config.Validate());
  if (relation.num_columns() > kMaxAttributes) {
    return Status::InvalidArgument("relation has too many attributes");
  }

  // Resume loads the latest snapshot up front so fingerprint mismatches are
  // rejected before any partition work starts. A missing snapshot falls
  // back to a fresh run (schedulers can pass resume unconditionally);
  // corruption and I/O failures surface as-is.
  std::unique_ptr<RunSnapshot> resume_snapshot;
  if (config.resume) {
    StatusOr<RunSnapshot> loaded =
        LoadLatestSnapshot(config.checkpoint_directory);
    if (loaded.ok()) {
      if (loaded->config_fingerprint != ConfigFingerprint(config)) {
        return Status::FailedPrecondition(
            "refusing to resume: the snapshot in '" +
            config.checkpoint_directory +
            "' was written under a different configuration");
      }
      if (loaded->dataset_fingerprint != DatasetFingerprint(relation) ||
          loaded->num_rows != relation.num_rows() ||
          loaded->num_columns != relation.num_columns()) {
        return Status::FailedPrecondition(
            "refusing to resume: the snapshot in '" +
            config.checkpoint_directory +
            "' was written for a different dataset");
      }
      resume_snapshot = std::make_unique<RunSnapshot>(std::move(*loaded));
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  std::unique_ptr<PartitionStore> store;
  AutoPartitionStore* auto_store = nullptr;
  if (config.storage == StorageMode::kDisk) {
    TANE_ASSIGN_OR_RETURN(auto disk_store,
                          DiskPartitionStore::Open(config.spill_directory));
    store = std::move(disk_store);
  } else if (config.storage == StorageMode::kAuto) {
    const int64_t budget = config.run_controller != nullptr
                               ? config.run_controller->memory_budget_bytes()
                               : 0;
    auto owned = std::make_unique<AutoPartitionStore>(budget,
                                                      config.spill_directory);
    auto_store = owned.get();
    store = std::move(owned);
  } else {
    store = std::make_unique<MemoryPartitionStore>();
  }

  DiscoveryResult result;
  TaneRun run(relation, config, std::move(store), resume_snapshot.get());
  const Status status = run.Run(&result);
  // Handle discipline: every path releases each stored partition exactly
  // once, so the store ends empty. A leak fails an otherwise successful
  // run and is logged on an error path, where the run's error wins.
  if (const int64_t leaked = run.live_partitions(); leaked != 0) {
    Status leak = Status::Internal(std::to_string(leaked) +
                                   " partition handles were never released");
    if (status.ok()) return leak;
    LogIgnoredStatus(leak, "releasing every partition");
  }
  TANE_RETURN_IF_ERROR(status);
  if (auto_store != nullptr) {
    result.stats.degraded_to_disk = auto_store->spilled();
  }
  return result;
}

}  // namespace tane
