#ifndef TANE_PARTITION_PRODUCT_H_
#define TANE_PARTITION_PRODUCT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "partition/error.h"
#include "partition/stripped_partition.h"
#include "util/status.h"

namespace tane {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// A product π' · π'' = π_X with the g3 and g2 counts of the two
/// dependencies whose left-hand side is an operand and whose fine
/// partition is the product: `a` for coarse partition π' (the test
/// X∖{B} → B when π' = π_{X∖{B}}), `b` for coarse partition π''.
struct CountedProduct {
  StrippedPartition partition;
  ViolationCounts a;
  ViolationCounts b;
};

/// Computes partition products π' · π'' = π_{X∪Y} (Lemma 3) with the
/// linear-time probe-table algorithm of the TANE paper, restructured as two
/// flat passes (the loops in src/partition/kernels/):
///
///  * pass 1 labels the rows of `a` with epoch-tagged class ids (LabelRows);
///  * pass 2 scatters `b`'s rows into a flat bucket arena, branch-free per
///    row (invalid rows are predicated onto a trash bucket) and with the
///    per-bucket counter chain broken through registers. When the probe
///    table outgrows the cache, the labels are first gathered into a flat
///    SoA group stream (GatherGroups, unrolled and prefetched) so the
///    random probe loads overlap; cache-resident tables probe directly.
///    See product.cc for the two emission strategies (index-order scan vs
///    first-seen touched list), selected by operand shape alone. On the
///    touched-list path a stripped `b` class of 2 or 3 rows (most classes
///    deep in the lattice) skips the scatter: it yields at most one
///    product class, found by comparing its rows' labels, and written
///    straight to the output in the order the scatter would emit it.
///
/// MultiplyCounted also returns the g3 and g2 counts of the two validity
/// tests whose left-hand side is an operand (see CountedProduct), taken
/// from the buckets the scatter fills anyway.
///
/// All scratch is flat arrays — an O(|r|) epoch-labelled probe table (no
/// reset pass between calls), the SoA group stream, a bucket arena laid out
/// by `a`'s own CSR offsets (each bucket's capacity is exactly its `a`
/// class size), a per-class cursor/count array, and the output's rows and
/// offsets — sized once by the constructor from `num_rows` and reused
/// across calls. Surviving buckets stream into the output scratch with
/// contiguous copies, and the finished product is copied into exactly
/// sized arrays, so the result's EstimatedBytes() is its true footprint of
/// 4·(member rows + classes + 1) bytes. Multiply performs no per-class heap
/// allocations: its only allocations are those two exact arrays, and
/// allocations() counts them — two per product, one for a product with no
/// member rows (an empty rows array allocates nothing).
///
/// Every shape-dependent strategy choice is a pure function of the
/// operands, so the output (and the allocation count) is bit-identical
/// across thread counts; tests/product_differential_test.cc checks the
/// output against a naive product. Instances are not thread-safe; parallel
/// callers keep one PartitionProduct per worker (see core/tane.cc).
///
/// Both operands must be over the same number of rows and use the same
/// representation (stripped or unstripped); the result uses that
/// representation as well. Operands over more rows than the constructed
/// size are fine — the scratch grows to fit, counted as one more
/// allocation — but operands that disagree with each other are rejected
/// with kInvalidArgument.
class PartitionProduct {
 public:
  explicit PartitionProduct(int64_t num_rows);

  /// Mirrors allocation counts (kProductAllocations), the rows-scanned /
  /// label-reuse counters, and the class-count / member-row histograms of
  /// every successful product into `metrics`, on shard `shard` (the
  /// caller's worker index). Not owned; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics, int shard = 0) {
    metrics_ = metrics;
    metrics_shard_ = shard;
  }

  /// The least refined common refinement of `a` and `b`. Fails with
  /// kInvalidArgument when the operands disagree on row count or
  /// representation.
  ///
  /// `a_token`, when nonzero, is a caller-provided identity for `a`'s
  /// *content*: two calls on the same PartitionProduct passing the same
  /// nonzero token promise that their `a` operands are structurally equal,
  /// which lets Multiply skip re-labeling the probe table (pass 1) when
  /// consecutive products share their left parent — TANE's candidate lists
  /// are sorted, so runs of nodes share a prefix parent. The discovery
  /// driver passes the store handle (+1): handles are allocated by a
  /// monotone counter and never reused, so equal handles always mean equal
  /// content. Passing 0 (the default) never reuses. Reuse changes neither
  /// the output nor the allocation count — only the rows scanned.
  StatusOr<StrippedPartition> Multiply(const StrippedPartition& a,
                                       const StrippedPartition& b,
                                       uint64_t a_token = 0);

  /// Multiply, plus the violation counts of the two parent tests, taken
  /// from the scatter itself: every π_{X}-subclass of an operand class is
  /// one of the buckets the scatter fills, so the largest subclass of each
  /// `b` class is known when it is emitted, and that of each `a` class
  /// after a running per-`a`-class maximum. The counts equal
  /// G3Calculator::RemovalCount and ViolatingRowCount of (a, product) and
  /// (b, product), for any operands Multiply accepts. The output partition
  /// is identical to Multiply's; the extra work is one max per emitted
  /// bucket and one pass over `a`'s class sizes, compiled into this entry
  /// point only, so plain Multiply pays nothing for it.
  StatusOr<CountedProduct> MultiplyCounted(const StrippedPartition& a,
                                           const StrippedPartition& b,
                                           uint64_t a_token = 0);

  /// Heap allocations performed by Multiply since construction: the
  /// output arrays of every product, plus scratch growth for operands over
  /// more rows than the constructed size.
  int64_t allocations() const { return allocations_; }

  /// Returns allocations() and resets the counter (for periodic merges
  /// into run-wide stats).
  int64_t TakeAllocations() { return std::exchange(allocations_, 0); }

  /// Member rows actually walked by Multiply since construction: the
  /// labeling pass over `a` (skipped on token reuse) plus the probe pass
  /// over `b`. This is the honest denominator for rows/sec — the nominal
  /// relation row count overstates the work by the singleton-stripped
  /// fraction and ignores label reuse.
  int64_t rows_scanned() const { return rows_scanned_; }

  int64_t TakeRowsScanned() { return std::exchange(rows_scanned_, 0); }

  /// Products whose labeling pass was skipped because `a_token` matched the
  /// previous call.
  int64_t label_reuses() const { return label_reuses_; }

  /// Test hook for the epoch-overflow path: plants an arbitrary probe_base_
  /// so a test can drive the base across the INT32_MAX re-initialization
  /// boundary without 2^31 real products. Clears the table (labels written
  /// at a base *above* the planted one would otherwise alias as live) and
  /// invalidates token reuse.
  void set_probe_base_for_testing(int64_t base) {
    probe_.assign(probe_.size(), -1);
    probe_base_ = base;
    labeled_classes_ = 0;
    last_a_token_ = 0;
  }

  int64_t probe_base_for_testing() const { return probe_base_; }

  /// Bytes retained by the reusable scratch arrays (probe table, SoA group
  /// stream, per-class size arrays, bucket arena, output scratch, and the
  /// per-class maxima of MultiplyCounted once it has run), for
  /// memory-budget accounting.
  int64_t ScratchBytes() const {
    return static_cast<int64_t>(
        (probe_.capacity() + group_size_.capacity() + touched_.capacity() +
         bucket_data_.capacity() + groups_.capacity() +
         out_rows_.capacity() + out_offsets_.capacity() +
         a_largest_.capacity()) *
        sizeof(int32_t));
  }

 private:
  // Both entry points. kCounts compiles in the parent-count bookkeeping
  // and fills `counted`'s counts (not its partition); without it
  // `counted` is unused.
  template <bool kCounts>
  StatusOr<StrippedPartition> MultiplyImpl(const StrippedPartition& a,
                                           const StrippedPartition& b,
                                           uint64_t a_token,
                                           CountedProduct* counted);

  // One heap allocation happened: bump the local counter and, when a
  // registry is attached, the kProductAllocations shard counter with it.
  void CountAllocation();

  // Sizes every scratch array to its bound for partitions over num_rows_
  // rows (at most num_rows_ classes and member rows each), so Multiply
  // never grows scratch lazily.
  void SizeScratch();

  int64_t num_rows_;
  // probe_[row] = probe_base_ + class index within `a` for the currently
  // labeled operand; entries below probe_base_ are stale labels from
  // earlier calls (or the initial -1). Advancing probe_base_ past the live
  // labels invalidates them all at once, so no reset pass over `a`'s rows
  // is needed between calls; the table is only re-initialized when the base
  // nears INT32_MAX.
  std::vector<int32_t> probe_;
  int64_t probe_base_ = 0;
  // Classes labeled at probe_base_ by the previous call; the next
  // non-reusing call advances the base past them.
  int64_t labeled_classes_ = 0;
  // Content identity of the currently labeled `a` (0 = not reusable).
  uint64_t last_a_token_ = 0;
  // SoA class-label stream for `b`'s member rows, filled by GatherGroups
  // in the large-probe regime and consumed by the branch-free scatter.
  std::vector<int32_t> groups_;
  // Per-`a`-class scratch (sized classes + trash + 1): bucket cursors on
  // the index-scan emission path, bucket fill counts on the touched-list
  // path. All-zero between products — both paths restore that invariant.
  std::vector<int32_t> group_size_;
  // Touched-list path only: the `a` classes the current `b` class touched,
  // in first-seen order — which is that path's emission order. Written
  // branch-free (unconditional store, predicated advance), so it is kept
  // sized rather than push_back-grown.
  std::vector<int32_t> touched_;
  // Flat bucket arena: bucket for `a` class g occupies the range that class
  // g occupies in `a`'s own CSR layout (a.class_offsets()[g], exact
  // capacity by construction), so buckets never need growth or checks. The
  // trash bucket for predicated invalid-row writes sits past them, at the
  // end offset `a`'s CSR array already carries, sized for a full `b` class
  // (hence the a.rows + b.rows arena bound).
  std::vector<int32_t> bucket_data_;
  // The product under construction, CSR-style: member rows and class end
  // offsets (out_offsets_[0] = 0). Copied out exactly sized at the end.
  std::vector<int32_t> out_rows_;
  std::vector<int32_t> out_offsets_;
  // MultiplyCounted only: the largest bucket each `a` class has filled in
  // the current product (all-zero between products). Sized by the first
  // counted product, so a run that never counts does not carry it.
  std::vector<int32_t> a_largest_;

  obs::MetricsRegistry* metrics_ = nullptr;
  int metrics_shard_ = 0;
  int64_t allocations_ = 0;
  int64_t rows_scanned_ = 0;
  int64_t label_reuses_ = 0;
};

}  // namespace tane

#endif  // TANE_PARTITION_PRODUCT_H_
