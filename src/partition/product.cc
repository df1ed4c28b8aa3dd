#include "partition/product.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "partition/kernels/kernels.h"

namespace tane {
namespace {

// Per-`b`-class scatter loops for pass 2 of Multiply. All variants are
// branch-free per row: invalid rows are predicated onto the trash bucket
// with one select, every store unconditional. The scratch arrays are
// genuinely disjoint, so the pointers are __restrict-qualified — without
// it the compiler must order every cursor load after the previous bucket
// store and the loop cannot pipeline.
//
// kGathered selects the group source: the SoA label stream filled by
// GatherGroups (large-probe regime, unrolled + prefetched) or direct
// probe-table loads (cache-resident regime, where the extra pass through
// groups[] costs more than it saves).
//
// kChained breaks the scatter's store-to-load forwarding chain: the
// last-hit group's counter lives in registers and is flushed to memory one
// iteration late, so a run of rows landing in the same bucket advances a
// register instead of round-tripping through the store buffer (~5 cycles
// per row on current x86 cores). The flush-late protocol is safe because
// the only memory read that can observe the stale value — loading the
// counter of the not-yet-flushed group — is exactly the case the select
// replaces with the register. Worth two extra ops per row only when
// consecutive rows collide often, i.e. when `a` has few classes; with many
// classes the plain loop wins. Chained or not, the stores and final state
// are identical, so the choice is invisible in the output.

// Cursor variant: cursor[g] is the next free slot of bucket g (initialized
// to the bucket base); bucket fill levels are recovered from cursor
// positions by the caller's index-order emission scan, so the row loop
// carries no touched-list bookkeeping at all.
template <bool kGathered, bool kChained>
void ScatterWithCursors(const int32_t* __restrict rows, int32_t begin,
                        int32_t end, const int32_t* __restrict probe,
                        int32_t base, const int32_t* __restrict groups,
                        int32_t trash_group, int32_t* __restrict cursor,
                        int32_t* __restrict bucket_data) {
  if constexpr (kChained) {
    int32_t last_gs = trash_group;
    int32_t last_cur = cursor[trash_group];
    for (int32_t i = begin; i < end; ++i) {
      const int32_t row = rows[i];
      const int32_t g = kGathered ? groups[i] : probe[row] - base;
      const int32_t gs = g >= 0 ? g : trash_group;
      const int32_t mem_cur = cursor[gs];
      cursor[last_gs] = last_cur;
      const int32_t cur = gs == last_gs ? last_cur : mem_cur;
      bucket_data[cur] = row;
      last_gs = gs;
      last_cur = cur + 1;
    }
    cursor[last_gs] = last_cur;
  } else {
    for (int32_t i = begin; i < end; ++i) {
      const int32_t row = rows[i];
      const int32_t g = kGathered ? groups[i] : probe[row] - base;
      const int32_t gs = g >= 0 ? g : trash_group;
      const int32_t cur = cursor[gs];
      bucket_data[cur] = row;
      cursor[gs] = cur + 1;
    }
  }
}

// Counting variant for many-class operands, where an emission scan over
// every `a` class per `b` class would dwarf the row walk: group_size[]
// counts bucket fill levels and the touched list records first-seen groups
// (unconditional store, predicated advance), preserving the original
// first-seen emission order. Returns the touched count.
template <bool kGathered, bool kChained>
int64_t ScatterWithCounts(const int32_t* __restrict rows, int32_t begin,
                          int32_t end, const int32_t* __restrict probe,
                          int32_t base, const int32_t* __restrict groups,
                          int32_t trash_group,
                          const int32_t* __restrict bucket_base,
                          int32_t* __restrict group_size,
                          int32_t* __restrict bucket_data,
                          int32_t* __restrict touched) {
  int64_t touched_count = 0;
  if constexpr (kChained) {
    int32_t last_gs = trash_group;
    int32_t last_count = group_size[trash_group];
    for (int32_t i = begin; i < end; ++i) {
      const int32_t row = rows[i];
      const int32_t g = kGathered ? groups[i] : probe[row] - base;
      const int32_t gs = g >= 0 ? g : trash_group;
      const int32_t mem_count = group_size[gs];
      group_size[last_gs] = last_count;
      const int32_t count = gs == last_gs ? last_count : mem_count;
      bucket_data[bucket_base[gs] + count] = row;
      touched[touched_count] = gs;
      touched_count += static_cast<int64_t>(count == 0);
      last_gs = gs;
      last_count = count + 1;
    }
    group_size[last_gs] = last_count;
  } else {
    for (int32_t i = begin; i < end; ++i) {
      const int32_t row = rows[i];
      const int32_t g = kGathered ? groups[i] : probe[row] - base;
      const int32_t gs = g >= 0 ? g : trash_group;
      const int32_t count = group_size[gs];
      bucket_data[bucket_base[gs] + count] = row;
      group_size[gs] = count + 1;
      touched[touched_count] = gs;
      touched_count += static_cast<int64_t>(count == 0);
    }
  }
  return touched_count;
}

// Collisions are frequent enough for the flush-late chain to pay off when
// rows outnumber buckets by a wide margin; past this many `a` classes the
// plain loop's two fewer ops per row win. Empirical knee on the bench
// datasets (few-class paper attributes vs many-class near-key attributes).
constexpr int64_t kChainedMaxClasses = 64;

// Probe tables of at least this many bytes take the gathered path: below
// 2 MiB the table sits comfortably in L2 and direct probe loads win.
constexpr int64_t kGatherMinProbeBytes = int64_t{1} << 21;

}  // namespace

PartitionProduct::PartitionProduct(int64_t num_rows) : num_rows_(num_rows) {
  // Paid up front and not counted: each worker owns its own
  // PartitionProduct, so counting (or lazily growing) scratch would make
  // the run-wide allocation count scale with the worker count.
  SizeScratch();
}

void PartitionProduct::SizeScratch() {
  // A partition over |r| rows has at most |r| classes and |r| member rows.
  // +2 on the per-class arrays: one slot for the trash bucket, and one more
  // so the touched list's branch-free unconditional store stays in bounds
  // after every group (including trash) has been recorded. The bucket arena
  // holds `a`'s member rows plus a trash bucket for a full `b` class. The
  // output scratch holds at most |r| member rows and |r| + 1 offsets.
  probe_.assign(num_rows_, -1);
  groups_.assign(num_rows_, 0);
  group_size_.assign(num_rows_ + 2, 0);
  touched_.assign(num_rows_ + 2, 0);
  bucket_data_.resize(2 * num_rows_);
  out_rows_.assign(num_rows_, 0);
  out_offsets_.assign(num_rows_ + 1, 0);
}

void PartitionProduct::CountAllocation() {
  ++allocations_;
  if (metrics_ != nullptr) {
    metrics_->Add(metrics_shard_, obs::kProductAllocations, 1);
  }
}

StatusOr<StrippedPartition> PartitionProduct::Multiply(
    const StrippedPartition& a, const StrippedPartition& b,
    uint64_t a_token) {
  if (a.num_rows() != b.num_rows()) {
    return Status::InvalidArgument(
        "partition product operands disagree on row count: " +
        std::to_string(a.num_rows()) + " vs " + std::to_string(b.num_rows()));
  }
  if (a.stripped() != b.stripped()) {
    return Status::InvalidArgument(
        "partition product operands mix stripped and unstripped "
        "representations");
  }
  if (a.num_rows() > num_rows_) {
    // A partition over more rows than the constructed scratch size: grow to
    // fit rather than corrupt memory or abort. Growth discards any live
    // labels, so token reuse is off until the next labeling pass.
    num_rows_ = a.num_rows();
    SizeScratch();
    probe_base_ = 0;
    labeled_classes_ = 0;
    last_a_token_ = 0;
    CountAllocation();
  }
  const int32_t min_size = a.stripped() ? 2 : 1;
  const int64_t a_classes = a.num_classes();

  const std::vector<int32_t>& a_rows = a.row_ids();
  int32_t* const probe = probe_.data();
  int64_t rows_scanned = 0;

  // Pass 1: label rows with base + class index in `a` — unless the caller
  // vouches (via a_token) that `a` is the operand already labeled, in which
  // case the live labels are reused verbatim. Entries from earlier calls
  // sit below the base and read as "unlabeled", so there is no reset pass
  // anywhere.
  const bool reuse =
      a_token != 0 && a_token == last_a_token_ && labeled_classes_ == a_classes;
  if (reuse) {
    ++label_reuses_;
  } else {
    // Advance the epoch past the previous call's labels, re-initializing
    // the table when the labels would overflow int32 (amortized over ~2^31
    // product classes, effectively never in one run).
    probe_base_ += labeled_classes_;
    if (probe_base_ + a_classes > INT32_MAX) {
      probe_.assign(probe_.size(), -1);
      probe_base_ = 0;
    }
    LabelRows(probe, a_rows.data(), a.class_offsets().data(), a_classes,
              static_cast<int32_t>(probe_base_));
    labeled_classes_ = a_classes;
    last_a_token_ = a_token;
    rows_scanned += static_cast<int64_t>(a_rows.size());
  }
  const int32_t base = static_cast<int32_t>(probe_base_);

  // The product emits into the per-worker output scratch (sized for the
  // worst case once, like every other scratch array) and is copied into
  // exactly sized arrays at the end, so a stored partition costs its
  // (m + c + 1) words and no more.
  int32_t* const out_rows = out_rows_.data();
  int32_t* const out_offsets = out_offsets_.data();
  out_offsets[0] = 0;
  int32_t out_size = 0;
  int64_t out_classes = 0;

  // Pass 2, per class of `b`: a branch-free scatter routes each of the
  // class's rows into a flat bucket per `a` class — bucket `g` lives at
  // `a`'s own CSR offset for class `g`, whose size is an exact capacity
  // bound. Invalid rows (stale epoch or singleton in `a`) are predicated
  // onto the trash bucket `a_classes` instead of branching: `a`'s CSR
  // offsets array already carries its end offset, so the per-bucket scratch
  // extends to the trash bucket with no special-casing — one select per
  // row, every store unconditional. Trash is filtered at emission, so the
  // state is exactly as if invalid rows were skipped. Qualifying buckets
  // then stream into the output scratch with a straight contiguous copy.
  //
  // Two cache-conscious regimes, both pure functions of operand shape (so
  // the output is identical for every thread count):
  //
  //  * Group source. When the probe table outgrows the cache
  //    (kGatherMinProbeBytes), GatherGroups collects all of `b`'s labels
  //    into the SoA group stream first — its unrolled, prefetched loads
  //    overlap the random probe misses that an in-order walk would stall
  //    on. Cache-resident tables skip the gather: probe loads hit L1 and
  //    the extra pass through groups[] costs more than it saves.
  //
  //  * Emission. When `a` has few classes (the common low-level case), an
  //    index-order scan over all `a` classes per `b` class recovers the
  //    bucket fill levels from the scatter cursors — the row loop carries no
  //    bookkeeping beyond the cursor itself, and product classes emit
  //    grouped by `b` class, ordered by `a` class index within it. When the
  //    scan would dwarf the row walk ((a_classes+1) x b_classes >
  //    b_member_rows), the scatter counts fill levels and records first-seen
  //    groups in the touched list, and emission walks that list in
  //    first-seen order. The order differs between the two strategies, but
  //    the choice depends only on the operands' class/row counts, never on
  //    any runtime state.
  const std::vector<int32_t>& b_rows = b.row_ids();
  const int32_t* const b_rows_data = b_rows.data();
  const int32_t* const bucket_base = a.class_offsets().data();
  const int32_t trash_group = static_cast<int32_t>(a_classes);
  int32_t* const group_size = group_size_.data();
  int32_t* const touched = touched_.data();
  int32_t* const bucket_data = bucket_data_.data();
  int32_t* const groups = groups_.data();
  rows_scanned += static_cast<int64_t>(b_rows.size());

  const bool gathered = num_rows_ * static_cast<int64_t>(sizeof(int32_t)) >=
                        kGatherMinProbeBytes;
  if (gathered) {
    // One gather over the whole member-row array; groups_[i] then lines up
    // with b_rows[i] in every class.
    GatherGroups(probe, b_rows_data, static_cast<int64_t>(b_rows.size()),
                 base, groups);
  }
  const bool index_scan =
      (a_classes + 1) * b.num_classes() <= static_cast<int64_t>(b_rows.size());
  const bool chained = a_classes <= kChainedMaxClasses;

  if (index_scan) {
    using CursorScatter = void (*)(const int32_t*, int32_t, int32_t,
                                   const int32_t*, int32_t, const int32_t*,
                                   int32_t, int32_t*, int32_t*);
    const CursorScatter scatter =
        gathered ? (chained ? &ScatterWithCursors<true, true>
                            : &ScatterWithCursors<true, false>)
                 : (chained ? &ScatterWithCursors<false, true>
                            : &ScatterWithCursors<false, false>);
    // group_size_ doubles as the cursor array (it is all-zero between
    // products; re-zeroed below to keep that invariant for the counting
    // path).
    int32_t* const cursor = group_size;
    for (int64_t g = 0; g <= a_classes; ++g) cursor[g] = bucket_base[g];
    for (int64_t cls = 0; cls < b.num_classes(); ++cls) {
      const int32_t begin = b.class_begin(cls);
      const int32_t end = b.class_end(cls);
      scatter(b_rows_data, begin, end, probe, base, groups, trash_group,
              cursor, bucket_data);
      for (int64_t g = 0; g < a_classes; ++g) {
        const int32_t bucket_begin = bucket_base[g];
        const int32_t count = cursor[g] - bucket_begin;
        cursor[g] = bucket_begin;
        if (count < min_size) continue;
        std::copy_n(bucket_data + bucket_begin, count, out_rows + out_size);
        out_size += count;
        out_offsets[++out_classes] = out_size;
      }
      cursor[trash_group] = bucket_base[trash_group];
    }
    for (int64_t g = 0; g <= a_classes; ++g) cursor[g] = 0;
  } else {
    using CountScatter = int64_t (*)(const int32_t*, int32_t, int32_t,
                                     const int32_t*, int32_t, const int32_t*,
                                     int32_t, const int32_t*, int32_t*,
                                     int32_t*, int32_t*);
    const CountScatter scatter =
        gathered ? (chained ? &ScatterWithCounts<true, true>
                            : &ScatterWithCounts<true, false>)
                 : (chained ? &ScatterWithCounts<false, true>
                            : &ScatterWithCounts<false, false>);
    for (int64_t cls = 0; cls < b.num_classes(); ++cls) {
      const int32_t begin = b.class_begin(cls);
      const int32_t end = b.class_end(cls);
      const int64_t touched_count =
          scatter(b_rows_data, begin, end, probe, base, groups, trash_group,
                  bucket_base, group_size, bucket_data, touched);
      for (int64_t t = 0; t < touched_count; ++t) {
        const int32_t group = touched[t];
        const int32_t count = group_size[group];
        group_size[group] = 0;
        if (count < min_size || group == trash_group) continue;
        std::copy_n(bucket_data + bucket_base[group], count,
                    out_rows + out_size);
        out_size += count;
        out_offsets[++out_classes] = out_size;
      }
    }
  }

  rows_scanned_ += rows_scanned;
  if (metrics_ != nullptr) {
    metrics_->Add(metrics_shard_, obs::kProductRowsScanned, rows_scanned);
    if (reuse) {
      metrics_->Add(metrics_shard_, obs::kProductLabelReuses, 1);
    }
    metrics_->Record(metrics_shard_, obs::kProductClasses, out_classes);
    metrics_->Record(metrics_shard_, obs::kProductMemberRows, out_size);
  }
  // Exactly sized copies: a product with no member rows allocates only its
  // offsets array.
  std::vector<int32_t> rows;
  if (out_size > 0) {
    rows.assign(out_rows, out_rows + out_size);
    CountAllocation();
  }
  std::vector<int32_t> offsets(out_offsets, out_offsets + out_classes + 1);
  CountAllocation();
  return StrippedPartition(a.num_rows(), a.stripped(), std::move(rows),
                           std::move(offsets));
}

}  // namespace tane
