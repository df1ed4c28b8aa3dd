#include "partition/error.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/metrics.h"
#include "partition/kernels/kernels.h"

namespace tane {

int64_t IntegerThreshold(double epsilon, double scale) {
  const double product = epsilon * scale;
  if (product >= static_cast<double>(std::numeric_limits<int64_t>::max())) {
    return std::numeric_limits<int64_t>::max();
  }
  return std::max<int64_t>(0, static_cast<int64_t>(std::floor(product)));
}

namespace {

// The largest π_{X∪A} subclass of a π_X class of 1 to 3 rows, from two or
// three probe loads: a subclass of two or more rows is a pair of rows with
// the same valid (non-negative) label.
inline int32_t TinyLargest(const int32_t* probe, const int32_t* rows,
                           int32_t n, int32_t base) {
  if (n == 1) return 1;
  const int32_t g0 = probe[rows[0]] - base;
  const int32_t g1 = probe[rows[1]] - base;
  const bool e01 = g0 >= 0 && g0 == g1;
  if (n == 2) return e01 ? 2 : 1;
  const int32_t g2 = probe[rows[2]] - base;
  const bool e02 = g0 >= 0 && g0 == g2;
  if (e01 && e02) return 3;
  return e01 || e02 || (g1 >= 0 && g1 == g2) ? 2 : 1;
}

}  // namespace

G3Bounds BoundG3RemovalCount(const StrippedPartition& lhs,
                             const StrippedPartition& lhs_with_rhs) {
  G3Bounds bounds;
  bounds.upper = lhs.Error();
  bounds.lower = std::max<int64_t>(0, lhs.Error() - lhs_with_rhs.Error());
  return bounds;
}

G3Calculator::G3Calculator(int64_t num_rows)
    : num_rows_(num_rows), probe_(num_rows, -1) {
  // Sized to the row-count bounds up front (a partition over |r| rows has at
  // most |r| classes and member rows); the +1 slots are the dummy counter
  // (counts_) and the headroom for the unconditional branch-free append
  // (touched_).
  counts_.assign(num_rows + 1, 0);
  touched_.assign(num_rows + 1, 0);
  groups_.assign(num_rows, 0);
}

Status G3Calculator::CheckRowCounts(const StrippedPartition& lhs,
                                    const StrippedPartition& lhs_with_rhs) {
  if (lhs.num_rows() != lhs_with_rhs.num_rows()) {
    return Status::InvalidArgument(
        "error-measure operands disagree on row count: " +
        std::to_string(lhs.num_rows()) + " vs " +
        std::to_string(lhs_with_rhs.num_rows()));
  }
  return Status::OK();
}

Status G3Calculator::PrepareAndLabel(const StrippedPartition& lhs,
                                     const StrippedPartition& lhs_with_rhs,
                                     int32_t* base) {
  TANE_RETURN_IF_ERROR(CheckRowCounts(lhs, lhs_with_rhs));
  if (lhs.num_rows() > num_rows_) {
    // Partitions over more rows than the constructed scratch size: grow to
    // fit rather than corrupt memory or abort.
    num_rows_ = lhs.num_rows();
    probe_.assign(num_rows_, -1);
    counts_.assign(num_rows_ + 1, 0);
    touched_.assign(num_rows_ + 1, 0);
    groups_.assign(num_rows_, 0);
    probe_base_ = 0;
  }

  // Epoch-tagged labeling: labels of earlier calls sit below the new base
  // and read as "singleton", so there is no reset pass anywhere. The table
  // is re-initialized only when the labels would overflow int32 (amortized
  // over ~2^31 classes, effectively never in one run).
  const int64_t fine_classes = lhs_with_rhs.num_classes();
  if (probe_base_ + fine_classes > INT32_MAX) {
    probe_.assign(probe_.size(), -1);
    probe_base_ = 0;
  }
  *base = static_cast<int32_t>(probe_base_);
  LabelRows(probe_.data(), lhs_with_rhs.row_ids().data(),
            lhs_with_rhs.class_offsets().data(), fine_classes, *base);
  probe_base_ += fine_classes;
  return Status::OK();
}

void G3Calculator::RecordScan(const StrippedPartition& lhs,
                              const StrippedPartition& lhs_with_rhs) {
  const int64_t rows = static_cast<int64_t>(lhs.row_ids().size()) +
                       static_cast<int64_t>(lhs_with_rhs.row_ids().size());
  rows_scanned_ += rows;
  if (metrics_ != nullptr) {
    metrics_->Add(metrics_shard_, obs::kG3RowsScanned, rows);
  }
}

StatusOr<ViolationCounts> G3Calculator::LargestSubclassCounts(
    const StrippedPartition& lhs, const StrippedPartition& lhs_with_rhs) {
  int32_t base = 0;
  TANE_RETURN_IF_ERROR(PrepareAndLabel(lhs, lhs_with_rhs, &base));

  // Rows that are singletons in π_{X∪A} (negative group after the epoch
  // subtraction) are predicated into the dummy counter slot past the real
  // classes; its count never feeds `largest` (their effective subclass size
  // is 1, the initial value), and the touched list resets it with the rest.
  const int32_t dummy = static_cast<int32_t>(lhs_with_rhs.num_classes());
  ViolationCounts totals;
  const int32_t* const coarse_rows = lhs.row_ids().data();
  const int32_t* const probe = probe_.data();
  int32_t* const counts = counts_.data();
  int32_t* const touched = touched_.data();
  int32_t* const groups = groups_.data();
  for (int64_t cls = 0; cls < lhs.num_classes(); ++cls) {
    const int32_t begin = lhs.class_begin(cls);
    const int32_t class_rows = lhs.class_end(cls) - begin;
    // The largest subclass has size >= 1 even if every row of this class is
    // a singleton in π_{X∪A}.
    int32_t largest = 1;
    if (class_rows <= 3) {
      largest = TinyLargest(probe, coarse_rows + begin, class_rows, base);
    } else {
      GatherGroups(probe, coarse_rows + begin, class_rows, base, groups);
      int64_t touched_count = 0;
      for (int32_t i = 0; i < class_rows; ++i) {
        const int32_t g = groups[i];
        const int32_t valid = static_cast<int32_t>(g >= 0);
        const int32_t idx = valid ? g : dummy;
        const int32_t cnt = counts[idx] + 1;
        counts[idx] = cnt;
        touched[touched_count] = idx;
        touched_count += static_cast<int64_t>(cnt == 1);
        const int32_t effective = valid ? cnt : 1;
        largest = std::max(largest, effective);
      }
      for (int64_t t = 0; t < touched_count; ++t) counts[touched[t]] = 0;
    }
    totals.removals += class_rows - largest;
    totals.violating_rows += largest < class_rows ? class_rows : 0;
  }

  RecordScan(lhs, lhs_with_rhs);
  return totals;
}

StatusOr<int64_t> G3Calculator::RemovalCount(
    const StrippedPartition& lhs, const StrippedPartition& lhs_with_rhs) {
  TANE_ASSIGN_OR_RETURN(const ViolationCounts counts,
                        LargestSubclassCounts(lhs, lhs_with_rhs));
  return counts.removals;
}

StatusOr<double> G3Calculator::Error(const StrippedPartition& lhs,
                                     const StrippedPartition& lhs_with_rhs) {
  if (lhs.num_rows() == 0) return 0.0;
  TANE_ASSIGN_OR_RETURN(const int64_t removals,
                        RemovalCount(lhs, lhs_with_rhs));
  return static_cast<double>(removals) /
         static_cast<double>(lhs.num_rows());
}

StatusOr<int64_t> G3Calculator::ViolatingPairCount(
    const StrippedPartition& lhs, const StrippedPartition& lhs_with_rhs) {
  TANE_RETURN_IF_ERROR(CheckRowCounts(lhs, lhs_with_rhs));
  // Ordered agreeing pairs within a class c: |c|·(|c|−1); singletons (the
  // classes a stripped partition leaves out) contribute none.
  const auto agreeing_pairs = [](const StrippedPartition& p) {
    int64_t pairs = 0;
    for (int64_t cls = 0; cls < p.num_classes(); ++cls) {
      const int64_t size = p.class_size(cls);
      pairs += size * (size - 1);
    }
    return pairs;
  };
  return agreeing_pairs(lhs) - agreeing_pairs(lhs_with_rhs);
}

StatusOr<double> G3Calculator::G1Error(const StrippedPartition& lhs,
                                       const StrippedPartition& lhs_with_rhs) {
  if (lhs.num_rows() == 0) return 0.0;
  TANE_ASSIGN_OR_RETURN(const int64_t pairs,
                        ViolatingPairCount(lhs, lhs_with_rhs));
  return static_cast<double>(pairs) /
         (static_cast<double>(lhs.num_rows()) *
          static_cast<double>(lhs.num_rows()));
}

StatusOr<int64_t> G3Calculator::ViolatingRowCount(
    const StrippedPartition& lhs, const StrippedPartition& lhs_with_rhs) {
  TANE_ASSIGN_OR_RETURN(const ViolationCounts counts,
                        LargestSubclassCounts(lhs, lhs_with_rhs));
  return counts.violating_rows;
}

StatusOr<double> G3Calculator::G2Error(const StrippedPartition& lhs,
                                       const StrippedPartition& lhs_with_rhs) {
  if (lhs.num_rows() == 0) return 0.0;
  TANE_ASSIGN_OR_RETURN(const int64_t rows,
                        ViolatingRowCount(lhs, lhs_with_rhs));
  return static_cast<double>(rows) / static_cast<double>(lhs.num_rows());
}

}  // namespace tane
