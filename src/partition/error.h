#ifndef TANE_PARTITION_ERROR_H_
#define TANE_PARTITION_ERROR_H_

#include <cstdint>
#include <vector>

#include "partition/stripped_partition.h"
#include "util/status.h"

namespace tane {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// ⌊ε·scale⌋: the exact integer validity threshold. A dependency is valid
/// iff its violation count (g3 removals, g2 rows, or g1 ordered pairs) is
/// <= this value, where `scale` is |r| (g3, g2) or |r|² (g1). Computing the
/// threshold once and comparing raw counts against it keeps every validity
/// decision in exact integer arithmetic — floating-point comparisons with
/// absolute slack (the old `error <= ε + 1e-9`) misclassify borderline
/// dependencies once ε·scale grows past the point where a double's ulp
/// exceeds the slack. tools/tane_lint.py's float-threshold rule enforces
/// that validity tests go through this helper.
int64_t IntegerThreshold(double epsilon, double scale);

/// Lower and upper bounds on the g3 removal count of X → A derived from the
/// e(·) values alone (extended version [4], "a method to quickly bound the
/// g3 error"):
///
///     e(X) − e(X∪A)  ≤  removal count  ≤  e(X).
///
/// TANE's approximate mode uses these to skip the O(|r|) exact scan whenever
/// the bound already decides validity against the threshold ε.
struct G3Bounds {
  int64_t lower = 0;
  int64_t upper = 0;
};

/// Computes the bounds above from the two partitions' e(·) values. O(1).
G3Bounds BoundG3RemovalCount(const StrippedPartition& lhs,
                             const StrippedPartition& lhs_with_rhs);

/// The violation counts of X → A that follow from the largest π_{X∪A}
/// subclass of every π_X class c: g3 removes the |c| − largest rows of
/// each class, and g2 counts every row of a class that splits (largest <
/// |c|).
struct ViolationCounts {
  int64_t removals = 0;        ///< g3 numerator
  int64_t violating_rows = 0;  ///< g2 numerator
};

/// Computes the exact error of dependencies X → A from π_X (`lhs`) and
/// π_{X∪A} (`lhs_with_rhs`), paper §2 and Kivinen & Mannila [5]. g3 and g2
/// need the largest π_{X∪A}-subclass of every π_X class, found by a
/// counting pass: an epoch-tagged labeling of π_{X∪A} (no reset pass
/// between calls, like PartitionProduct's probe table), then per π_X class
/// either two or three probe loads and label compares (classes of 2 or 3
/// rows, most classes deep in the lattice) or a gather of the class's
/// labels into a flat SoA stream (GatherGroups) and a branch-free count —
/// rows that are singletons in π_{X∪A} are predicated into a dummy counter
/// slot instead of branching. g1 needs class sizes only (see
/// ViolatingPairCount) and scans nothing.
///
/// Every method requires π_{X∪A} to refine π_X, which holds for X → A by
/// construction; the two may use different representations (stripped or
/// not). The scratch arrays are reused across calls; construction takes
/// the relation's row count, but partitions over more rows simply grow the
/// scratch. Instances are not thread-safe; parallel callers keep one
/// G3Calculator per worker.
///
/// Every method fails with kInvalidArgument when the two partitions
/// disagree on their row count.
class G3Calculator {
 public:
  explicit G3Calculator(int64_t num_rows);

  /// Mirrors the member rows walked by every scan into `metrics`
  /// (kG3RowsScanned), on shard `shard`. Not owned; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics, int shard = 0) {
    metrics_ = metrics;
    metrics_shard_ = shard;
  }

  /// The minimum number of rows to remove so that X → A holds.
  /// Both partitions may be stripped or unstripped.
  StatusOr<int64_t> RemovalCount(const StrippedPartition& lhs,
                                 const StrippedPartition& lhs_with_rhs);

  /// g3(X → A) = RemovalCount / |r|, in [0, 1]. Returns 0 for empty
  /// relations.
  StatusOr<double> Error(const StrippedPartition& lhs,
                         const StrippedPartition& lhs_with_rhs);

  /// The g1 numerator (Kivinen & Mannila [5]): the number of *ordered* row
  /// pairs (t, u), t ≠ u, that agree on X but differ on A. g1 itself is
  /// this count divided by |r|². Since π_{X∪A} refines π_X, the pairs
  /// agreeing on X∪A are a subset of those agreeing on X, so the count is
  /// Σ_{c∈π_X} |c|(|c|−1) − Σ_{f∈π_{X∪A}} |f|(|f|−1): class sizes only, no
  /// row is read. For a pair that is not a refinement the result is
  /// meaningless.
  StatusOr<int64_t> ViolatingPairCount(const StrippedPartition& lhs,
                                       const StrippedPartition& lhs_with_rhs);

  /// g1(X → A) = ViolatingPairCount / |r|².
  StatusOr<double> G1Error(const StrippedPartition& lhs,
                           const StrippedPartition& lhs_with_rhs);

  /// The g2 numerator: the number of rows involved in at least one
  /// violating pair. A row t violates iff its π_X class contains a row
  /// disagreeing on A, i.e. iff the class splits under π_{X∪A}.
  StatusOr<int64_t> ViolatingRowCount(const StrippedPartition& lhs,
                                      const StrippedPartition& lhs_with_rhs);

  /// g2(X → A) = ViolatingRowCount / |r|.
  StatusOr<double> G2Error(const StrippedPartition& lhs,
                           const StrippedPartition& lhs_with_rhs);

  /// Member rows walked (labeling + counting passes) since construction.
  int64_t rows_scanned() const { return rows_scanned_; }

 private:
  // The g3 and g2 counts together, from one labeling and counting pass.
  StatusOr<ViolationCounts> LargestSubclassCounts(
      const StrippedPartition& lhs, const StrippedPartition& lhs_with_rhs);

  static Status CheckRowCounts(const StrippedPartition& lhs,
                               const StrippedPartition& lhs_with_rhs);

  // Validates the operands, grows the scratch when they cover more rows
  // than the constructed size, and runs the epoch-tagged labeling pass over
  // lhs_with_rhs. On success `*base` holds the epoch the labels were
  // written at: probe_[row] - *base is the π_{X∪A} class of `row`, negative
  // for singletons (and for stale labels of earlier calls — no reset pass
  // is ever needed).
  Status PrepareAndLabel(const StrippedPartition& lhs,
                         const StrippedPartition& lhs_with_rhs,
                         int32_t* base);

  void RecordScan(const StrippedPartition& lhs,
                  const StrippedPartition& lhs_with_rhs);

  int64_t num_rows_;
  // probe_[row] = probe_base_ + class index in π_{X∪A}; entries below
  // probe_base_ are stale (or the initial -1). Re-initialized only when the
  // base nears INT32_MAX.
  std::vector<int32_t> probe_;
  int64_t probe_base_ = 0;
  // counts_[cls] = rows of the current π_X class seen in π_{X∪A} class cls.
  // One extra trailing slot absorbs the predicated counts of invalid rows.
  std::vector<int32_t> counts_;
  // Touched counter slots of the current π_X class; written branch-free,
  // so sized rather than push_back-grown.
  std::vector<int32_t> touched_;
  // SoA class-label stream for the current π_X class (GatherGroups).
  std::vector<int32_t> groups_;

  obs::MetricsRegistry* metrics_ = nullptr;
  int metrics_shard_ = 0;
  int64_t rows_scanned_ = 0;
};

}  // namespace tane

#endif  // TANE_PARTITION_ERROR_H_
