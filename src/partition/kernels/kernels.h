#ifndef TANE_PARTITION_KERNELS_KERNELS_H_
#define TANE_PARTITION_KERNELS_KERNELS_H_

#include <cstdint>

namespace tane {

/// The two hot loops of the probe-table algorithm, shared by
/// PartitionProduct and G3Calculator. Both operate on the flat SoA
/// (row_id, class_label) stream:
///
///  * LabelRows — pass 1 of Multiply and the g3 labeling pass: walk a
///    partition's CSR layout and scatter `base + class` into probe[row].
///  * GatherGroups — the probe phase: groups[i] = probe[rows[i]] - base
///    for a contiguous run of member rows. Negative values mean "stale
///    epoch or singleton", and the caller's branch-free scatter consumes
///    them without a conditional.
///
/// Plain scalar loops with software prefetch (DESIGN.md §14).
void LabelRows(int32_t* probe, const int32_t* rows, const int32_t* offsets,
               int64_t num_classes, int32_t base);

void GatherGroups(const int32_t* probe, const int32_t* rows, int64_t n,
                  int32_t base, int32_t* groups);

}  // namespace tane

#endif  // TANE_PARTITION_KERNELS_KERNELS_H_
