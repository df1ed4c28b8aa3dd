#include "partition/kernels/kernels.h"

namespace tane {
namespace {

// Prefetch distance (in rows) for the probe-table walks. The probe loads
// are the only irregular accesses in the hot loops; fetching the line
// ~16 rows ahead hides most of an L2 hit and a useful fraction of an LLC
// hit without evicting anything the next few iterations need. Measured as
// the knee of the distance sweep on the 5k/100k-row bench datasets;
// documented in DESIGN.md §14.
constexpr int64_t kPrefetchDistance = 16;

}  // namespace

void LabelRows(int32_t* probe, const int32_t* rows, const int32_t* offsets,
               int64_t num_classes, int32_t base) {
  const int64_t member_rows = offsets[num_classes];
  for (int64_t cls = 0; cls < num_classes; ++cls) {
    const int32_t label = base + static_cast<int32_t>(cls);
    const int32_t end = offsets[cls + 1];
    for (int32_t i = offsets[cls]; i < end; ++i) {
      if (i + kPrefetchDistance < member_rows) {
        __builtin_prefetch(probe + rows[i + kPrefetchDistance], 1);
      }
      probe[rows[i]] = label;
    }
  }
}

void GatherGroups(const int32_t* probe, const int32_t* rows, int64_t n,
                  int32_t base, int32_t* groups) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + kPrefetchDistance + 3 < n) {
      __builtin_prefetch(probe + rows[i + kPrefetchDistance + 0]);
      __builtin_prefetch(probe + rows[i + kPrefetchDistance + 1]);
      __builtin_prefetch(probe + rows[i + kPrefetchDistance + 2]);
      __builtin_prefetch(probe + rows[i + kPrefetchDistance + 3]);
    }
    groups[i + 0] = probe[rows[i + 0]] - base;
    groups[i + 1] = probe[rows[i + 1]] - base;
    groups[i + 2] = probe[rows[i + 2]] - base;
    groups[i + 3] = probe[rows[i + 3]] - base;
  }
  for (; i < n; ++i) groups[i] = probe[rows[i]] - base;
}

}  // namespace tane
