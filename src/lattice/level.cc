#include "lattice/level.h"

#include <algorithm>

#include "util/logging.h"

namespace tane {
namespace {

int HighestAttribute(AttributeSet set) {
  TANE_DCHECK(!set.empty());
  return 63 - std::countl_zero(set.mask());
}

}  // namespace

std::vector<LevelCandidate> GenerateNextLevel(
    const std::vector<AttributeSet>& level) {
  LevelIndex index(level);

  // Prefix blocks: all sets sharing everything but their largest attribute.
  std::unordered_map<AttributeSet, std::vector<int>, AttributeSetHash> blocks;
  for (size_t i = 0; i < level.size(); ++i) {
    blocks[level[i].Without(HighestAttribute(level[i]))].push_back(
        static_cast<int>(i));
  }

  std::vector<LevelCandidate> candidates;
  for (auto& [prefix, members] : blocks) {
    (void)prefix;
    if (members.size() < 2) continue;
    // Deterministic pair order regardless of hash-map iteration.
    std::sort(members.begin(), members.end(), [&](int a, int b) {
      return HighestAttribute(level[a]) < HighestAttribute(level[b]);
    });
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        const AttributeSet joined = level[members[i]].Union(level[members[j]]);
        // Keep only if every ℓ-subset survives in the previous level.
        bool all_subsets_present = true;
        for (int attribute : Members(joined)) {
          if (!index.Contains(joined.Without(attribute))) {
            all_subsets_present = false;
            break;
          }
        }
        if (all_subsets_present) {
          candidates.push_back({joined, members[i], members[j]});
        }
      }
    }
  }

  // Group by left parent: consecutive products then share parent_a, so the
  // driver's partition accessor and the product's label reuse both hit.
  std::sort(candidates.begin(), candidates.end(),
            [](const LevelCandidate& a, const LevelCandidate& b) {
              return a.parent_a != b.parent_a ? a.parent_a < b.parent_a
                                              : a.parent_b < b.parent_b;
            });
  return candidates;
}

}  // namespace tane
