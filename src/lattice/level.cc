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
    const std::vector<AttributeSet>& level,
    std::vector<int>* subset_positions) {
  LevelIndex index(level);
  // |X| of every candidate: one more than the (uniform) level size.
  const size_t stride = level.empty() ? 0 : level[0].size() + 1;

  // Prefix blocks: all sets sharing everything but their largest attribute.
  std::unordered_map<AttributeSet, std::vector<int>, AttributeSetHash> blocks;
  for (size_t i = 0; i < level.size(); ++i) {
    blocks[level[i].Without(HighestAttribute(level[i]))].push_back(
        static_cast<int>(i));
  }

  std::vector<LevelCandidate> generated;
  // Subset positions of `generated`, stride |X|, in generation order.
  std::vector<int> positions;
  std::vector<int> subsets(stride);
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
        // Keep only if every ℓ-subset survives in the previous level; the
        // lookups double as the candidate's subset positions.
        bool all_subsets_present = true;
        size_t k = 0;
        for (int attribute : Members(joined)) {
          subsets[k] = index.Find(joined.Without(attribute));
          if (subsets[k++] < 0) {
            all_subsets_present = false;
            break;
          }
        }
        if (all_subsets_present) {
          generated.push_back({joined, members[i], members[j]});
          positions.insert(positions.end(), subsets.begin(), subsets.end());
        }
      }
    }
  }

  // Group by left parent: consecutive products then share parent_a, so the
  // driver's partition accessor and the product's label reuse both hit.
  // The positions follow the same permutation.
  std::vector<int> order(generated.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    const LevelCandidate& a = generated[x];
    const LevelCandidate& b = generated[y];
    return a.parent_a != b.parent_a ? a.parent_a < b.parent_a
                                    : a.parent_b < b.parent_b;
  });
  std::vector<LevelCandidate> candidates;
  candidates.reserve(order.size());
  if (subset_positions != nullptr) {
    subset_positions->clear();
    subset_positions->reserve(positions.size());
  }
  for (const int i : order) {
    candidates.push_back(generated[i]);
    if (subset_positions != nullptr) {
      subset_positions->insert(subset_positions->end(),
                               positions.begin() + i * stride,
                               positions.begin() + (i + 1) * stride);
    }
  }
  return candidates;
}

}  // namespace tane
