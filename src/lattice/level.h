#ifndef TANE_LATTICE_LEVEL_H_
#define TANE_LATTICE_LEVEL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "lattice/attribute_set.h"

namespace tane {

/// An index over the attribute sets of one lattice level, providing the
/// "random access with hashing" the paper relies on for constant-time set
/// lookup.
class LevelIndex {
 public:
  LevelIndex() = default;
  explicit LevelIndex(const std::vector<AttributeSet>& sets) {
    index_.reserve(sets.size());
    for (size_t i = 0; i < sets.size(); ++i) {
      index_.emplace(sets[i], static_cast<int>(i));
    }
  }

  /// Position of `set` in the originating vector, or -1 if absent.
  int Find(AttributeSet set) const {
    auto it = index_.find(set);
    return it == index_.end() ? -1 : it->second;
  }

  bool Contains(AttributeSet set) const { return Find(set) >= 0; }
  size_t size() const { return index_.size(); }

 private:
  std::unordered_map<AttributeSet, int, AttributeSetHash> index_;
};

/// A candidate produced by GENERATE-NEXT-LEVEL: the (ℓ+1)-set itself plus
/// the positions (within the previous level) of the two ℓ-subsets it was
/// joined from. TANE computes the candidate's partition as the product of
/// those two parents' partitions (Lemma 3).
struct LevelCandidate {
  AttributeSet set;
  int parent_a = -1;
  int parent_b = -1;
};

/// Implements the specification of GENERATE-NEXT-LEVEL (paper §5): the next
/// level contains exactly the (ℓ+1)-sets all of whose ℓ-subsets are in
/// `level`. Uses the classic prefix-block join: two ℓ-sets that differ only
/// in their largest attribute generate their union, which is then kept only
/// if every ℓ-subset is present.
///
/// `level` must contain distinct sets of a single uniform size ℓ >= 1.
/// Candidates are returned in ascending (parent_a, parent_b) order, which is
/// deterministic and keeps all candidates of one left parent adjacent.
///
/// The join already looks up every ℓ-subset of each candidate; when
/// `subset_positions` is non-null it receives those positions, so later
/// phases need no hash lookups: a flat array with stride ℓ+1 whose entry
/// [c·(ℓ+1) + k] is the position in `level` of X∖{A} for candidate c = X
/// and A its k-th member in ascending order.
std::vector<LevelCandidate> GenerateNextLevel(
    const std::vector<AttributeSet>& level,
    std::vector<int>* subset_positions = nullptr);

}  // namespace tane

#endif  // TANE_LATTICE_LEVEL_H_
