#include "lattice/level.h"

#include <algorithm>
#include <bit>
#include <set>

#include "gtest/gtest.h"
#include "util/random.h"

namespace tane {
namespace {

std::vector<AttributeSet> Sets(std::initializer_list<AttributeSet> sets) {
  return std::vector<AttributeSet>(sets);
}

TEST(LevelIndexTest, FindAndContains) {
  std::vector<AttributeSet> sets = {AttributeSet::Of({0}),
                                    AttributeSet::Of({2})};
  LevelIndex index(sets);
  EXPECT_EQ(index.Find(AttributeSet::Of({0})), 0);
  EXPECT_EQ(index.Find(AttributeSet::Of({2})), 1);
  EXPECT_EQ(index.Find(AttributeSet::Of({1})), -1);
  EXPECT_TRUE(index.Contains(AttributeSet::Of({2})));
  EXPECT_FALSE(index.Contains(AttributeSet::Of({0, 2})));
  EXPECT_EQ(index.size(), 2u);
}

TEST(GenerateNextLevelTest, SingletonsToAllPairs) {
  std::vector<AttributeSet> level = {
      AttributeSet::Singleton(0), AttributeSet::Singleton(1),
      AttributeSet::Singleton(2)};
  std::vector<LevelCandidate> candidates = GenerateNextLevel(level);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].set, AttributeSet::Of({0, 1}));
  EXPECT_EQ(candidates[1].set, AttributeSet::Of({0, 2}));
  EXPECT_EQ(candidates[2].set, AttributeSet::Of({1, 2}));
}

TEST(GenerateNextLevelTest, ParentsAreTheJoinedSubsets) {
  std::vector<AttributeSet> level = {AttributeSet::Singleton(3),
                                     AttributeSet::Singleton(1)};
  std::vector<LevelCandidate> candidates = GenerateNextLevel(level);
  ASSERT_EQ(candidates.size(), 1u);
  const LevelCandidate& candidate = candidates[0];
  EXPECT_EQ(candidate.set, AttributeSet::Of({1, 3}));
  const AttributeSet parent_union =
      level[candidate.parent_a].Union(level[candidate.parent_b]);
  EXPECT_EQ(parent_union, candidate.set);
  EXPECT_NE(candidate.parent_a, candidate.parent_b);
}

TEST(GenerateNextLevelTest, RequiresAllSubsets) {
  // {0,1},{0,2} join to {0,1,2}, but {1,2} is missing from the level, so
  // the candidate must be suppressed.
  std::vector<AttributeSet> level = {AttributeSet::Of({0, 1}),
                                     AttributeSet::Of({0, 2})};
  EXPECT_TRUE(GenerateNextLevel(level).empty());
}

TEST(GenerateNextLevelTest, CompletePairLevelGivesTriples) {
  std::vector<AttributeSet> level = {
      AttributeSet::Of({0, 1}), AttributeSet::Of({0, 2}),
      AttributeSet::Of({1, 2}), AttributeSet::Of({1, 3}),
      AttributeSet::Of({2, 3}), AttributeSet::Of({0, 3})};
  std::vector<LevelCandidate> candidates = GenerateNextLevel(level);
  ASSERT_EQ(candidates.size(), 4u);
  EXPECT_EQ(candidates[0].set, AttributeSet::Of({0, 1, 2}));
  EXPECT_EQ(candidates[1].set, AttributeSet::Of({0, 1, 3}));
  EXPECT_EQ(candidates[2].set, AttributeSet::Of({0, 2, 3}));
  EXPECT_EQ(candidates[3].set, AttributeSet::Of({1, 2, 3}));
}

TEST(GenerateNextLevelTest, PartiallyPrunedPairLevel) {
  // Missing {1,2}: only {0,1,3} (from {0,1},{0,3},{1,3}) and {0,2,3}
  // survive the subset check.
  std::vector<AttributeSet> level = {
      AttributeSet::Of({0, 1}), AttributeSet::Of({0, 2}),
      AttributeSet::Of({1, 3}), AttributeSet::Of({2, 3}),
      AttributeSet::Of({0, 3})};
  std::vector<LevelCandidate> candidates = GenerateNextLevel(level);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].set, AttributeSet::Of({0, 1, 3}));
  EXPECT_EQ(candidates[1].set, AttributeSet::Of({0, 2, 3}));
}

TEST(GenerateNextLevelTest, EmptyAndSingletonLevels) {
  EXPECT_TRUE(GenerateNextLevel({}).empty());
  EXPECT_TRUE(GenerateNextLevel(Sets({AttributeSet::Of({0, 1})})).empty());
}

TEST(GenerateNextLevelTest, TopOfLatticeFromFullPairSet) {
  // All 2-subsets of {0,1,2} generate exactly the full set at level 3, and
  // from a single 3-set nothing follows.
  std::vector<AttributeSet> level = {AttributeSet::Of({0, 1}),
                                     AttributeSet::Of({0, 2}),
                                     AttributeSet::Of({1, 2})};
  std::vector<LevelCandidate> triples = GenerateNextLevel(level);
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].set, AttributeSet::Of({0, 1, 2}));
  EXPECT_TRUE(GenerateNextLevel(Sets({triples[0].set})).empty());
}

bool ByParents(const LevelCandidate& x, const LevelCandidate& y) {
  return x.parent_a != y.parent_a ? x.parent_a < y.parent_a
                                  : x.parent_b < y.parent_b;
}

TEST(GenerateNextLevelTest, DeterministicOrder) {
  // Candidates come out grouped by left parent, ordered by (parent_a,
  // parent_b) — not by mask: {0,2} precedes {0,1} here because {0} is
  // level[1] and {2} is level[0].
  std::vector<AttributeSet> level = {
      AttributeSet::Singleton(2), AttributeSet::Singleton(0),
      AttributeSet::Singleton(1)};
  std::vector<LevelCandidate> a = GenerateNextLevel(level);
  std::vector<LevelCandidate> b = GenerateNextLevel(level);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].set, b[i].set);
    EXPECT_EQ(a[i].parent_a, b[i].parent_a);
    EXPECT_EQ(a[i].parent_b, b[i].parent_b);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), ByParents));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].set, AttributeSet::Of({0, 2}));
  EXPECT_EQ(a[1].set, AttributeSet::Of({0, 1}));
  EXPECT_EQ(a[2].set, AttributeSet::Of({1, 2}));
}

TEST(GenerateNextLevelTest, MatchesBruteForceOnRandomLevels) {
  // The candidate set is exactly the (ℓ+1)-sets all of whose ℓ-subsets are
  // in the level; each candidate is the union of two distinct ℓ-sets of the
  // level, and the list is in strict (parent_a, parent_b) order. The
  // recorded subset positions of candidate X are, with stride ℓ+1, the
  // level positions of X∖{A} for its members A in ascending order.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int attributes = 2 + static_cast<int>(rng.NextBounded(7));
    const int size = 1 + static_cast<int>(rng.NextBounded(attributes - 1));
    const double keep = 0.3 + 0.7 * rng.NextDouble();
    std::vector<AttributeSet> level;
    std::set<uint64_t> present;
    for (uint64_t mask = 1; mask < (uint64_t{1} << attributes); ++mask) {
      if (std::popcount(mask) == size && rng.NextBernoulli(keep)) {
        level.push_back(AttributeSet::FromMask(mask));
        present.insert(mask);
      }
    }
    // Level order is arbitrary in the driver (it follows the previous
    // level's candidate order), so shuffle it.
    for (size_t i = level.size(); i > 1; --i) {
      std::swap(level[i - 1], level[rng.NextBounded(i)]);
    }

    std::set<uint64_t> expected;
    for (uint64_t mask = 1; mask < (uint64_t{1} << attributes); ++mask) {
      if (std::popcount(mask) != size + 1) continue;
      bool all_present = true;
      for (int attribute : Members(AttributeSet::FromMask(mask))) {
        if (present.count(AttributeSet::FromMask(mask).Without(attribute)
                              .mask()) == 0) {
          all_present = false;
        }
      }
      if (all_present) expected.insert(mask);
    }

    std::vector<int> positions;
    const std::vector<LevelCandidate> candidates =
        GenerateNextLevel(level, &positions);
    const LevelIndex index(level);
    const size_t stride = static_cast<size_t>(size) + 1;
    ASSERT_EQ(positions.size(), candidates.size() * stride) << trial;
    for (size_t c = 0; c < candidates.size(); ++c) {
      size_t k = 0;
      for (int attribute : Members(candidates[c].set)) {
        EXPECT_EQ(positions[c * stride + k++],
                  index.Find(candidates[c].set.Without(attribute)))
            << "trial " << trial << ", " << candidates[c].set.ToString();
      }
    }
    // Recording positions changes nothing about the candidates.
    const std::vector<LevelCandidate> unrecorded = GenerateNextLevel(level);
    ASSERT_EQ(unrecorded.size(), candidates.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      EXPECT_EQ(unrecorded[c].set, candidates[c].set);
      EXPECT_EQ(unrecorded[c].parent_a, candidates[c].parent_a);
      EXPECT_EQ(unrecorded[c].parent_b, candidates[c].parent_b);
    }
    std::set<uint64_t> actual;
    for (const LevelCandidate& candidate : candidates) {
      EXPECT_TRUE(actual.insert(candidate.set.mask()).second)
          << "duplicate " << candidate.set.ToString();
      ASSERT_GE(candidate.parent_a, 0);
      ASSERT_GE(candidate.parent_b, 0);
      ASSERT_LT(candidate.parent_a, static_cast<int>(level.size()));
      ASSERT_LT(candidate.parent_b, static_cast<int>(level.size()));
      EXPECT_NE(candidate.parent_a, candidate.parent_b);
      EXPECT_EQ(level[candidate.parent_a].Union(level[candidate.parent_b]),
                candidate.set);
    }
    EXPECT_EQ(actual, expected) << "trial " << trial;
    EXPECT_TRUE(std::adjacent_find(candidates.begin(), candidates.end(),
                                   [](const LevelCandidate& x,
                                      const LevelCandidate& y) {
                                     return !ByParents(x, y);
                                   }) == candidates.end())
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace tane
