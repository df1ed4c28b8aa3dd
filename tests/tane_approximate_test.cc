#include <algorithm>

#include "baselines/brute_force.h"
#include "core/tane.h"
#include "datasets/paper_datasets.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace tane {
namespace {

using testing_util::ContainsFd;
using testing_util::FdStrings;
using testing_util::MakeRelation;
using testing_util::PaperFigure1Relation;

StatusOr<DiscoveryResult> DiscoverApprox(const Relation& relation,
                                         double epsilon) {
  TaneConfig config;
  config.epsilon = epsilon;
  return Tane::Discover(relation, config);
}

TEST(TaneApproximateTest, EpsilonZeroMatchesExactMode) {
  StatusOr<DiscoveryResult> exact = Tane::Discover(PaperFigure1Relation());
  StatusOr<DiscoveryResult> approx =
      DiscoverApprox(PaperFigure1Relation(), 0.0);
  ASSERT_TRUE(exact.ok() && approx.ok());
  EXPECT_EQ(FdStrings(exact->fds), FdStrings(approx->fds));
}

TEST(TaneApproximateTest, SingleExceptionRow) {
  // col0 -> col1 has one exceptional row out of four: g3 = 0.25.
  Relation relation = MakeRelation(
      {{"x", "1"}, {"x", "1"}, {"x", "1"}, {"x", "2"}}, 2);
  StatusOr<DiscoveryResult> strict = DiscoverApprox(relation, 0.2);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(ContainsFd(strict->fds, AttributeSet(), 1));
  EXPECT_FALSE(ContainsFd(strict->fds, AttributeSet::Of({0}), 1));

  StatusOr<DiscoveryResult> loose = DiscoverApprox(relation, 0.25);
  ASSERT_TRUE(loose.ok());
  // col0 is constant, so the minimal approximate dependency is {} -> col1.
  EXPECT_TRUE(ContainsFd(loose->fds, AttributeSet(), 1));
  for (const FunctionalDependency& fd : loose->fds) {
    EXPECT_LE(fd.error, 0.25 + 1e-12);
  }
}

TEST(TaneApproximateTest, ErrorsAreExactG3Values) {
  // From the error_test ground truth: g3({A} -> B) = 3/8 in Figure 1.
  StatusOr<DiscoveryResult> result =
      DiscoverApprox(PaperFigure1Relation(), 0.375);
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const FunctionalDependency& fd : result->fds) {
    if (fd.lhs == AttributeSet::Of({0}) && fd.rhs == 1) {
      found = true;
      EXPECT_DOUBLE_EQ(fd.error, 3.0 / 8.0);
    }
  }
  EXPECT_TRUE(found) << ::testing::PrintToString(FdStrings(result->fds));
}

TEST(TaneApproximateTest, MinimalityHolds) {
  // No output dependency's lhs may contain another output lhs with the
  // same rhs.
  StatusOr<DiscoveryResult> result =
      DiscoverApprox(PaperFigure1Relation(), 0.25);
  ASSERT_TRUE(result.ok());
  for (const FunctionalDependency& a : result->fds) {
    for (const FunctionalDependency& b : result->fds) {
      if (a.rhs != b.rhs || a.lhs == b.lhs) continue;
      EXPECT_FALSE(a.lhs.IsProperSubsetOf(b.lhs))
          << a.lhs.ToString() << " subsumes " << b.lhs.ToString()
          << " for rhs " << a.rhs;
    }
  }
}

TEST(TaneApproximateTest, EpsilonOneMakesEverySingletonConstantLike) {
  // At ε = 1 every dependency is approximately valid, so the minimal ones
  // are exactly {} -> A for every attribute.
  StatusOr<DiscoveryResult> result =
      DiscoverApprox(PaperFigure1Relation(), 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_fds(), 4);
  for (int a = 0; a < 4; ++a) {
    EXPECT_TRUE(ContainsFd(result->fds, AttributeSet(), a));
  }
}

TEST(TaneApproximateTest, GrowingEpsilonNeverInvalidatesCoveredFds) {
  // Every dependency valid at ε1 is still (approximately) implied at
  // ε2 > ε1: its lhs contains some minimal lhs of the ε2 result.
  StatusOr<DiscoveryResult> tight =
      DiscoverApprox(PaperFigure1Relation(), 0.05);
  StatusOr<DiscoveryResult> loose =
      DiscoverApprox(PaperFigure1Relation(), 0.30);
  ASSERT_TRUE(tight.ok() && loose.ok());
  for (const FunctionalDependency& fd : tight->fds) {
    bool covered = false;
    for (const FunctionalDependency& wide : loose->fds) {
      if (wide.rhs == fd.rhs && fd.lhs.ContainsAll(wide.lhs)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << fd.lhs.ToString() << " -> " << fd.rhs;
  }
}

TEST(TaneApproximateTest, BoundsOnOffAgree) {
  for (double epsilon : {0.01, 0.1, 0.25, 0.5}) {
    TaneConfig with_bounds;
    with_bounds.epsilon = epsilon;
    with_bounds.use_g3_bounds = true;
    TaneConfig without_bounds;
    without_bounds.epsilon = epsilon;
    without_bounds.use_g3_bounds = false;
    StatusOr<DiscoveryResult> a =
        Tane::Discover(PaperFigure1Relation(), with_bounds);
    StatusOr<DiscoveryResult> b =
        Tane::Discover(PaperFigure1Relation(), without_bounds);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(FdStrings(a->fds), FdStrings(b->fds)) << "eps=" << epsilon;
  }
}

TEST(TaneApproximateTest, InexactErrorModeStillFindsSameFds) {
  TaneConfig config;
  config.epsilon = 0.25;
  config.compute_exact_errors = false;
  StatusOr<DiscoveryResult> fast =
      Tane::Discover(PaperFigure1Relation(), config);
  StatusOr<DiscoveryResult> exact =
      DiscoverApprox(PaperFigure1Relation(), 0.25);
  ASSERT_TRUE(fast.ok() && exact.ok());
  EXPECT_EQ(FdStrings(fast->fds), FdStrings(exact->fds));
  // Reported errors are upper bounds, still within the threshold.
  for (const FunctionalDependency& fd : fast->fds) {
    EXPECT_LE(fd.error, 0.25 + 1e-12);
  }
}

TEST(TaneApproximateTest, BoundsSkipScansOnCleanData) {
  // On a relation with an exactly-valid dependency chain, the e-based upper
  // bound proves many validities without a scan.
  Relation relation = MakeRelation(
      {{"a", "1", "x"}, {"a", "1", "x"}, {"b", "2", "y"}, {"c", "2", "y"}},
      3);
  TaneConfig config;
  config.epsilon = 0.3;
  config.compute_exact_errors = false;
  StatusOr<DiscoveryResult> result = Tane::Discover(relation, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.g3_scans_skipped, 0);
}

TEST(TaneApproximateTest, G2MeasureMatchesHandComputation) {
  // g2({A} -> B) = 1.0 in Figure 1 (every row is in a violating pair), so
  // {A} -> B only qualifies at ε = 1 under g2 — unlike g3 where 0.375
  // suffices.
  TaneConfig config;
  config.epsilon = 0.5;
  config.measure = ErrorMeasure::kG2;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), config);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(ContainsFd(result->fds, AttributeSet::Of({0}), 1));
  for (const FunctionalDependency& fd : result->fds) {
    EXPECT_LE(fd.error, 0.5 + 1e-12);
  }
}

TEST(TaneApproximateTest, G1MeasureAdmitsMoreThanG2) {
  // g1 normalizes by |r|², so the same violations weigh much less:
  // g1({A} -> B) = 10/64 ≈ 0.156 in Figure 1.
  TaneConfig config;
  config.epsilon = 0.16;
  config.measure = ErrorMeasure::kG1;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), config);
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const FunctionalDependency& fd : result->fds) {
    if (fd.lhs == AttributeSet::Of({0}) && fd.rhs == 1) {
      found = true;
      EXPECT_NEAR(fd.error, 10.0 / 64.0, 1e-12);
    }
  }
  EXPECT_TRUE(found) << ::testing::PrintToString(FdStrings(result->fds));
}

TEST(TaneApproximateTest, AllMeasuresAgreeAtEpsilonZero) {
  for (ErrorMeasure measure :
       {ErrorMeasure::kG3, ErrorMeasure::kG2, ErrorMeasure::kG1}) {
    TaneConfig config;
    config.epsilon = 0.0;
    config.measure = measure;
    StatusOr<DiscoveryResult> result =
        Tane::Discover(PaperFigure1Relation(), config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->num_fds(), 6);
  }
}

// Validity is the exact integer comparison removals <= ⌊ε·|r|⌋. The two
// tests below pin both sides of that boundary; the old float comparison
// with an absolute 1e-9 slack could flip either one.
TEST(TaneApproximateTest, ValidAtExactlyFloorEpsilonNRemovals) {
  // col0 constant; col1 = 7×"a" plus 3 distinct values over 10 rows, so
  // g3 removals of {} -> col1 is exactly 3. With ε = 0.35, ⌊ε·10⌋ = 3 and
  // the dependency must be valid with error 3/10.
  Relation relation = MakeRelation(
      {{"k", "a"}, {"k", "a"}, {"k", "a"}, {"k", "a"}, {"k", "a"},
       {"k", "a"}, {"k", "a"}, {"k", "b"}, {"k", "c"}, {"k", "d"}},
      2);
  StatusOr<DiscoveryResult> result = DiscoverApprox(relation, 0.35);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(ContainsFd(result->fds, AttributeSet(), 1));
  for (const FunctionalDependency& fd : result->fds) {
    if (fd.lhs.empty() && fd.rhs == 1) {
      EXPECT_DOUBLE_EQ(fd.error, 0.3);
    }
  }
}

TEST(TaneApproximateTest, InvalidAtFloorEpsilonNPlusOneRemovals) {
  // col1 = 6×"a" plus 4 distinct values: removals = 4 = ⌊0.35·10⌋ + 1, so
  // {} -> col1 must NOT hold at ε = 0.35 (and must hold at ε = 0.4, where
  // the threshold reaches 4).
  Relation relation = MakeRelation(
      {{"k", "a"}, {"k", "a"}, {"k", "a"}, {"k", "a"}, {"k", "a"},
       {"k", "a"}, {"k", "b"}, {"k", "c"}, {"k", "d"}, {"k", "e"}},
      2);
  StatusOr<DiscoveryResult> strict = DiscoverApprox(relation, 0.35);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(ContainsFd(strict->fds, AttributeSet(), 1));

  StatusOr<DiscoveryResult> loose = DiscoverApprox(relation, 0.4);
  ASSERT_TRUE(loose.ok());
  EXPECT_TRUE(ContainsFd(loose->fds, AttributeSet(), 1));
}

TEST(TaneApproximateTest, BoundaryExactUnderAllMeasures) {
  // g2's numerator is the violating-row count: the 4 rows of the split
  // class {a:3, b:1} violate, so {} -> col1 holds iff ⌊ε·4⌋ >= 4, i.e.
  // only at ε = 1. g3 removals = 1, so g3 accepts from ε = 0.25.
  Relation relation =
      MakeRelation({{"k", "a"}, {"k", "a"}, {"k", "a"}, {"k", "b"}}, 2);
  TaneConfig g2;
  g2.epsilon = 0.25;
  g2.measure = ErrorMeasure::kG2;
  StatusOr<DiscoveryResult> g2_result = Tane::Discover(relation, g2);
  ASSERT_TRUE(g2_result.ok());
  EXPECT_FALSE(ContainsFd(g2_result->fds, AttributeSet(), 1));

  StatusOr<DiscoveryResult> g3_result = DiscoverApprox(relation, 0.25);
  ASSERT_TRUE(g3_result.ok());
  EXPECT_TRUE(ContainsFd(g3_result->fds, AttributeSet(), 1));
}

TEST(TaneApproximateTest, ApproximateKeysStillExactKeys) {
  // Keys reported in approximate mode are exact keys regardless of ε.
  StatusOr<DiscoveryResult> result =
      DiscoverApprox(PaperFigure1Relation(), 0.25);
  ASSERT_TRUE(result.ok());
  for (AttributeSet key : result->keys) {
    EXPECT_TRUE(key == AttributeSet::Of({0, 3}) ||
                key == AttributeSet::Of({1, 3}))
        << key.ToString();
  }
}

TEST(TaneApproximateTest, KeyPruningKeepsTheBruteForceResult) {
  // 40 Adult stand-in rows at ε = 0.05 have keys with minimal AFDs whose
  // left-hand sides lie above them in the lattice, so key pruning must not
  // delete those keys in approximate mode.
  StatusOr<Relation> relation =
      MakePaperDataset(PaperDataset::kAdult, 40, /*seed=*/42);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  StatusOr<DiscoveryResult> expected = BruteForce::Discover(*relation, 0.05);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  for (const int threads : {1, 4}) {
    TaneConfig config;
    config.epsilon = 0.05;
    config.num_threads = threads;
    StatusOr<DiscoveryResult> result = Tane::Discover(*relation, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(FdStrings(result->fds), FdStrings(expected->fds)) << threads;
  }
}

}  // namespace
}  // namespace tane
