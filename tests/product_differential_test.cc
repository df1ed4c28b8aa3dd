// Differential fuzz for the probe-table product and error scans:
// PartitionProduct::Multiply and G3Calculator against naive map-based
// references on random partitions — both emission strategies, the gathered
// and direct probe paths, label reuse, and operands over more rows than the
// constructed size — plus every label pattern of the 2- and 3-row classes
// the product resolves by compares, the parent-test counts of
// MultiplyCounted, and discovery runs checked for bit-identical output,
// exact allocation counts and agreement with brute force across thread
// counts.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "baselines/brute_force.h"
#include "core/tane.h"
#include "datasets/paper_datasets.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "partition/error.h"
#include "partition/partition_builder.h"
#include "partition/product.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace tane {
namespace {

// The partition of rows by `labels`, stripped or not.
StrippedPartition FromLabels(const std::vector<int32_t>& labels,
                             bool stripped) {
  std::map<int32_t, std::vector<int32_t>> classes;
  for (size_t row = 0; row < labels.size(); ++row) {
    classes[labels[row]].push_back(static_cast<int32_t>(row));
  }
  std::vector<int32_t> rows;
  std::vector<int32_t> offsets{0};
  for (const auto& [label, members] : classes) {
    if (stripped && members.size() < 2) continue;
    rows.insert(rows.end(), members.begin(), members.end());
    offsets.push_back(static_cast<int32_t>(rows.size()));
  }
  StatusOr<StrippedPartition> partition = StrippedPartition::Create(
      static_cast<int64_t>(labels.size()), std::move(rows), std::move(offsets),
      stripped);
  EXPECT_TRUE(partition.ok()) << partition.status().ToString();
  return std::move(partition).value();
}

// Row -> stored class of `p`; rows in no stored class (stripped singletons)
// get a label of their own, -1 - row.
std::vector<int32_t> ClassOfRow(const StrippedPartition& p) {
  std::vector<int32_t> label(p.num_rows());
  for (int64_t row = 0; row < p.num_rows(); ++row) {
    label[row] = -1 - static_cast<int32_t>(row);
  }
  for (int64_t cls = 0; cls < p.num_classes(); ++cls) {
    for (int32_t i = p.class_begin(cls); i < p.class_end(cls); ++i) {
      label[p.row_ids()[i]] = static_cast<int32_t>(cls);
    }
  }
  return label;
}

// π_a · π_b by definition: rows agree iff they share a class in both.
StrippedPartition NaiveProduct(const StrippedPartition& a,
                               const StrippedPartition& b) {
  const std::vector<int32_t> in_a = ClassOfRow(a);
  const std::vector<int32_t> in_b = ClassOfRow(b);
  std::map<std::pair<int32_t, int32_t>, int32_t> pair_label;
  std::vector<int32_t> labels(a.num_rows());
  for (int64_t row = 0; row < a.num_rows(); ++row) {
    const auto key = std::make_pair(in_a[row], in_b[row]);
    const int32_t next = static_cast<int32_t>(pair_label.size());
    labels[row] = pair_label.emplace(key, next).first->second;
  }
  return FromLabels(labels, a.stripped()).Canonicalized();
}

// The touched-list emission order by definition: per class of `b`, in
// order, its rows grouped by `a` class in first-seen order, each group's
// rows in `b` order; groups below the representation's minimum class size
// (in particular stripped rows in no stored `a` class) are dropped.
StrippedPartition TouchedListProduct(const StrippedPartition& a,
                                     const StrippedPartition& b) {
  const std::vector<int32_t> in_a = ClassOfRow(a);
  const size_t min_size = a.stripped() ? 2 : 1;
  std::vector<int32_t> rows;
  std::vector<int32_t> offsets{0};
  for (int64_t cls = 0; cls < b.num_classes(); ++cls) {
    std::vector<int32_t> first_seen;
    std::map<int32_t, std::vector<int32_t>> groups;
    for (int32_t i = b.class_begin(cls); i < b.class_end(cls); ++i) {
      const int32_t row = b.row_ids()[i];
      std::vector<int32_t>& group = groups[in_a[row]];
      if (group.empty()) first_seen.push_back(in_a[row]);
      group.push_back(row);
    }
    for (const int32_t label : first_seen) {
      const std::vector<int32_t>& group = groups[label];
      if (group.size() < min_size) continue;
      rows.insert(rows.end(), group.begin(), group.end());
      offsets.push_back(static_cast<int32_t>(rows.size()));
    }
  }
  StatusOr<StrippedPartition> product = StrippedPartition::Create(
      a.num_rows(), std::move(rows), std::move(offsets), a.stripped());
  EXPECT_TRUE(product.ok()) << product.status().ToString();
  return std::move(product).value();
}

// True when Multiply(a, b) takes the touched-list emission path (the
// index-order scan would dwarf the row walk); see product.cc.
bool TakesTouchedListPath(const StrippedPartition& a,
                          const StrippedPartition& b) {
  return (a.num_classes() + 1) * b.num_classes() > b.num_member_rows();
}

struct NaiveCounts {
  int64_t removals = 0;        // g3 numerator
  int64_t violating_pairs = 0;  // g1 numerator
  int64_t violating_rows = 0;   // g2 numerator
};

// The error-measure numerators of X → A from π_X (`coarse`) and π_{X∪A}
// (`fine`), one class of π_X at a time.
NaiveCounts NaiveErrors(const StrippedPartition& coarse,
                        const StrippedPartition& fine) {
  const std::vector<int32_t> in_fine = ClassOfRow(fine);
  NaiveCounts counts;
  for (int64_t cls = 0; cls < coarse.num_classes(); ++cls) {
    std::map<int32_t, int64_t> subclasses;
    for (int32_t i = coarse.class_begin(cls); i < coarse.class_end(cls); ++i) {
      ++subclasses[in_fine[coarse.row_ids()[i]]];
    }
    const int64_t size = coarse.class_size(cls);
    int64_t largest = 0;
    int64_t agreeing_pairs = 0;
    for (const auto& [label, count] : subclasses) {
      largest = std::max(largest, count);
      agreeing_pairs += count * (count - 1);
    }
    counts.removals += size - largest;
    counts.violating_pairs += size * (size - 1) - agreeing_pairs;
    if (largest != size) counts.violating_rows += size;
  }
  return counts;
}

// Label columns covering the product's regimes: a constant column (one
// class over every row), two classes, a mid-range column, and a near-key
// column (heavy stripping, tiny surviving classes).
std::vector<std::vector<int32_t>> FuzzColumns(Rng& rng, int64_t rows) {
  const uint64_t ranges[] = {1, 2, static_cast<uint64_t>(1 + rows / 4),
                             static_cast<uint64_t>(rows)};
  std::vector<std::vector<int32_t>> columns;
  for (uint64_t range : ranges) {
    std::vector<int32_t> column(rows);
    for (int32_t& value : column) {
      value = static_cast<int32_t>(rng.NextBounded(range));
    }
    columns.push_back(std::move(column));
  }
  return columns;
}

// The exact-size contract: a product's arrays are exactly as large as its
// CSR content, so EstimatedBytes() is the true 4·(m + c + 1).
void ExpectExactlySized(const StrippedPartition& product) {
  EXPECT_EQ(product.EstimatedBytes(),
            static_cast<int64_t>(sizeof(int32_t)) *
                (product.num_member_rows() + product.num_classes() + 1));
}

// Multiplies every ordered pair of `partitions` (and every product once
// more by each operand, so many-class left operands take the touched-list
// emission path) on two PartitionProducts: one sized for the rows and one
// constructed for fewer, which must grow. Checks each result against the
// naive product and the two products against each other exactly: emission
// order is part of the determinism contract.
void CheckProducts(const std::vector<StrippedPartition>& partitions) {
  const int64_t rows = partitions.front().num_rows();
  PartitionProduct sized(rows);
  PartitionProduct undersized(1 + rows / 3);
  std::vector<StrippedPartition> products;
  for (size_t a = 0; a < partitions.size(); ++a) {
    for (size_t b = 0; b < partitions.size(); ++b) {
      // Same token for every `b`: after the first product the left
      // operand's labels are reused.
      const uint64_t token = a + 1;
      StrippedPartition out =
          sized.Multiply(partitions[a], partitions[b], token).value();
      EXPECT_EQ(out.Canonicalized(),
                NaiveProduct(partitions[a], partitions[b]))
          << a << " x " << b;
      ExpectExactlySized(out);
      EXPECT_EQ(undersized.Multiply(partitions[a], partitions[b], token)
                    .value(),
                out)
          << a << " x " << b;
      products.push_back(std::move(out));
    }
  }
  for (const StrippedPartition& left : products) {
    for (const StrippedPartition& right : partitions) {
      StrippedPartition out = sized.Multiply(left, right).value();
      EXPECT_EQ(out.Canonicalized(), NaiveProduct(left, right));
      ExpectExactlySized(out);
      EXPECT_EQ(undersized.Multiply(left, right).value(), out);
    }
  }
  EXPECT_GT(sized.label_reuses(), 0);
}

// g3, g1 and g2 numerators of every X → A over `partitions`, on a
// calculator sized for the rows and one that must grow.
void CheckErrors(const std::vector<StrippedPartition>& partitions) {
  const int64_t rows = partitions.front().num_rows();
  PartitionProduct product(rows);
  G3Calculator sized(rows);
  G3Calculator undersized(1);
  for (size_t x = 0; x < partitions.size(); ++x) {
    for (size_t a = 0; a < partitions.size(); ++a) {
      const StrippedPartition& coarse = partitions[x];
      const StrippedPartition fine =
          product.Multiply(coarse, partitions[a]).value();
      const NaiveCounts expected = NaiveErrors(coarse, fine);
      for (G3Calculator* g3 : {&sized, &undersized}) {
        EXPECT_EQ(g3->RemovalCount(coarse, fine).value(), expected.removals)
            << x << " -> " << a;
        EXPECT_EQ(g3->ViolatingPairCount(coarse, fine).value(),
                  expected.violating_pairs)
            << x << " -> " << a;
        EXPECT_EQ(g3->ViolatingRowCount(coarse, fine).value(),
                  expected.violating_rows)
            << x << " -> " << a;
      }
    }
  }
}

class ProductDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ProductDifferentialTest, MultiplyMatchesNaiveProduct) {
  Rng rng(0x9e3779b9u + static_cast<uint64_t>(GetParam()));
  // Odd-sized relations so the unrolled gather always has a ragged tail.
  const int64_t rows = 17 + static_cast<int64_t>(rng.NextBounded(150));
  const std::vector<std::vector<int32_t>> columns = FuzzColumns(rng, rows);
  for (const bool stripped : {true, false}) {
    std::vector<StrippedPartition> partitions;
    for (const std::vector<int32_t>& column : columns) {
      partitions.push_back(FromLabels(column, stripped));
    }
    // The empty stripped partition (a superkey) intersects to nothing.
    if (stripped) partitions.emplace_back(rows);
    CheckProducts(partitions);
  }
}

TEST_P(ProductDifferentialTest, ErrorCountsMatchNaiveCounts) {
  Rng rng(0x85ebca6bu + static_cast<uint64_t>(GetParam()));
  const int64_t rows = 17 + static_cast<int64_t>(rng.NextBounded(150));
  const std::vector<std::vector<int32_t>> columns = FuzzColumns(rng, rows);
  for (const bool stripped : {true, false}) {
    std::vector<StrippedPartition> partitions;
    for (const std::vector<int32_t>& column : columns) {
      partitions.push_back(FromLabels(column, stripped));
    }
    CheckErrors(partitions);
  }
}

TEST_P(ProductDifferentialTest, GatheredProbePathMatchesDirectPath) {
  // A product constructed for 2^19 rows owns a 2 MiB probe table, which
  // routes every Multiply through the gathered SoA group stream; one sized
  // for the relation probes directly. Both must emit the same CSR, class
  // order included, and match the naive product.
  constexpr int64_t kGatheredRows = int64_t{1} << 19;
  Rng rng(0xc2b2ae35u + static_cast<uint64_t>(GetParam()));
  const int64_t rows = 17 + static_cast<int64_t>(rng.NextBounded(150));
  const std::vector<std::vector<int32_t>> columns = FuzzColumns(rng, rows);
  PartitionProduct gathered(kGatheredRows);
  PartitionProduct direct(rows);
  for (const bool stripped : {true, false}) {
    std::vector<StrippedPartition> partitions;
    for (const std::vector<int32_t>& column : columns) {
      partitions.push_back(FromLabels(column, stripped));
    }
    for (size_t a = 0; a < partitions.size(); ++a) {
      for (size_t b = 0; b < partitions.size(); ++b) {
        const StrippedPartition out =
            gathered.Multiply(partitions[a], partitions[b]).value();
        EXPECT_EQ(out, direct.Multiply(partitions[a], partitions[b]).value())
            << a << " x " << b;
        EXPECT_EQ(out.Canonicalized(),
                  NaiveProduct(partitions[a], partitions[b]))
            << a << " x " << b;
        ExpectExactlySized(out);
      }
    }
  }
}

TEST_P(ProductDifferentialTest, ParentCountsMatchNaiveCounts) {
  // MultiplyCounted against the naive g3/g2 numerators of both parent
  // tests (operand -> product), with an output identical to Multiply's,
  // in both emission regimes and on the direct and gathered probe paths.
  Rng rng(0x27d4eb2fu + static_cast<uint64_t>(GetParam()));
  const int64_t rows = 17 + static_cast<int64_t>(rng.NextBounded(150));
  const std::vector<std::vector<int32_t>> columns = FuzzColumns(rng, rows);
  PartitionProduct plain(rows);
  PartitionProduct direct(rows);
  PartitionProduct gathered(int64_t{1} << 19);
  int regimes[2] = {0, 0};
  for (const bool stripped : {true, false}) {
    std::vector<StrippedPartition> partitions;
    for (const std::vector<int32_t>& column : columns) {
      partitions.push_back(FromLabels(column, stripped));
    }
    // Products as left operands: many small classes, the touched-list
    // regime and its 2- and 3-row classes.
    const size_t base_count = partitions.size();
    for (size_t a = 1; a < base_count; ++a) {
      partitions.push_back(
          plain.Multiply(partitions[a], partitions[base_count - 1]).value());
    }
    for (const StrippedPartition& a : partitions) {
      for (const StrippedPartition& b : partitions) {
        const StrippedPartition expected = plain.Multiply(a, b).value();
        const NaiveCounts naive_a = NaiveErrors(a, expected);
        const NaiveCounts naive_b = NaiveErrors(b, expected);
        ++regimes[TakesTouchedListPath(a, b) ? 1 : 0];
        for (PartitionProduct* product : {&direct, &gathered}) {
          const CountedProduct counted =
              product->MultiplyCounted(a, b).value();
          EXPECT_EQ(counted.partition, expected);
          EXPECT_EQ(counted.a.removals, naive_a.removals);
          EXPECT_EQ(counted.a.violating_rows, naive_a.violating_rows);
          EXPECT_EQ(counted.b.removals, naive_b.removals);
          EXPECT_EQ(counted.b.violating_rows, naive_b.violating_rows);
        }
      }
    }
  }
  EXPECT_GT(regimes[0], 0);
  EXPECT_GT(regimes[1], 0);
}

TEST_P(ProductDifferentialTest, G1CountFromClassSizesMatchesNaiveCount) {
  // ViolatingPairCount reads class sizes only, which is exact for any
  // refinement pair, whatever the two representations.
  Rng rng(0x165667b1u + static_cast<uint64_t>(GetParam()));
  const int64_t rows = 17 + static_cast<int64_t>(rng.NextBounded(150));
  const std::vector<std::vector<int32_t>> columns = FuzzColumns(rng, rows);
  PartitionProduct product(rows);
  G3Calculator g3(rows);
  for (const std::vector<int32_t>& x : columns) {
    for (const std::vector<int32_t>& y : columns) {
      const StrippedPartition coarse = FromLabels(x, true);
      const StrippedPartition fine =
          product.Multiply(coarse, FromLabels(y, true)).value();
      const int64_t expected = NaiveErrors(coarse, fine).violating_pairs;
      EXPECT_EQ(g3.ViolatingPairCount(coarse, fine).value(), expected);
      EXPECT_EQ(g3.ViolatingPairCount(coarse.Unstripped(), fine).value(),
                expected);
      EXPECT_EQ(g3.ViolatingPairCount(coarse, fine.Unstripped()).value(),
                expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProductDifferentialTest,
                         ::testing::Range(0, 8));

TEST(ProductTinyClassTest, EveryLabelPatternKeepsTheTouchedListOrder) {
  // One `b` class of 2 or 3 rows (rows 3, 7, 11) whose rows sit in `a`
  // class 0, 1 or 2, or in no stored `a` class (pattern value 3: a
  // singleton in stripped `a`, the trash bucket): every assignment, so
  // all-equal, each equal pair, all-distinct, and trash in every position.
  // Filler rows give `a` four stored classes, which keeps these operands on
  // the touched-list path. The product must equal the touched-list order
  // exactly — for stripped operands the single class of the rows sharing
  // a stored `a` class — with and without label reuse, on the direct and
  // gathered probe paths, and MultiplyCounted must agree on the partition
  // and count both parent tests right.
  constexpr int32_t kRows = 16;
  constexpr int32_t kClassRows[3] = {3, 7, 11};
  constexpr int kTrash = 3;
  PartitionProduct direct(kRows);
  PartitionProduct gathered(int64_t{1} << 19);
  uint64_t token = 0;
  for (const int n : {2, 3}) {
    const int patterns = n == 2 ? 16 : 64;
    for (int pattern = 0; pattern < patterns; ++pattern) {
      std::vector<int> label(n);
      for (int k = 0, rest = pattern; k < n; ++k, rest /= 4) {
        label[k] = rest % 4;
      }
      std::vector<int32_t> a_labels(kRows);
      std::vector<int32_t> b_labels(kRows);
      for (int32_t row = 0; row < kRows; ++row) {
        a_labels[row] = 100 + row;
        b_labels[row] = 200 + row;
      }
      for (const int32_t row : {0, 1}) a_labels[row] = 0;
      for (const int32_t row : {4, 5}) a_labels[row] = 1;
      for (const int32_t row : {8, 9}) a_labels[row] = 2;
      for (const int32_t row : {12, 13, 14, 15}) a_labels[row] = 3;
      for (int k = 0; k < n; ++k) {
        b_labels[kClassRows[k]] = 50;
        if (label[k] != kTrash) a_labels[kClassRows[k]] = label[k];
      }
      // The rows of the `b` class that share a stored `a` class (at most
      // one such class among 3 rows).
      std::vector<int32_t> shared;
      for (int value = 0; value < kTrash; ++value) {
        std::vector<int32_t> members;
        for (int k = 0; k < n; ++k) {
          if (label[k] == value) members.push_back(kClassRows[k]);
        }
        if (members.size() >= 2) shared = members;
      }
      for (const bool stripped : {true, false}) {
        const std::string tag = "n=" + std::to_string(n) + " pattern=" +
                                std::to_string(pattern) +
                                (stripped ? " stripped" : " unstripped");
        const StrippedPartition a = FromLabels(a_labels, stripped);
        const StrippedPartition b = FromLabels(b_labels, stripped);
        ASSERT_TRUE(TakesTouchedListPath(a, b)) << tag;
        const StrippedPartition expected = TouchedListProduct(a, b);
        if (stripped) {
          EXPECT_EQ(expected.row_ids(), shared) << tag;
          EXPECT_EQ(expected.num_classes(), shared.empty() ? 0 : 1) << tag;
        }
        EXPECT_EQ(expected.Canonicalized(), NaiveProduct(a, b)) << tag;
        const NaiveCounts naive_a = NaiveErrors(a, expected);
        const NaiveCounts naive_b = NaiveErrors(b, expected);
        for (PartitionProduct* product : {&direct, &gathered}) {
          // Token 0 labels every time; a fresh token labels once and the
          // calls after it reuse the labels.
          EXPECT_EQ(product->Multiply(a, b).value(), expected) << tag;
          ++token;
          const int64_t reuses = product->label_reuses();
          for (int call = 0; call < 2; ++call) {
            const StrippedPartition out =
                product->Multiply(a, b, token).value();
            EXPECT_EQ(out.row_ids(), expected.row_ids()) << tag;
            EXPECT_EQ(out.class_offsets(), expected.class_offsets()) << tag;
          }
          const CountedProduct counted =
              product->MultiplyCounted(a, b, token).value();
          EXPECT_EQ(product->label_reuses(), reuses + 2) << tag;
          EXPECT_EQ(counted.partition, expected) << tag;
          EXPECT_EQ(counted.a.removals, naive_a.removals) << tag;
          EXPECT_EQ(counted.a.violating_rows, naive_a.violating_rows) << tag;
          EXPECT_EQ(counted.b.removals, naive_b.removals) << tag;
          EXPECT_EQ(counted.b.violating_rows, naive_b.violating_rows) << tag;
        }
      }
    }
  }
}

TEST(ProductDifferentialTest, ProductAllocationsDoNotDriftWithThreadCount) {
  StatusOr<Relation> relation = MakePaperDataset(
      PaperDataset::kWisconsinBreastCancer, /*rows=*/200, /*seed=*/42);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  for (const double epsilon : {0.0, 0.05}) {
    int64_t serial_allocations = -1;
    for (const int threads : {1, 2, 8}) {
      TaneConfig config;
      config.epsilon = epsilon;
      config.num_threads = threads;
      // Run the task window on every level, however small.
      config.parallel_min_window_rows = 0;
      StatusOr<DiscoveryResult> result = Tane::Discover(*relation, config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const DiscoveryStats& stats = result->stats;
      ASSERT_GT(stats.partition_products, 0) << threads;
      // Every product allocates its exactly sized rows and offsets arrays,
      // except that a product with no member rows allocates only its
      // offsets. The member-row histogram's zero bucket counts those.
      const obs::HistogramSnapshot& member_rows =
          result->metrics.histogram(obs::kProductMemberRows);
      ASSERT_EQ(member_rows.count, stats.partition_products) << threads;
      EXPECT_EQ(stats.product_allocations,
                2 * stats.partition_products - member_rows.buckets[0])
          << epsilon << ", " << threads << " threads";
      if (serial_allocations < 0) {
        serial_allocations = stats.product_allocations;
      } else {
        EXPECT_EQ(stats.product_allocations, serial_allocations)
            << epsilon << ", " << threads << " threads";
      }
    }
  }
}

TEST(ProductDifferentialTest, DiscoveryIsBitIdenticalAcrossThreads) {
  StatusOr<Relation> relation =
      MakePaperDataset(PaperDataset::kLymphography, 80, /*seed=*/42);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  for (const double epsilon : {0.0, 0.05}) {
    std::vector<DiscoveryResult> results;
    for (const int threads : {1, 4}) {
      TaneConfig config;
      config.epsilon = epsilon;
      config.num_threads = threads;
      // Run the task window on every level, however small.
      config.parallel_min_window_rows = 0;
      StatusOr<DiscoveryResult> result = Tane::Discover(*relation, config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_GT(result->stats.partition_products, 0);
      results.push_back(std::move(result).value());
    }
    const DiscoveryResult& serial = results[0];
    const DiscoveryResult& parallel = results[1];
    ASSERT_EQ(serial.fds.size(), parallel.fds.size()) << epsilon;
    for (size_t i = 0; i < serial.fds.size(); ++i) {
      EXPECT_EQ(serial.fds[i].lhs, parallel.fds[i].lhs) << epsilon;
      EXPECT_EQ(serial.fds[i].rhs, parallel.fds[i].rhs) << epsilon;
      EXPECT_EQ(serial.fds[i].error, parallel.fds[i].error) << epsilon;
    }
    EXPECT_EQ(serial.keys, parallel.keys) << epsilon;
    EXPECT_EQ(serial.stats.partition_products,
              parallel.stats.partition_products)
        << epsilon;
    EXPECT_EQ(serial.stats.product_allocations,
              parallel.stats.product_allocations)
        << epsilon;
  }
}

TEST(ProductDifferentialTest, ParentTestsFromTheProductMatchBruteForce) {
  // The product answers the two tests whose left-hand side is one of its
  // parents. Discovery must still equal brute force, dependency by
  // dependency and error by error, at every thread count, with and
  // without the g3 bounds — at ε = 0.05 and at an ε whose threshold
  // ⌊ε·|r|⌋ is exactly the count of a level-2 test (at level 2 both tests
  // of every node are parent tests). Every approximate-mode test is
  // either a scan or a skipped scan.
  StatusOr<Relation> relation = MakePaperDataset(
      PaperDataset::kWisconsinBreastCancer, /*rows=*/150, /*seed=*/42);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  const int64_t rows = relation->num_rows();
  G3Calculator g3(rows);
  for (const ErrorMeasure measure : {ErrorMeasure::kG3, ErrorMeasure::kG2}) {
    // The first {A} -> B with a nonzero count.
    int64_t count = 0;
    for (int a = 0; a < relation->num_columns() && count == 0; ++a) {
      for (int b = a + 1; b < relation->num_columns() && count == 0; ++b) {
        const StrippedPartition lhs =
            PartitionBuilder::ForAttribute(*relation, a);
        const StrippedPartition joint = PartitionBuilder::ForAttributeSet(
            *relation, AttributeSet::Of({a, b}));
        count = measure == ErrorMeasure::kG3
                    ? g3.RemovalCount(lhs, joint).value()
                    : g3.ViolatingRowCount(lhs, joint).value();
      }
    }
    ASSERT_GT(count, 0);
    const double on_count = (static_cast<double>(count) + 0.5) /
                            static_cast<double>(rows);
    ASSERT_EQ(IntegerThreshold(on_count, static_cast<double>(rows)), count);
    for (const double epsilon : {0.05, on_count}) {
      StatusOr<DiscoveryResult> oracle =
          BruteForce::Discover(*relation, epsilon, kMaxAttributes, measure);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      for (const bool bounds : {true, false}) {
        for (const int threads : {1, 2, 4, 8}) {
          const std::string tag =
              "measure=" + std::to_string(static_cast<int>(measure)) +
              " eps=" + std::to_string(epsilon) +
              " bounds=" + std::to_string(bounds) +
              " threads=" + std::to_string(threads);
          TaneConfig config;
          config.epsilon = epsilon;
          config.measure = measure;
          config.use_g3_bounds = bounds;
          config.num_threads = threads;
          // Run the task window on every level, however small.
          config.parallel_min_window_rows = 0;
          StatusOr<DiscoveryResult> result =
              Tane::Discover(*relation, config);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          ASSERT_EQ(testing_util::FdStrings(result->fds),
                    testing_util::FdStrings(oracle->fds))
              << tag;
          for (size_t i = 0; i < oracle->fds.size(); ++i) {
            EXPECT_EQ(result->fds[i].error, oracle->fds[i].error) << tag;
          }
          const DiscoveryStats& stats = result->stats;
          EXPECT_EQ(stats.g3_scans + stats.g3_scans_skipped,
                    stats.validity_tests)
              << tag;
          EXPECT_GT(stats.g3_from_product, 0) << tag;
          EXPECT_LE(stats.g3_from_product, stats.g3_scans_skipped) << tag;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tane
