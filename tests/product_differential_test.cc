// Differential fuzz for the probe-table product and error scans:
// PartitionProduct::Multiply and G3Calculator against naive map-based
// references on random partitions — both emission strategies, the gathered
// and direct probe paths, label reuse, and operands over more rows than the
// constructed size — plus a discovery run checked for bit-identical output
// and exact allocation counts across thread counts.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/tane.h"
#include "datasets/paper_datasets.h"
#include "gtest/gtest.h"
#include "partition/error.h"
#include "partition/product.h"
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
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProductDifferentialTest,
                         ::testing::Range(0, 8));

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
      if (epsilon == 0.0) {
        // Key pruning deletes every node without member rows, so every
        // product allocates exactly its rows and offsets arrays.
        EXPECT_EQ(stats.product_allocations, 2 * stats.partition_products)
            << threads << " threads";
      } else {
        EXPECT_LE(stats.product_allocations, 2 * stats.partition_products)
            << threads << " threads";
      }
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

}  // namespace
}  // namespace tane
